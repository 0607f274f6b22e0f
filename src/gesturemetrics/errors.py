"""Exception hierarchy shared by all modules, the one JSON decoder and its one number rule."""

import json
from itertools import chain


class GestureError(Exception):
    """Base class for all toolkit errors."""


class StructuralError(GestureError):
    """Shape/arity/metadata mismatch in an input (wrong joint count, mu mismatch, ...)."""


class DegenerateGeometryError(GestureError):
    """Coincident or zero-length keypoint geometry makes an angle undefined."""


class UnknownOrientationError(GestureError):
    """Hand orientation cannot be determined from the available evidence."""


class InsufficientDataError(GestureError):
    """Too few samples for the requested statistic (e.g. jerk needs >= 4 frames)."""


class ParseError(GestureError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def parse_json(text, what, line=None):
    """Decode one JSON document from ``text`` (str, or bytes in a UTF encoding).
    Malformed, undecodable or too deeply nested text raises ``ParseError(f"{what}: ...", line)``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{what}: {exc}", line) from exc


def json_numbers(rows, what, line=None):
    """Raise ``ParseError(what, line)`` unless every row is a JSON array of JSON numbers:
    ``float()`` and numpy would also read a string or a boolean."""
    if not (set(map(type, rows)) <= {list}
            and set(map(type, chain.from_iterable(rows))) <= {int, float}):
        raise ParseError(what, line)
