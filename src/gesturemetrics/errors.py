"""Exception hierarchy shared by all modules, and the one JSON decoder."""

import json


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
