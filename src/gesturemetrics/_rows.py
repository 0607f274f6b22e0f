"""The text of one table row, and a worker process that formats rows of doubles.

:func:`format_row` is the one row format of every table file. Run as a script,
``python -I -S _rows.py <width>``, this file is the worker that formats part of a
large table beside the process that saves it: it reads native doubles from stdin
until end of file, formats them as rows of ``width`` values, and only then writes
the text to stdout, as ASCII with ``\\n`` line ends. Reading everything before it
writes anything means that neither side can block on a full pipe while the other
waits for it. The worker imports only ``sys`` and ``array``, so it starts in about
13 ms; the parent reads ``__file__`` to start it.
"""

import sys
from array import array


def format_row(row):
    """One line of a table: the ``repr`` of each number, joined by commas, so a
    save/load round trip is exact."""
    return ",".join(map(repr, row)) + "\n"


def _main(width):
    values = array("d", sys.stdin.buffer.read())
    text = "".join([format_row(values[i:i + width]) for i in range(0, len(values), width)])
    sys.stdout.buffer.write(text.encode("ascii"))


if __name__ == "__main__":
    _main(int(sys.argv[1]))
