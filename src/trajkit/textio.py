"""The grammar shared by every plain-text record file the toolkit reads.

Lines are split as by ``str.splitlines`` and numbered from 1; blank lines
are skipped. A line whose first non-blank character is ``#`` is a header,
whose fields after the ``#`` go to the reader; every other line is a
record of whitespace-separated fields. Numbers must be finite floats or
64-bit integers. ``table`` walks the text in slices of about 64 KB, cut
just after a newline, and converts each numeric column of a slice by one
``np.array`` call; only a slice with a header, a blank line or a wrong
field count goes line by line. No line number is stored: a ParseError
recounts the lines to name the line and column of the first bad token.
Every writer formats its rows with ``lines``; every format but the
alignment report writes a float with six fractional digits (``FIXED``).
"""

from __future__ import annotations

import re
from itertools import chain, islice
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError

_TOKEN = re.compile(r"\S+")  # the fields of str.split()
_KINDS = {float: (np.float64, "a finite float"), int: (np.int64, "a 64-bit integer")}
# Characters of text split at a time: only one slice's fields exist as Python strings.
_SLICE = 1 << 16
# Rows formatted at a time by lines(): only one block's values exist as Python objects.
_WRITE_BLOCK = 4096
# Six fractional digits, as every format but the alignment report writes a float.
FIXED = "%.6f"


def _slices(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(lines before it, slice, its lines) for each slice of ``text``, cut just after a newline."""
    start = before = 0
    while start < len(text):
        stop = text.find("\n", start + _SLICE) + 1 or len(text)
        piece = text[start:stop]
        lines = piece.splitlines()
        yield before, piece, lines
        before, start = before + len(lines), stop


def record_fields(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, fields) of each record of ``text``, in order."""
    for before, _, lines in _slices(text):
        for line_no, fields in enumerate(map(str.split, lines), start=before + 1):
            if fields and fields[0][0] != "#":
                yield line_no, fields


def table(text: str, types: Sequence[type]) -> tuple[list, list[tuple[int, list[str]]]]:
    """The records of ``text`` as columns, one per type in ``types``, and its headers.

    Every record must have ``len(types)`` fields, else ParseError. A
    ``str`` column is a tuple of tokens, a ``float`` column a float64
    array and an ``int`` column an int64 array. A header is its line
    number and its fields after the ``#``.
    """
    width, headers = len(types), []
    parts = [[np.empty(0, _KINDS[kind][0])] if kind in _KINDS else [] for kind in types]
    for before, piece, lines in _slices(text):
        # Only a slice with a "#", a blank line or a wrong field count goes line by
        # line. The lists that count fields die at once: a slice keeps only its
        # flat tokens, so no container per line outlives the test.
        if "#" in piece or list(map(len, map(str.split, lines))).count(width) != len(lines):
            line_nos, tokens = [], []
            for line_no, fields in enumerate(map(str.split, lines), start=before + 1):
                if not fields:
                    continue
                if fields[0][0] == "#":
                    headers.append((line_no, fields[0][1:].split() + fields[1:]))
                elif len(fields) != width:
                    raise ParseError(f"expected {width} fields, got {len(fields)}", line=line_no)
                else:
                    line_nos.append(line_no)
                    tokens += fields
        else:
            tokens, line_nos = piece.split(), range(before + 1, before + len(lines) + 1)
        for part, column in zip(parts, _columns(text, tokens, line_nos, types)):
            part.append(column)
    columns = [
        np.concatenate(part) if kind in _KINDS else tuple(chain.from_iterable(part))
        for part, kind in zip(parts, types)
    ]
    return columns, headers


def numbers(
    text: str, line_no: int, fields: Sequence[str], kind: type, start: int = 0
) -> np.ndarray:
    """Fields ``start`` onward of line ``line_no`` of ``text``, as numbers of one kind."""
    types = (str,) * start + (kind,) * (len(fields) - start)
    return np.concatenate(_columns(text, fields, [line_no], types)[start:])


def _columns(text: str, tokens: list[str], line_nos: Sequence[int], types: Sequence[type]) -> list:
    """The flat ``tokens`` of the records at ``line_nos``, one column per type in ``types``."""
    width = len(types)
    try:
        return [tuple(tokens[j::width]) if kind is str else _numbers(tokens[j::width], kind)
                for j, kind in enumerate(types)]
    except (ValueError, OverflowError):
        r = next(r for r, token in enumerate(tokens)
                 if types[r % width] is not str and not _valid(token, types[r % width]))
        i, j = divmod(r, width)
        message = f"expected {_KINDS[types[j]][1]}, got {tokens[r]!r}"
        raise error(text, line_nos[i], j, message) from None


def record_line(text: str, i: int) -> int:
    """The line number of record ``i`` of ``text``, counting records from 0."""
    return next(islice(record_fields(text), i, None))[0]


def error(text: str, line_no: int, j: int, message: str) -> ParseError:
    """A ParseError at field ``j`` of line ``line_no`` of ``text`` (after a header's ``#``)."""
    line = text.splitlines()[line_no - 1]
    if line.lstrip().startswith("#"):
        line = line.replace("#", " ", 1)
    token = list(_TOKEN.finditer(line))[j]
    return ParseError(message, line=line_no, column=token.start() + 1)


def lines(template: str, columns: Sequence[np.ndarray | Sequence[str]]) -> str:
    """``template % row`` for each row of the equal-length ``columns``, concatenated.

    A column is an array or a sequence of strings, such as a names tuple.
    """
    blocks = []
    for first in range(0, len(columns[0]), _WRITE_BLOCK):
        cuts = (column[first:first + _WRITE_BLOCK] for column in columns)
        rows = zip(*(cut.tolist() if isinstance(cut, np.ndarray) else cut for cut in cuts))
        blocks.append("".join([template % row for row in rows]))
    return "".join(blocks)


def _numbers(cells: Sequence[str], kind: type) -> np.ndarray:
    values = np.array(cells, dtype=_KINDS[kind][0])
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    return values


def _valid(cell: str, kind: type) -> bool:
    try:
        _numbers([cell], kind)
    except (ValueError, OverflowError):
        return False
    return True
