"""The grammar shared by every plain-text record file the toolkit reads.

Lines are split by ``str.splitlines`` and numbered from 1; blank lines
are skipped. A line whose first non-blank character is ``#`` is a header,
whose tokens after the ``#`` go to the reader; every other line is a
record of whitespace-separated fields. Numbers must be finite floats or
64-bit integers. Each numeric column of a block of records is converted
by one ``np.array`` call; only when that fails is the block scanned
again, to raise a ParseError naming the line and column of its first
bad token. Every writer formats its rows with ``lines``; every format but
the alignment report writes a float with six fractional digits (``FIXED``).
"""

from __future__ import annotations

import re
from array import array
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ParseError, WrongFieldCount

_TOKEN = re.compile(r"\S+")  # the fields of str.split()
_KINDS = {float: (np.float64, "a finite float"), int: (np.int64, "a 64-bit integer")}
# Records split at a time: only one block's tokens exist as Python strings.
_BLOCK = 1024
# Rows formatted at a time by lines(): only one block's values exist as Python objects.
_WRITE_BLOCK = 4096
# Six fractional digits, as every format but the alignment report writes a float.
FIXED = "%.6f"


class Records(NamedTuple):
    """The text and the line number of each record line.

    ``records()`` keeps the line numbers in a compact ``array``: a file
    can hold millions of records.
    """

    texts: list[str]
    line_nos: Sequence[int]


def records(text: str) -> tuple[Records, Records]:
    """The data records and the header records of ``text``.

    A header's text has its ``#`` blanked out, so that its fields are the
    tokens after the ``#`` and columns still count from the line start.
    """
    data, headers = Records([], array("q")), Records([], array("q"))
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped:
            continue
        if stripped[0] == "#":
            headers.texts.append(line.replace("#", " ", 1))
            headers.line_nos.append(line_no)
        else:
            data.texts.append(line)
            data.line_nos.append(line_no)
    return data, headers


def take(recs: Records, indices: Sequence[int]) -> Records:
    """The records at ``indices``, in that order."""
    return Records(*([column[i] for i in indices] for column in recs))


def table(recs: Records, types: Sequence[type]) -> list:
    """The records as columns, one per type in ``types``.

    Every record must have ``len(types)`` fields, else WrongFieldCount.
    A ``str`` column is a tuple of tokens, a ``float`` column a float64
    array and an ``int`` column an int64 array.
    """
    parts = [[np.empty(0, _KINDS[kind][0])] if kind in _KINDS else [] for kind in types]
    for first in range(0, len(recs.texts), _BLOCK):
        rows = [text.split() for text in recs.texts[first:first + _BLOCK]]
        for i, fields in enumerate(rows, start=first):
            if len(fields) != len(types):
                raise WrongFieldCount(recs.line_nos[i], expected=len(types), got=len(fields))
        try:
            for part, cells, kind in zip(parts, zip(*rows), types):
                part.append(cells if kind is str else _numbers(cells, kind))
        except (ValueError, OverflowError):
            i, j = next((i, j) for i, fields in enumerate(rows) for j, kind in enumerate(types)
                        if kind is not str and not _valid(fields[j], kind))
            message = f"expected {_KINDS[types[j]][1]}, got {rows[i][j]!r}"
            raise error(recs, first + i, j, message) from None
    return [
        np.concatenate(part) if kind in _KINDS else tuple(chain.from_iterable(part))
        for part, kind in zip(parts, types)
    ]


def row(recs: Records, i: int, kind: type, start: int = 0) -> np.ndarray:
    """Fields ``start`` onward of record ``i``, as numbers of one type."""
    types = (str,) * start + (kind,) * (len(recs.texts[i].split()) - start)
    return np.concatenate(table(take(recs, [i]), types)[start:])


def error(recs: Records, i: int, j: int, message: str) -> ParseError:
    """A ParseError at field ``j`` of record ``i``, naming its line and column."""
    token = list(_TOKEN.finditer(recs.texts[i]))[j]
    return ParseError(message, line=recs.line_nos[i], column=token.start() + 1)


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
