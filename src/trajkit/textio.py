"""The grammar shared by every plain-text record file the toolkit reads.

Lines are split as by ``str.splitlines`` and numbered from 1; blank lines are
skipped. A line whose first non-blank character is ``#`` is a header, whose
fields after the ``#`` go to the reader; every other line is a record of
whitespace-separated fields. Numbers must be finite floats or 64-bit integers.
``table`` walks the text in slices of about 64 KB, cut just after a newline,
and parses each slice with one ``np.loadtxt`` call, numpy's C parser, into one
structured dtype: a name column is an object field. Only a slice that is all
ASCII, holds no ``#`` and no blank line, and whose lines have the width
loadtxt checks and finite numbers is taken from loadtxt; any other slice (or
one loadtxt refuses) goes line by line, which gives the outcome of Python's
``int`` and ``float``. No line number is stored: a ParseError recounts the
lines to name the line and column of the first bad token.

Every writer formats its rows with ``lines``; every format but the
alignment report writes a float with six fractional digits (``FIXED``).
A template of ``%d`` (int64), ``%.6f`` and ``%.12g`` (float64) and ``%s``
(names) fields is formatted a block at a time as one uint8 buffer, a byte per
character (NUL for padding, dropped at the end), rounding as Python does: a
scaled float near a half-integer goes through Python's own format. A block
with a non-ASCII name or a NUL, a nan or inf, a ``%.6f`` float of 2**42 / 1e6
or more, or a ``%.12g`` one with |x| < 1e-4 or rounding to 1e12 uses ``%``.
"""

from __future__ import annotations

import re
import warnings
from itertools import accumulate, chain, islice
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
    stop = re.match(r"(?:[ \t]*#.*\n)*", text).end()  # the leading headers: a slice of their own
    while start < len(text):
        stop = stop or text.find("\n", start + _SLICE) + 1 or len(text)
        piece = text[start:stop]
        lines = piece.splitlines()
        yield before, piece, lines
        before, start, stop = before + len(lines), stop, 0


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
        columns = _parse(piece, lines, types)
        if columns is None:
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
            columns = to_columns(text, tokens, line_nos, types)
        for part, column in zip(parts, columns):
            part.append(column)
    columns = [
        np.concatenate(part) if kind in _KINDS else tuple(chain.from_iterable(part))
        for part, kind in zip(parts, types)
    ]
    return columns, headers


def _parse(piece: str, lines: list[str], types: Sequence[type]) -> list | None:
    """The columns of a slice by numpy's C parser, or None if the slice must go line by line.

    Only an ASCII slice (loadtxt of numpy 2.4 can crash on other text) with
    no ``#`` is parsed, by one structured dtype: a ``str`` column is an object
    field, read as a Python str. loadtxt raises on a line of another width.
    """
    if "#" in piece or not piece.isascii():
        return None
    dtype = [(f"f{j}", object if kind is str else _KINDS[kind][0]) for j, kind in enumerate(types)]
    try:
        # A warning (numpy 1.24 reads "1.0" as an int with a DeprecationWarning) is a refusal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(rows) != len(lines):  # a blank line
        return None
    columns = [rows[f"f{j}"] for j in range(len(types))]
    if not all(np.isfinite(column).all() for column, kind in zip(columns, types) if kind is float):
        return None
    return [tuple(column.tolist()) if kind is str else column
            for column, kind in zip(columns, types)]


def numbers(
    text: str, line_no: int, fields: Sequence[str], kind: type, start: int = 0
) -> np.ndarray:
    """Fields ``start`` onward of line ``line_no`` of ``text``, as numbers of one kind."""
    types = (str,) * start + (kind,) * (len(fields) - start)
    return np.concatenate(to_columns(text, fields, [line_no], types)[start:])


def to_columns(
    text: str, tokens: list[str], line_nos: Sequence[int], types: Sequence[type]
) -> list:
    """The flat ``tokens`` of the records at ``line_nos``, one column per type in ``types``."""
    width = len(types)
    try:
        return [tuple(tokens[j::width]) if kind is str else _numbers(tokens[j::width], kind)
                for j, kind in enumerate(types)]
    except (ValueError, OverflowError):
        i, j = min((_first_bad(tokens[j::width], kind), j) for j, kind in enumerate(types)
                   if kind is not str and not _valid(tokens[j::width], kind))
        message = f"expected {_KINDS[types[j]][1]}, got {tokens[i * width + j]!r}"
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


# lines() writes "%d" over int64, FIXED and "%.12g" over float64 and "%s" over names
# into a uint8 buffer whose row k is byte k of every line: a literal byte, "-" or NUL,
# a byte of a NUL-padded name, or a decimal place of a number (NUL for a leading zero
# or a dropped trailing one). It is transposed once, and the NULs dropped.
_BYTE_FIELDS = {"%d": np.int64, FIXED: np.float64, "%.12g": np.float64, "%s": object}
_FIELD = r"(%d|%\.6f|%\.12g|%s)"  # compiled by re on first use, not at import
# x * 1e6 is rounded once, so it is off from the exact product by at most
# 2**-53 of its size: rint of it rounds as "%.6f" rounds x unless it lies
# within 2**-50 of its size (2**-8 at the limit) of a half-integer, and Python
# formats those few values itself. A block holding a float of magnitude
# _FIXED_LIMIT or more, or one not finite, goes row by row. "%.12g" rounds
# x * 10**(11 - e) the same way, e = floor(log10|x|) in [-4, 11].
_FIXED_LIMIT = 2.0 ** 42 / 1e6
_POW10 = np.array([float(10 ** k) for k in range(16)])  # exact: each is below 2**53
_DOT = np.frombuffer(b".", np.uint8)[:, None]


def lines(template: str, columns: Sequence[np.ndarray | Sequence[str]]) -> str:
    """``template % row`` for each row of the equal-length ``columns``, concatenated.

    A column is an array or a sequence of strings, such as a names tuple. The
    module docstring says which blocks are written as bytes, and which by ``%``.
    """
    pieces = re.split(_FIELD, template)  # literal, field, literal, ..., literal
    as_bytes = (
        "%" not in "".join(pieces[::2]) and "\0" not in template  # NUL bytes are dropped
        and len(columns) == len(pieces) // 2
        and all((column.ndim == 1 and column.dtype == _BYTE_FIELDS[field])
                if isinstance(column, np.ndarray) else field == "%s"
                for field, column in zip(pieces[1::2], columns))
    )
    blocks = []
    for first in range(0, len(columns[0]), _WRITE_BLOCK):
        cuts = [column[first:first + _WRITE_BLOCK] for column in columns]
        block = _format(pieces, cuts) if as_bytes else None
        if block is None:
            rows = zip(*(cut.tolist() if isinstance(cut, np.ndarray) else cut for cut in cuts))
            block = "".join([template % row for row in rows])
        blocks.append(block)
    return "".join(blocks)


def _format(pieces: list[str], cuts: list) -> str | None:
    """The rows of ``cuts`` as ``lines`` writes them, or None if ``%`` must write them.

    A line is its literals' bytes, each name's bytes and, for each number, a "-"
    byte (if the block holds a negative) and its digits, a "." before any fraction.
    """
    literals = [np.frombuffer(piece.encode(), np.uint8)[:, None] for piece in pieces[::2]]
    parts = []  # (bytes, rows) arrays, or (bytes, 1) for the same bytes on every line
    for literal, field, cut in zip(literals, pieces[1::2], cuts):
        parts.append(literal)
        if field == "%s":  # joined by NULs, which no name may hold, and padded with them
            try:
                flat = np.frombuffer(("\0".join(cut) + "\0").encode("ascii"), np.uint8)
            except (TypeError, UnicodeEncodeError):  # "%" writes str() of a non-str
                return None
            nul = flat == 0
            if np.count_nonzero(nul) != len(cut):  # a name holds a NUL
                return None
            width = len(flat) // len(cut)  # each name's length plus its NUL, if all are equal
            if width * len(cut) == len(flat) and nul[width - 1::width].all():
                parts.append(flat.reshape(-1, width)[:, :-1].T)
                continue
            ends = np.flatnonzero(nul)
            starts = np.concatenate([[0], ends[:-1] + 1])
            index = np.add.outer(np.arange((ends - starts).max()), starts)
            parts.append(flat[np.minimum(index, ends, out=index)])
            continue
        magnitude, negative = np.abs(cut), np.signbit(cut)  # Python writes -0.000000 too
        if field == "%d":
            digits = [_digits(magnitude.view(np.uint64), 1)]  # abs(-2**63) viewed is 2**63
        elif field == FIXED:
            if not (magnitude < _FIXED_LIMIT).all():  # also false for nan
                return None
            scaled = magnitude * 1e6
            rounded = np.rint(scaled)
            for i in np.flatnonzero(np.abs(scaled - rounded) > 0.5 - scaled * 2.0 ** -50).tolist():
                rounded[i] = int((FIXED % magnitude[i]).replace(".", ""))
            digits = _digits(rounded, 7)
            digits = [digits[:-6], _DOT, digits[-6:]]
        else:
            # Outside this range "%.12g" writes an exponent: 999999999999.5 rounds to 1e+12.
            if not ((magnitude >= 1e-4) & (magnitude < 999999999999.5)).all():
                return None
            # Should log10 round across a power of ten, e is one off: m leaves [1e11, 1e12).
            e = np.clip(np.floor(np.log10(magnitude)), -4, 11).astype(np.int64)
            scaled = magnitude * _POW10[11 - e]
            m = np.rint(scaled)
            redo = (np.abs(scaled - m) > 0.5 - scaled * 2.0 ** -50) | (m < 1e11) | (m >= 1e12)
            for i in np.flatnonzero(redo).tolist():
                mantissa, exponent = ("%.11e" % magnitude[i]).split("e")
                m[i], e[i] = int(mantissa.replace(".", "")), int(exponent)
            whole = np.floor(m / _POW10[11 - e])  # integers below 2**53: each step is exact
            fraction = (m - whole * _POW10[11 - e]) * _POW10[4 + e]  # 15 places
            high = np.floor(fraction / 1e8)
            fraction = np.concatenate([_digits(high, 7), _digits(fraction - high * 1e8, 8)])
            kept = fraction != ord("0")  # then: a place at or before a non-zero one
            for k in range(13, -1, -1):
                kept[k] |= kept[k + 1]
            digits = [_digits(whole, 1), _DOT * kept[0], fraction * kept]
        if negative.any():
            parts.append(negative.view(np.uint8)[None] * np.uint8(ord("-")))
        parts += digits
    parts.append(literals[-1])
    buf = np.empty((sum(map(len, parts)), len(cuts[0])), np.uint8)
    for part, stop in zip(parts, accumulate(map(len, parts))):
        buf[stop - len(part):stop] = part
    return buf.T.tobytes().translate(None, b"\0").decode()


def _digits(magnitude: np.ndarray, shown: int) -> np.ndarray:
    """The ASCII digits of whole numbers ``magnitude`` below 2**64, a row per place, most
    significant first: a leading zero is NUL unless it is in the lowest ``shown`` places."""
    top = int(magnitude.max())
    kind = np.uint32 if top < 2 ** 32 else np.uint64  # uint32 division is about twice as fast
    places = max(len(str(top)), shown)
    shifted = np.empty((places + 1, len(magnitude)), kind)  # row i: magnitude // 10 ** (places - i)
    shifted[0], shifted[places] = 0, magnitude
    for i in range(places - 1, 0, -1):  # by a scalar, floor_divide is far faster than np.divmod
        np.floor_divide(shifted[i + 1], kind(10), out=shifted[i])
    digits = (shifted[1:] - shifted[:-1] * kind(10)).astype(np.uint8) + np.uint8(ord("0"))
    digits[:places - shown] *= shifted[1:places - shown + 1] > 0
    return digits


def _numbers(cells: Sequence[str], kind: type) -> np.ndarray:
    values = np.array(cells, dtype=_KINDS[kind][0])
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    return values


def _valid(cells: Sequence[str], kind: type) -> bool:
    try:
        _numbers(cells, kind)
    except (ValueError, OverflowError):
        return False
    return True


def _first_bad(cells: Sequence[str], kind: type) -> int:
    """The index of the first of ``cells``, not all valid, that _numbers refuses.

    Found by halving: each step parses half of what is left in C, so that
    the cells are parsed about twice in all, not one Python call each.
    """
    lo, hi = 0, len(cells)  # cells[:lo] are valid, cells[lo:hi] hold a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _valid(cells[lo:mid], kind) else (lo, mid)
    return lo
