"""Tests of the shared record grammar, and fuzzing of every text reader."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajkit import align, conditions, poseio, simworld, textio, trajectory
from trajkit.errors import ParseError, TrajkitError

from conftest import exactly

READERS = {
    "sparse vertices": lambda text: poseio.read_sparse(text, "1\n"),
    "sparse orders": lambda text: poseio.read_sparse("0 0\n1 0\n2 0\n", text),
    "dense": poseio.read_dense,
    "manifest": poseio.read_manifest,
    "reconstruction": poseio.read_reconstruction,
    "report": poseio.read_report,
    "world": simworld.read_world,
    "observations": simworld.read_observations,
}

# One valid line of each format, with the index of a numeric field in it.
VALID_LINE = {
    "sparse vertices": ("0 0", 1),
    "dense": ("1 2 3 4 5 6 7 8 9", 4),
    "manifest": ("a.png 0 0 0 0 0 0", 3),
    "reconstruction": ("a.png 1 2 3", 2),
    "world": ("0 0.5 0.5 0.5", 2),
    "observations": ("0 0 1.0 2.0", 3),
}
WORLD_HEADERS = "# seed 1\n# bounds 0 0 0 1 1 1\n"


class TestRecords:
    def test_headers_blank_lines_and_crlf(self):
        text = "# k v\r\n\r\n 1\t2 \r\n  #x\n3 4\n"
        (first, second), headers = textio.table(text, (int, int))
        assert first.tolist() == [1, 3] and second.tolist() == [2, 4]
        assert list(textio.record_fields(text)) == [(3, ["1", "2"]), (5, ["3", "4"])]
        assert [textio.record_line(text, i) for i in range(2)] == [3, 5]
        assert headers == [(1, ["k", "v"]), (4, ["x"])]

    def test_table_spans_blocks(self):
        # More records than one slice holds; the error is the first bad
        # token in reading order, not in slice or column order.
        lines = [f"r{i} {i} {i / 2}" for i in range(10_000)]
        (names, ints, floats), _ = textio.table("\n".join(lines), (str, int, float))
        assert names[-1] == "r9999" and len(names) == 10_000
        assert ints.tolist() == list(range(10_000))
        lines[9000] = "r9000 x 0"
        lines[5000] = "r5000 5000 nan"
        with pytest.raises(ParseError) as exc:
            textio.table("\n".join(lines), (str, int, float))
        assert (exc.value.line, exc.value.column) == (5001, 12)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc:
            textio.table("1 2\n\n1 2 3\n", (int, int))
        assert str(exc.value) == "expected 2 fields, got 3 (line 3)"
        assert exc.value.line == 3

    def test_field_count_checked_per_line(self):
        # Three fields then one make the four of two lines, but line 1 has too many.
        with pytest.raises(ParseError) as exc:
            textio.table("1 2 3\n1\n", (int, int))
        assert str(exc.value) == "expected 2 fields, got 3 (line 1)"

    def test_dense_field_count_checked_per_line(self):
        # 10 + 8 fields are two lines' worth of 9; read by the total alone,
        # the file would load with every value after field 9 shifted.
        text = " ".join(["1"] * 10) + "\n" + " ".join(["1"] * 8) + "\n"
        with pytest.raises(ParseError) as exc:
            poseio.read_dense(text)
        assert str(exc.value) == "expected 9 fields, got 10 (line 1)"

    def test_table_types(self):
        (names, ints, floats), _ = textio.table("a 1 2.5\nb -3 4\n", (str, int, float))
        assert names == ("a", "b")
        assert ints.dtype == np.int64 and ints.tolist() == [1, -3]
        assert floats.tolist() == [2.5, 4.0]

    def test_empty_table(self):
        (names, values), _ = textio.table("\n# only a header\n", (str, float))
        assert names == () and values.shape == (0,)

    def test_first_bad_token_in_reading_order(self):
        # Column 3 goes bad on line 2 and column 2 only on line 3; the
        # error names line 2.
        with pytest.raises(ParseError) as exc:
            textio.table("1 2 3\n1 2 x\n1 y 3\n", (int, int, float))
        assert (exc.value.line, exc.value.column) == (2, 5)

    @pytest.mark.parametrize(
        "token, kind, reason",
        [
            ("nan", float, "finite float"),
            ("-inf", float, "finite float"),
            ("1e400", float, "finite float"),
            ("0x10", float, "finite float"),
            ("1.5", int, "64-bit integer"),
            ("99999999999999999999", int, "64-bit integer"),
        ],
    )
    def test_bad_tokens(self, token, kind, reason):
        with pytest.raises(ParseError, match=reason) as exc:
            textio.table(f"0 0\n\t0  {token}\n", (kind, kind))
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_header_value_column(self):
        text = "  # scale x\n"
        _, [(line_no, fields)] = textio.table(text, (float,))
        with pytest.raises(ParseError) as exc:
            textio.numbers(text, line_no, fields, float, start=1)
        assert (exc.value.line, exc.value.column) == (1, 11)

    def test_fixed(self):
        values = np.array([-0.5, 1e-7])
        assert textio.lines(textio.FIXED + "\n", [values]) == "-0.500000\n0.000000\n"


@pytest.mark.parametrize("fmt", sorted(VALID_LINE))
@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
def test_every_reader_rejects_non_finite(fmt, token):
    line, field = VALID_LINE[fmt]
    fields = line.split()
    fields[field] = token
    bad = " ".join(fields)
    column = bad.index(token) + 1
    prefix = WORLD_HEADERS if fmt == "world" else ""
    with pytest.raises(ParseError) as exc:
        READERS[fmt](prefix + line + "\n" + bad + "\n")
    assert exc.value.line == prefix.count("\n") + 2
    assert exc.value.column == column


REPORT = (
    "scale 1\nrotation 1 0 0 0 1 0 0 0 1\ntranslation 0 0 0\nmeters_per_unit 0.8\n"
    "average_error_m 0.1\nmedian_error_m 0.1\ninlier_count 1\ntotal_count 2\n"
    "residual a.png 0.05 1\nresidual b.png 0.15 0\n"
)


@pytest.mark.parametrize(
    "old, new, line, column",
    [
        ("meters_per_unit 0.8", "meters_per_unit inf", 4, 17),
        ("translation 0 0 0", "translation 0 nan 0", 3, 15),
        ("a.png 0.05 1", "a.png 1e400 1", 9, 16),
    ],
)
def test_non_finite_report_values(old, new, line, column):
    assert poseio.read_report(REPORT).inlier_mask.tolist() == [True, False]
    with pytest.raises(ParseError) as exc:
        poseio.read_report(REPORT.replace(old, new))
    assert (exc.value.line, exc.value.column) == (line, column)


# Lines of each format, valid on their own; the fuzzer strings them
# together, adds comments and swaps single tokens for TOKENS.
LINES = {
    "sparse vertices": ["0 0", "1 0", "2 5"],
    "sparse orders": ["1", "2 3", ""],
    "dense": ["1 2 3 4 5 6 7 8 9"],
    "manifest": [
        "a.png 0 0 0 0 0 0", "b.png 1 2 3 4 5 6",
        "# weather rain", "# time_of_day night", "# vehicle_density 0.5",
    ],
    "reconstruction": ["a.png 1 2 3", "b.png 4 5 6"],
    "report": REPORT.splitlines(),
    "world": ["# seed 1", "# bounds 0 0 0 9 9 9", "0 0.5 0.5 0.5", "1 0.5 0.5 0.5"],
    "observations": ["# frames 3", "0 0 1.0 2.0", "2 1 3.0 4.0"],
}
COMMENTS = ["#", "# note", "#x 1"]
TOKENS = [
    "0", "-1", "2", "3.5", "1e3", "nan", "inf", "-inf", "1e400", "99999999999999999999",
    "x", "#", "residual", "a.png",
]


@st.composite
def record_text(draw, reader):
    lines = []
    for line in draw(st.lists(st.sampled_from(LINES[reader] + COMMENTS), max_size=12)):
        tokens = line.split()
        if tokens and draw(st.booleans()):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(TOKENS))
        lines.append(draw(st.sampled_from([" ", "\t", "  "])).join(tokens))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_reader_returns_or_raises_trajkit_error(reader, data):
    text = data.draw(st.one_of(record_text(reader), st.text(max_size=200)))
    try:
        READERS[reader](text)
    except TrajkitError:
        pass


# --------------------------------------------------------------------------
# The record grammar as it was when every line of a file was kept as a str:
# records() split the text into (line number, line) pairs, and table()
# converted blocks of 1024 records, checking each block's field counts
# first. It is the oracle for textio.table, which walks slices of the text.
# --------------------------------------------------------------------------

ORACLE_KINDS = {float: (np.float64, "a finite float"), int: (np.int64, "a 64-bit integer")}


def oracle_records(text):
    """The (line number, line) data records and header records of ``text``.

    A header's text has its ``#`` blanked out.
    """
    data, headers = [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped:
            continue
        if stripped[0] == "#":
            headers.append((line_no, line.replace("#", " ", 1)))
        else:
            data.append((line_no, line))
    return data, headers


def oracle_numbers(cells, kind):
    values = np.array(cells, dtype=ORACLE_KINDS[kind][0])
    if not np.isfinite(values).all():
        raise ValueError("non-finite number")
    return values


def oracle_valid(cell, kind):
    try:
        oracle_numbers([cell], kind)
    except (ValueError, OverflowError):
        return False
    return True


def oracle_table(data, types):
    parts = [[np.empty(0, ORACLE_KINDS[kind][0])] if kind in ORACLE_KINDS else [] for kind in types]
    for first in range(0, len(data), 1024):
        block = data[first:first + 1024]
        rows = [line.split() for _, line in block]
        for (line_no, _), fields in zip(block, rows):
            if len(fields) != len(types):
                raise ParseError(f"expected {len(types)} fields, got {len(fields)}", line=line_no)
        try:
            for part, cells, kind in zip(parts, zip(*rows), types):
                part.append(cells if kind is str else oracle_numbers(cells, kind))
        except (ValueError, OverflowError):
            i, j = next((i, j) for i, fields in enumerate(rows) for j, kind in enumerate(types)
                        if kind is not str and not oracle_valid(fields[j], kind))
            token = list(re.finditer(r"\S+", block[i][1]))[j]
            message = f"expected {ORACLE_KINDS[types[j]][1]}, got {rows[i][j]!r}"
            raise ParseError(message, line=block[i][0], column=token.start() + 1) from None
    return [
        np.concatenate(part) if kind in ORACLE_KINDS else tuple(chain.from_iterable(part))
        for part, kind in zip(parts, types)
    ]


def outcome(parse):
    """What ``parse()`` gives: its columns (values and dtypes) and headers, or its ParseError."""
    try:
        columns, headers = parse()
    except ParseError as exc:
        return str(exc), exc.line, exc.column
    return [(c.tolist(), c.dtype) if isinstance(c, np.ndarray) else c for c in columns], headers


def assert_table_matches_oracle(text, types, slice_chars):
    def oracle():
        data, headers = oracle_records(text)
        return oracle_table(data, types), [(n, line.split()) for n, line in headers]

    with mock.patch.object(textio, "_SLICE", slice_chars):
        assert outcome(lambda: textio.table(text, types)) == outcome(oracle)


GRAMMAR_TYPES = [(int, int), (str, float, int), (float, float, float), (str,)]
GOOD = {int: ["0", "-1", "17", "+3"], float: ["0", "1.5", "-2e3", ".5", "7"],
        str: ["a.png", "x", "1", "#z", "a#b"]}
BAD = {int: ["1.5", "x", "99999999999999999999", "nan"],
       float: ["nan", "inf", "1e400", "x", "0x10"], str: []}
HEADERS = [["#"], ["#", "k", "v"], ["#x", "1"], ["##"], ["#", "frames", "3"]]


@st.composite
def grammar_text(draw):
    """Record text for random column types, with faults of at most one kind.

    The oracle checks a block's field counts before its numbers, and
    table() a slice's: faults of both kinds may then be reported in a
    different order, so a text holds either bad tokens or wrong field
    counts, never both.
    """
    types = draw(st.sampled_from(GRAMMAR_TYPES))
    faults = draw(st.sampled_from(["none", "tokens", "counts"]))
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["record"] * 4 + ["blank", "header"]))
        if kind == "blank":
            fields = []
        elif kind == "header":
            fields = draw(st.sampled_from(HEADERS))
        else:
            width = draw(st.integers(1, len(types) + 1)) if faults == "counts" else len(types)
            kinds = [types[j] if j < len(types) else float for j in range(width)]
            fields = [draw(st.sampled_from(GOOD[k] + (BAD[k] if faults == "tokens" else [])))
                      for k in kinds]
        indent, tail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0c", "\u2028"]))
        lines.append(indent + draw(st.sampled_from([" ", "  ", "\t"])).join(fields) + tail + end)
    text = "".join(lines)
    return types, text[:-1] if text and draw(st.booleans()) else text


@given(case=grammar_text(), slice_chars=st.integers(1, 64))
@settings(max_examples=400, deadline=None)
def test_table_matches_oracle(case, slice_chars):
    # Slices of at most 64 characters: most texts span several, and the
    # cuts land on every kind of line.
    types, text = case
    assert_table_matches_oracle(text, types, slice_chars)


ORACLE_LINES = [
    "# weather rain\r\n", "a.png 1 2\r\n", "\r\n", "  # note\n", "b.png -1.5 3\n", "\n",
    "#\r\n", "c.png 2e3 +4\r\n", "   \n", "d.png .5 5",
]


@pytest.mark.parametrize("fault", [None, "c.png nan +4\r\n", "c.png 2e3\r\n", "c.png 1 2.5\r\n"])
def test_table_matches_oracle_at_every_cut(fault):
    # Every slice size up to the text's length: each CRLF, blank and '#'
    # line comes to sit just before, at and after a cut.
    lines = [fault if fault and line.startswith("c.png") else line for line in ORACLE_LINES]
    text = "".join(lines)
    for slice_chars in range(1, len(text) + 1):
        assert_table_matches_oracle(text, (str, float, int), slice_chars)


# Bad tokens as (row, column, token) in a table of 2,001 records of types
# (str, int, float, float) under one header line, and the error pinned.
BAD_TOKEN_PINS = [
    ([(0, 2, "x")], ("expected a finite float, got 'x' (line 2, column 10)", 2, 10)),
    ([(1000, 1, "1.5")], ("expected a 64-bit integer, got '1.5' (line 1002, column 11)", 1002, 11)),
    ([(2000, 3, "nan")], ("expected a finite float, got 'nan' (line 2002, column 34)", 2002, 34)),
    ([(700, 3, "bad"), (700, 1, "y")], ("expected a 64-bit integer, got 'y' (line 702, column 10)",
                                        702, 10)),
    ([(900, 3, "bad"), (901, 1, "y")], ("expected a finite float, got 'bad' (line 902, column 20)",
                                        902, 20)),
]


@pytest.mark.parametrize("faults, expected", BAD_TOKEN_PINS)
def test_first_bad_token_in_row_major_order(faults, expected):
    # The first bad token, row by row and then column by column, is found by
    # halving the columns in C: a few dozen parses, not one per token.
    rows = [[f"r{i}.png", str(i), repr(i / 3), repr(-i / 7)] for i in range(2001)]
    for row, column, token in faults:
        rows[row][column] = token
    text = "# header\n" + "".join(" ".join(row) + "\n" for row in rows)
    types = (str, int, float, float)
    parses = []
    with mock.patch.object(textio, "_numbers", side_effect=lambda *a: parses.append(1) or
                           NUMBERS(*a)):
        assert outcome(lambda: textio.table(text, types)) == expected
    assert len(parses) < 40
    assert_table_matches_oracle(text, types, textio._SLICE)


NUMBERS = textio._numbers


# --------------------------------------------------------------------------
# The C-speed paths: table() parses a slice with np.loadtxt when it can
# vouch for the result, and lines() formats "%d" and "%.6f" as bytes.
# --------------------------------------------------------------------------

# Tokens that np.loadtxt and Python's float/int read differently, each in
# an int and a float column; the outcome is the one of the line-by-line
# reader, pinned: (values of the second column) or (message, line, column).
LOADTXT_PINS = [
    ("1_0", int, [2, 2, 2, 10]),
    ("1_0", float, [2.0, 2.0, 2.0, 10.0]),
    ("0x1", int, ("expected a 64-bit integer, got '0x1' (line 4, column 3)", 4, 3)),
    ("0x1", float, ("expected a finite float, got '0x1' (line 4, column 3)", 4, 3)),
    ("+inf", int, ("expected a 64-bit integer, got '+inf' (line 4, column 3)", 4, 3)),
    ("+inf", float, ("expected a finite float, got '+inf' (line 4, column 3)", 4, 3)),
    ("1.0", int, ("expected a 64-bit integer, got '1.0' (line 4, column 3)", 4, 3)),
    ("1.0", float, [2.0, 2.0, 2.0, 1.0]),
    ("1e5", int, ("expected a 64-bit integer, got '1e5' (line 4, column 3)", 4, 3)),
    ("+3", int, [2, 2, 2, 3]),
    ("-0", float, [2.0, 2.0, 2.0, -0.0]),
    ("7\x1f", int, [2, 2, 2, 7]),
    ("\x1f7", float, [2.0, 2.0, 2.0, 7.0]),
    ("\x00", int, ("expected a 64-bit integer, got '\\x00' (line 4, column 3)", 4, 3)),
    ("7\x00", float, ("expected a finite float, got '7\\x00' (line 4, column 3)", 4, 3)),
]


@pytest.mark.parametrize("token, kind, expected", LOADTXT_PINS)
def test_tokens_loadtxt_reads_differently(token, kind, expected):
    text = "1 2\n" * 3 + f"5 {token}\n"
    got = outcome(lambda: textio.table(text, (kind, kind)))
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert [repr(v) for v in got[0][1][0]] == [repr(v) for v in expected]
        assert got[0][1][1] == np.dtype(ORACLE_KINDS[kind][0])


def test_non_ascii_slice_never_reaches_loadtxt():
    # np.loadtxt of numpy 2.4 kills the process with SIGSEGV on this line.
    # A child process reads it (and other non-ASCII text) through every
    # kind of table, first with the real loadtxt, then with one that exits
    # if it is handed a non-ASCII line; the child must exit cleanly.
    script = """
import sys
import numpy as np
from trajkit import textio
from trajkit.errors import ParseError

def read_all():
    for text in ["\\U000bfff2\\x8a\\n", "1 2\\n\\u00e9 3\\n", "1\\u20002\\n", "a.png 1 2\\n\\u2028"]:
        for types in [(int, int), (str, int, int), (float, float), (str, float, float)]:
            try:
                textio.table(text, types)
            except ParseError:
                pass

read_all()
loadtxt = np.loadtxt

def ascii_only(lines, *args, **kwargs):
    if not all(line.isascii() for line in lines):
        sys.exit(3)
    return loadtxt(lines, *args, **kwargs)

np.loadtxt = ascii_only
read_all()
"""
    src = str(Path(textio.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


LOADTXT = np.loadtxt


def test_loadtxt_path_taken_and_equal():
    # A clean slice goes through loadtxt in one call; a slice with a "#", a
    # blank line or a non-finite float goes line by line, with the same
    # columns as the oracle.
    text = "".join(f"r{i} {i} {i / 3!r} {-i}\n" for i in range(500))
    calls = []
    with mock.patch.object(np, "loadtxt", side_effect=lambda *a, **k: calls.append(1) or
                           LOADTXT(*a, **k)):
        for extra in ["", "# h\n", "\n", "r 1 inf 2\n"]:
            assert_table_matches_oracle(text + extra, (str, int, float, int), 1 << 16)
    # The slice with a "#" does not call it; the one with a blank line does,
    # and is refused by its row count.
    assert len(calls) == 3


@pytest.mark.parametrize("types", [(int, str), (float, str, int)])
def test_loadtxt_reads_a_name_column_anywhere(types):
    # A str column last or in the middle is an object field: each clean
    # slice takes one loadtxt call, and no line goes line by line.
    cells = {int: lambda i: str(-i), float: lambda i: repr(i / 3), str: lambda i: f"r{i}.png"}
    text = "".join(" ".join(cells[kind](i) for kind in types) + "\n" for i in range(2000))
    with mock.patch.object(textio, "_SLICE", 1 << 12):
        slices = sum(1 for _ in textio._slices(text))
    calls = []
    with (mock.patch.object(np, "loadtxt", side_effect=lambda *a, **k: calls.append(1) or
                            LOADTXT(*a, **k)),
          mock.patch.object(textio, "to_columns", side_effect=AssertionError("line by line"))):
        assert_table_matches_oracle(text, types, 1 << 12)
    assert slices > 1 and len(calls) == slices


@pytest.mark.parametrize("text, types, message", [
    # Totals that are a whole number of records, so no count of a slice's
    # tokens finds the bad line: loadtxt's width check refuses the slice.
    ("a 1 2 3 4 5 6 7\n\n", (str, float, float, float), "expected 4 fields, got 8 (line 1)"),
    ("a 1 2 3 4\nb 1 2\n", (str, float, float, float), "expected 4 fields, got 5 (line 1)"),
    ("1\n2 a b\n", (float, str), "expected 2 fields, got 1 (line 1)"),
    ("1 2\n\n3 4 5\n", (int, int), "expected 2 fields, got 3 (line 3)"),
])
def test_field_counts_around_loadtxt(text, types, message):
    with pytest.raises(ParseError, match=exactly(message)):
        textio.table(text, types)


def fixed_oracle(template, columns):
    rows = zip(*(column.tolist() for column in columns))
    return "".join(template % row for row in rows)


# Exact ties of "%.6f": x * 1e6 is a half-integer exactly when x is an odd
# multiple of 1/128.
TIES = st.integers(-2**40, 2**40).map(lambda j: (2 * j + 1) / 128)
NEAR_TIES = st.tuples(st.integers(0, 2**31), st.sampled_from([1e-6, 1e6]),
                      st.sampled_from([1, -1])).map(lambda t: t[2] * (t[0] + 0.5) / t[1])
LIMIT = 2.0 ** 42 / 1e6
EDGES = st.sampled_from([
    0.0, -0.0, -1e-300, -5e-324, 5e-324, -4e-7, -5e-7, -5.000001e-7, 4.999999e-7, 9.9999995,
    -999999.9999995, LIMIT, -LIMIT, np.nextafter(LIMIT, 0), np.nextafter(-LIMIT, 0),
    np.nextafter(LIMIT, np.inf), 2.0 ** 42, -2.0 ** 42, 2.0 ** 42 + 1, 2.0 ** 53, 1e300,
    float("nan"), float("inf"), float("-inf"),
    # x * 1e6 at 2**32 - 1 and 2**32, and on either side of each power of ten.
    4294.967295, 4294.967296, -4294.967295, -4294.967296,
    *(sign * (10 ** k + d) / 1e6 for k in range(13) for d in (-1, 0) for sign in (1, -1)),
])
ADVERSARIAL_FLOATS = st.one_of(
    TIES, NEAR_TIES, EDGES, st.floats(-1e7, 1e7), st.floats(-1e-5, 1e-5),
    st.floats(allow_nan=True, allow_infinity=True),
)
INT64 = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-1001, 1001),
                  st.sampled_from([-2**63, 2**63 - 1, -1, 0, 999, 1000, -10**18, 10**18,
                                   2**32 - 1, 2**32, -(2**32), -(2**32 - 1),
                                   *(10**k + d for k in range(1, 19) for d in (-1, 0))]))


@given(data=st.data(), block=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_lines_matches_percent_formatting(data, block):
    n = data.draw(st.integers(1, 40))
    fields = data.draw(st.lists(st.sampled_from(["%d", "%.6f"]), min_size=1, max_size=4))
    seps = data.draw(st.lists(st.sampled_from([" ", "", "\t", " | ", "row ", "\u2192 ", "%% "]),
                              min_size=len(fields) + 1, max_size=len(fields) + 1))
    template = "".join(sep + field for sep, field in zip(seps, fields)) + seps[-1] + "\n"
    columns = [
        np.array(data.draw(st.lists(INT64 if field == "%d" else ADVERSARIAL_FLOATS,
                                    min_size=n, max_size=n)),
                 dtype=np.int64 if field == "%d" else np.float64)
        for field in fields
    ]
    with mock.patch.object(textio, "_WRITE_BLOCK", block):
        assert textio.lines(template, columns) == fixed_oracle(template, columns)


def test_lines_rounds_every_tie_as_python():
    # Every odd multiple of 1/128 up to 2**16 / 128 (each an exact tie),
    # with the floats one unit in the last place on either side of it.
    ties = (2 * np.arange(-2**15, 2**15) + 1) / 128
    values = np.concatenate([ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf)])
    values = np.concatenate([values, values * 1e-6, values * 1e3])
    ids = np.arange(len(values), dtype=np.int64) - len(values) // 2
    template = "%d %.6f\n"
    assert textio.lines(template, [ids, values]) == fixed_oracle(template, [ids, values])


def test_lines_other_templates_match_percent_formatting():
    # Names and "%.6f" take the byte path; "%.12g" does too, but not for a block
    # holding a value below 1e-4 (-2.5e-7 here), and columns of other dtypes go
    # row by row. All write what "%" writes.
    names, values = ("a", "b"), np.array([0.1, -2.5e-7])
    assert textio.lines("%s %.6f\n", [names, values]) == "a 0.100000\nb -0.000000\n"
    assert textio.lines("%.12g\n", [values]) == "0.1\n-2.5e-07\n"
    assert textio.lines("%d\n", [np.array([True, False])]) == "1\n0\n"
    assert textio.lines("%.6f\n", [np.array([1, 2], np.int32)]) == "1.000000\n2.000000\n"


# The cells and dtype of a column after the leading "%s" of names.
NAMED_ROW_FIELDS = {"%d": (INT64, np.int64), "%.6f": (ADVERSARIAL_FLOATS, np.float64),
                    "%s": (st.text(max_size=6), None)}


@given(data=st.data(), block=st.integers(1, 9))
@settings(max_examples=200, deadline=None)
def test_lines_with_a_name_column_matches_percent_formatting(data, block):
    # A leading "%s" over names takes the byte path with the rest of the line,
    # unless its block holds a non-ASCII name, a NUL, or a float of 2**42 / 1e6
    # or more, or a nan. A line break in the template or a name changes nothing.
    n = data.draw(st.integers(1, 40))
    fields = data.draw(st.lists(st.sampled_from(list(NAMED_ROW_FIELDS)), min_size=1, max_size=4))
    seps = data.draw(st.lists(st.sampled_from([" ", "", "\t", " | ", "\u2192 ", "\x0c", "\r"]),
                              min_size=len(fields) + 1, max_size=len(fields) + 1))
    template = "%s" + "".join(sep + field for sep, field in zip(seps, fields)) + seps[-1] + "\n"
    columns = [tuple(data.draw(st.lists(st.text(max_size=6), min_size=n, max_size=n)))]
    for field in fields:
        cells, dtype = NAMED_ROW_FIELDS[field]
        cells = data.draw(st.lists(cells, min_size=n, max_size=n))
        columns.append(tuple(cells) if dtype is None else np.array(cells, dtype))
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with mock.patch.object(textio, "_WRITE_BLOCK", block):
        assert textio.lines(template, columns) == "".join(template % row for row in rows)


def test_names_head_the_byte_path():
    names, values = ("a.png", "b\nc.png"), np.array([0.1, -2.5e-7])
    with mock.patch.object(textio, "_format", wraps=textio._format) as formatted:
        assert textio.lines("%s %.6f\n", [names, values]) == "a.png 0.100000\nb\nc.png -0.000000\n"
    assert formatted.call_count == 1


def test_names_of_equal_and_unequal_widths_in_one_call():
    # Blocks of three names: of one width (read as a view of the joined bytes),
    # of unequal widths, and of unequal widths whose joined length is a
    # multiple of three; all by the byte path, as "%" writes them.
    names = ("ab", "cd", "ef", "a", "bcd", "", "abc", "d", "ef", "", "", "", "x\ny", "z\rw", "q.p")
    values = np.arange(len(names)) - 7.25
    template = "%s %.6f\n"
    results = []

    def recorded(pieces, cuts):
        results.append(format_block(pieces, cuts))
        return results[-1]

    format_block = textio._format
    with mock.patch.object(textio, "_WRITE_BLOCK", 3), \
            mock.patch.object(textio, "_format", recorded):
        written = textio.lines(template, [names, values])
    assert written == "".join(template % row for row in zip(names, values.tolist()))
    assert len(results) == 5 and None not in results


# Floats for "%.12g": exact ties at the 12th significant digit (an integer of
# 13 - j digits plus an odd multiple of 2**-j, exact in binary), floats near
# a tie, powers of ten and their neighbours, [1e-4, 1e12) by decade and its
# edges, and values the byte path leaves to "%".
G12_TIES = st.integers(1, 12).flatmap(lambda j: st.builds(
    lambda k, f: k + (2 * f + 1) / 2 ** j,
    st.integers(10 ** (12 - j), 10 ** (13 - j) - 1), st.integers(0, 2 ** (j - 1) - 1)))
G12_NEAR_TIES = st.builds(lambda m, e: (m + 0.5) * 10.0 ** (e - 11),
                          st.integers(10 ** 11, 10 ** 12 - 1), st.integers(-4, 11))
POWERS = [10.0 ** k for k in range(-6, 14)]
G12_EDGES = st.sampled_from([
    *POWERS, *np.nextafter(POWERS, 0).tolist(), *np.nextafter(POWERS, np.inf).tolist(),
    1e-4, np.nextafter(1e-4, 0), 9.99999999999995e-05, np.nextafter(1e12, 0),
    999999999999.9999, 999999999999.5, np.nextafter(999999999999.5, 0), 0.0, -0.0, 5e-324, 2.2e-308,
    1e-310, float("nan"), float("inf"), float("-inf"),
])
G12_FLOATS = st.builds(
    lambda x, sign: sign * x,
    st.one_of(G12_TIES, G12_NEAR_TIES, G12_EDGES, st.floats(1e-4, 1e12),
              st.integers(-4, 11).flatmap(lambda e: st.floats(10.0 ** e, 10.0 ** (e + 1)))),
    st.sampled_from([1.0, -1.0]))
# Names: mostly ones the byte path takes (ASCII without NUL, line breaks
# included), and some that send their block to "%".
NAMES = st.one_of(
    st.text(st.characters(min_codepoint=1, max_codepoint=127), max_size=8),
    st.text(max_size=6), st.text(max_size=5).map(lambda name: name + "\0"),
)
BYTE_FIELD_CELLS = {"%d": (INT64, np.int64), "%.6f": (ADVERSARIAL_FLOATS, np.float64),
                    "%.12g": (G12_FLOATS, np.float64), "%s": (NAMES, None)}


@given(data=st.data(), block=st.integers(1, 9))
@settings(max_examples=300, deadline=None)
def test_lines_with_g12_and_inner_names_matches_percent_formatting(data, block):
    # "%.12g" and a "%s" that does not lead the line, among other byte fields.
    n = data.draw(st.integers(1, 40))
    others = data.draw(st.lists(st.sampled_from(list(BYTE_FIELD_CELLS)), max_size=3))
    fields = data.draw(st.permutations(["%.12g", "%s", *others]))
    seps = data.draw(st.lists(st.sampled_from([" ", "", "\t", " | ", "\u2192 ", "%% "]),
                              min_size=len(fields), max_size=len(fields)))
    template = "residual " + "".join(f + sep for f, sep in zip(fields, seps)) + "\n"
    columns = []
    for field in fields:
        cells, dtype = BYTE_FIELD_CELLS[field]
        cells = data.draw(st.lists(cells, min_size=n, max_size=n))
        columns.append(tuple(cells) if dtype is None else np.array(cells, dtype))
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    with mock.patch.object(textio, "_WRITE_BLOCK", block):
        assert textio.lines(template, columns) == "".join(template % row for row in rows)


def test_g12_byte_path_at_decade_edges():
    # Each power of ten in [1e-4, 1e12), its neighbours one and two ulps away and
    # values near its 12-digit ties, of either sign: one block, all by _format.
    powers = 10.0 ** np.arange(-4, 13)
    values = np.concatenate([np.nextafter(np.nextafter(powers, 0), 0), np.nextafter(powers, 0),
                             powers, np.nextafter(powers, np.inf), powers * (1 + 5e-12),
                             powers * (1 - 5e-13), powers * (1 - 5e-12)])
    values = values[(values >= 1e-4) & (values < 999999999999.5)]  # below "1e+12"
    values = np.concatenate([values, -values])
    expected = "".join("%.12g\n" % v for v in values.tolist())
    assert textio._format(["", "%.12g", "\n"], [values]) == expected
    assert textio.lines("%.12g\n", [values]) == expected


def test_g12_exponent_off_by_one_is_taken_from_python():
    # A log10 that rounded across a power of ten would give an exponent one
    # off: m then lies outside [1e11, 1e12), and "%.11e" gives m and e.
    values = 10.0 ** np.random.default_rng(5).uniform(-4, 12, 200)  # 17 significant digits
    values = np.concatenate([values, -values, 10.0 ** np.arange(-4, 12)])
    log10 = np.log10
    for off in (1, -1):
        with mock.patch.object(np, "log10", lambda x: log10(x) + off):
            assert textio._format(["", "%.12g", "\n"], [values]) == "".join(
                "%.12g\n" % v for v in values.tolist())


FORMAT = textio._format


def test_benchmark_writers_take_the_byte_path(worked_sparse):
    # The README walkthrough (capture, simrecon and align with --seed 7), written in
    # blocks of 128 rows: every block of every writer the benchmark times is
    # formatted by _format, and none falls back to "%".
    dense = poseio.read_dense(poseio.write_dense(trajectory.densify(worked_sparse)))
    xy = dense.protagonist[:, :2]
    box = simworld.Box((*(xy.min(axis=0) - 25.0), 0.0), (*(xy.max(axis=0) + 25.0), 15.0))
    world = simworld.generate_world(7, 500, box)
    manifest, obs = simworld.retrace(dense, world, simworld.default_intrinsics(),
                                     conditions.ConditionSet(), 1.0, 7)
    gauge = align.SimilarityTransform.from_z_rotation(0.5, 45, (10, -3, 2))
    recon = simworld.simulate_reconstruction(manifest, gauge, 0.05, 0.2, 5, 7)
    report = align.evaluate(recon, manifest, align.RansacParams(seed=7))
    writers = [
        (poseio.write_dense, dense, len(dense)),
        (poseio.write_manifest, manifest, len(manifest.names)),
        (simworld.write_observations, obs, obs.total_observations()),
        (simworld.write_world, world, len(world.landmarks)),
        (poseio.write_reconstruction, recon, len(recon.names)),
        (simworld.points_to_ply, world.landmarks, len(world.landmarks)),
        (poseio.write_report, report, len(report.names)),
    ]
    for writer, value, rows in writers:
        blocks = []
        with (mock.patch.object(textio, "_WRITE_BLOCK", 128),
              mock.patch.object(textio, "_format", side_effect=lambda *a: blocks.append(FORMAT(*a))
                                or blocks[-1])):
            writer(value)
        assert len(blocks) == -(-rows // 128) > 1, writer.__name__
        assert None not in blocks, writer.__name__


COLUMNS = textio.to_columns


@pytest.mark.parametrize("fault", [None, 0, -1])
def test_leading_headers_are_one_slice(fault):
    # Header lines that span three slices, then records: the headers are a slice
    # of their own, every slice of records takes one loadtxt call, and no record
    # goes line by line.
    headers = "".join(f"{' ' * (i % 2)}# key{i} {i}\n" for i in range(1200))
    lines = [f"r{i}.png {i} {i / 3!r} {-i}\n" for i in range(2000)]
    if fault is not None:
        lines[fault] = "r.png 1 x 2\n"
    records = "".join(lines)
    with mock.patch.object(textio, "_SLICE", 1 << 12):
        record_slices = sum(1 for _ in textio._slices(records))
    assert len(headers) > 3 << 12 and record_slices > 3
    calls, line_by_line = [], []
    with (mock.patch.object(np, "loadtxt", side_effect=lambda *a, **k: calls.append(1) or
                            LOADTXT(*a, **k)),
          mock.patch.object(textio, "to_columns", side_effect=lambda text, tokens, *a:
                            line_by_line.extend(tokens) or COLUMNS(text, tokens, *a))):
        assert_table_matches_oracle(headers + records, (str, int, float, int), 1 << 12)
    if fault is None:
        assert len(calls) == record_slices and not line_by_line
