"""Tests of the shared record grammar, and fuzzing of every text reader."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajkit import conditions, poseio, simworld, textio
from trajkit.errors import ParseError, TrajkitError

READERS = {
    "sparse vertices": lambda text: poseio.read_sparse(text, "1\n"),
    "sparse orders": lambda text: poseio.read_sparse("0 0\n1 0\n2 0\n", text),
    "dense": poseio.read_dense,
    "manifest": poseio.read_manifest,
    "reconstruction": poseio.read_reconstruction,
    "report": poseio.read_report,
    "world": simworld.read_world,
    "observations": simworld.read_observations,
    "degradation table": conditions.read_degradation_table,
}

# One valid line of each format, with the index of a numeric field in it.
VALID_LINE = {
    "sparse vertices": ("0 0", 1),
    "dense": ("1 2 3 4 5 6 7 8 9", 4),
    "manifest": ("a.png 0 0 0 0 0 0", 3),
    "reconstruction": ("a.png 1 2 3", 2),
    "world": ("0 0.5 0.5 0.5", 2),
    "observations": ("0 0 1.0 2.0", 3),
    "degradation table": ("rain 1.5", 1),
}
WORLD_HEADERS = "# seed 1\n# bounds 0 0 0 1 1 1\n"


class TestRecords:
    def test_headers_blank_lines_and_crlf(self):
        data, headers = textio.records("# k v\r\n\r\n 1\t2 \r\n  #x\n3 4\n")
        assert data.texts == [" 1\t2 ", "3 4"]
        assert list(data.line_nos) == [3, 5]
        assert [text.split() for text in headers.texts] == [["k", "v"], ["x"]]
        assert list(headers.line_nos) == [1, 4]

    def test_table_spans_blocks(self):
        # More records than one conversion block holds; the error is the
        # first bad token in reading order, not in block or column order.
        lines = [f"r{i} {i} {i / 2}" for i in range(10_000)]
        data, _ = textio.records("\n".join(lines))
        names, ints, floats = textio.table(data, (str, int, float))
        assert names[-1] == "r9999" and len(names) == 10_000
        assert ints.tolist() == list(range(10_000))
        lines[9000] = "r9000 x 0"
        lines[5000] = "r5000 5000 nan"
        data, _ = textio.records("\n".join(lines))
        with pytest.raises(ParseError) as exc:
            textio.table(data, (str, int, float))
        assert (exc.value.line, exc.value.column) == (5001, 12)

    def test_wrong_field_count(self):
        data, _ = textio.records("1 2\n\n1 2 3\n")
        with pytest.raises(ParseError) as exc:
            textio.table(data, (int, int))
        assert str(exc.value) == "expected 2 fields, got 3 (line 3)"
        assert exc.value.line == 3

    def test_field_count_checked_per_line(self):
        # Three fields then one make the four of two lines, but line 1 has too many.
        data, _ = textio.records("1 2 3\n1\n")
        with pytest.raises(ParseError) as exc:
            textio.table(data, (int, int))
        assert str(exc.value) == "expected 2 fields, got 3 (line 1)"

    def test_dense_field_count_checked_per_line(self):
        # 10 + 8 fields are two lines' worth of 9; read by the total alone,
        # the file would load with every value after field 9 shifted.
        text = " ".join(["1"] * 10) + "\n" + " ".join(["1"] * 8) + "\n"
        with pytest.raises(ParseError) as exc:
            poseio.read_dense(text)
        assert str(exc.value) == "expected 9 fields, got 10 (line 1)"

    def test_table_types(self):
        data, _ = textio.records("a 1 2.5\nb -3 4\n")
        names, ints, floats = textio.table(data, (str, int, float))
        assert names == ("a", "b")
        assert ints.dtype == np.int64 and ints.tolist() == [1, -3]
        assert floats.tolist() == [2.5, 4.0]

    def test_empty_table(self):
        data, _ = textio.records("\n# only a header\n")
        names, values = textio.table(data, (str, float))
        assert names == () and values.shape == (0,)

    def test_first_bad_token_in_reading_order(self):
        # Column 3 goes bad on line 2 and column 2 only on line 3; the
        # error names line 2.
        data, _ = textio.records("1 2 3\n1 2 x\n1 y 3\n")
        with pytest.raises(ParseError) as exc:
            textio.table(data, (int, int, float))
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
        data, _ = textio.records(f"0 0\n\t0  {token}\n")
        with pytest.raises(ParseError, match=reason) as exc:
            textio.table(data, (kind, kind))
        assert (exc.value.line, exc.value.column) == (2, 5)

    def test_header_value_column(self):
        _, headers = textio.records("  # scale x\n")
        with pytest.raises(ParseError) as exc:
            textio.row(headers, 0, float, start=1)
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
    "degradation table": ["rain 1.5", "night 0.3"],
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
