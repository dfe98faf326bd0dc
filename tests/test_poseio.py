"""Round-trip and error-handling tests for the pose file formats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import poseio, simworld, textio
from trajkit.errors import InvariantViolation, ParseError, TrajkitError

from conftest import (
    WORKED_ORDER_TEXT,
    WORKED_ORDERS,
    WORKED_VERTEX_TEXT,
    WORKED_VERTICES,
    exactly,
)


def quantized(rng: np.random.Generator, shape, span=1000.0) -> np.ndarray:
    """Random values exactly representable at six fractional digits."""
    return np.round(rng.uniform(-span, span, shape), 6)


class TestReadSparse:
    def test_two_vertices(self):
        sparse = tk.read_sparse("0 0\n1 0\n", "1\n2\n")
        assert len(sparse.vertices) == 2
        assert tk.expand_visitation(sparse) == [0, 1]

    def test_worked_example_orders_round_trip(self):
        sparse = tk.read_sparse(WORKED_VERTEX_TEXT, WORKED_ORDER_TEXT)
        assert sparse.orders == WORKED_ORDERS
        np.testing.assert_array_equal(sparse.vertices, WORKED_VERTICES)

    def test_bad_order_token_reports_position(self):
        with pytest.raises(ParseError) as exc:
            tk.read_sparse("0 0\n1 0\n", "1\nx\n")
        assert exc.value.line == 2
        assert exc.value.column == 1

    def test_bad_vertex_float(self):
        with pytest.raises(ParseError) as exc:
            tk.read_sparse("0 oops\n", "1\n")
        assert exc.value.line == 1
        assert exc.value.column == 3

    def test_vertex_wrong_field_count(self):
        with pytest.raises(ParseError, match=exactly("expected 2 fields, got 3 (line 1)")):
            tk.read_sparse("0 0 0\n", "1\n")

    def test_whitespace_runs_and_crlf(self):
        sparse = tk.read_sparse("0\t \t0\r\n1    0\r\n", "1\r\n2\r\n")
        assert tk.expand_visitation(sparse) == [0, 1]

    def test_more_order_lines_than_vertices(self):
        message = "order sets reference vertex 2, but only 1 vertices exist"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.read_sparse("0 0\n", "1\n2\n")

    def test_step_gap_rejected_on_read(self):
        message = "missing visitation step 2 (steps must cover 1..S without gaps)"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.read_sparse("0 0\n1 0\n", "1\n3\n")

    def test_fewer_order_lines_leave_vertices_unvisited(self):
        sparse = tk.read_sparse("0 0\n1 0\n", "1 2\n")
        assert tk.expand_visitation(sparse) == [0, 0]

    def test_blank_order_line_is_positional(self):
        # Line i belongs to vertex i: a blank line skips that vertex
        # instead of shifting the ones after it.
        sparse = tk.read_sparse("0 0\n1 0\n2 0\n", "1\n\n2\n")
        assert sparse.orders == ((1,), (), (2,))
        assert tk.expand_visitation(sparse) == [0, 2]

    def test_comment_lines(self):
        # A '#' line is skipped in the vertex file and, like a blank line,
        # leaves its vertex unvisited in the positional order file.
        sparse = tk.read_sparse("# plan\n0 0\n1 0\n2 0\n", "1\n# skipped\n2\n")
        assert sparse.orders == ((1,), (), (2,))

    def test_empty_vertex_file(self):
        with pytest.raises(ParseError):
            tk.read_sparse("", "1\n")


class TestDenseRoundTrip:
    def test_zero_pose_line_with_default_eye_offset(self):
        dense = tk.DenseTrajectory(
            [[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.75]], [[0.0, 0.0, 0.0]]
        )
        assert tk.write_dense(dense) == (
            "0.000000 0.000000 0.000000 0.000000 0.000000 0.750000 "
            "0.000000 0.000000 0.000000\n"
        )

    def test_write_read_write_byte_identical(self):
        rng = np.random.default_rng(3)
        n = 10_000
        dense = tk.DenseTrajectory(
            rng.uniform(-1000, 1000, (n, 3)),
            rng.uniform(-1000, 1000, (n, 3)),
            rng.uniform(-360, 360, (n, 3)),
        )
        first = tk.write_dense(dense)
        second = tk.write_dense(tk.read_dense(first))
        assert first == second

    def test_read_write_identity_on_quantized_values(self):
        rng = np.random.default_rng(4)
        dense = tk.DenseTrajectory(
            quantized(rng, (50, 3)), quantized(rng, (50, 3)), quantized(rng, (50, 3))
        )
        back = tk.read_dense(tk.write_dense(dense))
        np.testing.assert_array_equal(back.protagonist, dense.protagonist)
        np.testing.assert_array_equal(back.camera, dense.camera)
        np.testing.assert_array_equal(back.rotation, dense.rotation)

    def test_wrong_field_count(self):
        good = "1 2 3 4 5 6 7 8 9\n"
        with pytest.raises(ParseError) as exc:
            tk.read_dense(good + "1 2 3 4 5 6 7 8\n")
        assert str(exc.value) == "expected 9 fields, got 8 (line 2)"
        assert exc.value.line == 2

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            tk.read_dense("\n\n")

    def test_whitespace_and_crlf_tolerated(self):
        dense = tk.read_dense("1 \t2  3\t4 5 6 7 8 9\r\n")
        assert dense.protagonist[0].tolist() == [1.0, 2.0, 3.0]

    @given(st.lists(
        st.tuples(*(st.integers(min_value=-10**9, max_value=10**9) for _ in range(9))),
        min_size=1, max_size=20,
    ))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, rows):
        data = np.array(rows, dtype=float) / 1e6  # six-decimal grid
        dense = tk.DenseTrajectory(data[:, 0:3], data[:, 3:6], data[:, 6:9])
        text = tk.write_dense(dense)
        back = tk.read_dense(text)
        np.testing.assert_array_equal(back.camera, dense.camera)
        assert tk.write_dense(back) == text


class TestManifest:
    def test_single_record_line_format(self):
        manifest = tk.CaptureManifest(("frame_000000.png",), [(1, 2, 3)], [(0, 0, 90)])
        text = tk.write_manifest(manifest)
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert data_lines == [
            "frame_000000.png 1.000000 2.000000 3.000000 0.000000 0.000000 90.000000"
        ]

    def test_383_records_order_preserved(self):
        names = tuple(f"frame_{i:06d}.png" for i in range(383))
        manifest = tk.CaptureManifest(
            names, [(float(i), 0.0, 0.0) for i in range(383)], np.zeros((383, 3))
        )
        text = tk.write_manifest(manifest)
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 383
        back = tk.read_manifest(text)
        assert back.names == names
        assert back == manifest

    def test_conditions_round_trip_through_header(self):
        cond = tk.ConditionSet(tk.Weather.SNOW, tk.TimeOfDay.NIGHT, 0.25, 1.0)
        manifest = tk.CaptureManifest(("a.png",), [(0, 0, 0)], [(0, 0, 0)], cond)
        back = tk.read_manifest(tk.write_manifest(manifest))
        assert back.conditions == cond

    def test_duplicate_name_on_read(self):
        text = "a.png 0 0 0 0 0 0\na.png 1 1 1 0 0 0\n"
        with pytest.raises(InvariantViolation) as exc:
            tk.read_manifest(text)
        assert str(exc.value) == "duplicate image name 'a.png' (line 2)"

    def test_duplicate_name_on_construct(self):
        with pytest.raises(InvariantViolation, match=exactly("duplicate image name 'a.png'")):
            tk.CaptureManifest(("a.png", "a.png"), np.zeros((2, 3)), np.zeros((2, 3)))

    def test_duplicate_name_reported_before_a_bad_density(self):
        text = "# vehicle_density 2\na.png 0 0 0 0 0 0\na.png 1 1 1 0 0 0\n"
        with pytest.raises(InvariantViolation, match=exactly("duplicate image name 'a.png' (line 3)")):
            tk.read_manifest(text)
        message = "vehicle_density must be within [0, 1], got 2.0"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.read_manifest(text.replace("a.png 1", "b.png 1"))

    def test_unknown_comment_lines_ignored(self):
        text = "# some free-form note\n# weather rain\na.png 0 0 0 0 0 0\n"
        manifest = tk.read_manifest(text)
        assert manifest.conditions.weather is tk.Weather.RAIN

    def test_unknown_weather_value_rejected(self):
        with pytest.raises(ParseError):
            tk.read_manifest("# weather hail\na.png 0 0 0 0 0 0\n")

    def test_record_wrong_field_count(self):
        with pytest.raises(ParseError, match=exactly("expected 7 fields, got 6 (line 1)")):
            tk.read_manifest("a.png 0 0 0 0 0\n")

    def test_name_with_whitespace_rejected(self):
        with pytest.raises(ValueError):
            tk.CaptureManifest(("bad name.png",), [(0, 0, 0)], [(0, 0, 0)])

    def test_columns_are_read_only_float_arrays(self):
        manifest = tk.CaptureManifest(["a.png", "b.png"], [(0, 0, 0), (1, 2, 3)], np.zeros((2, 3)))
        assert manifest.names == ("a.png", "b.png")
        for column in (manifest.camera, manifest.rotation):
            assert column.shape == (2, 3) and column.dtype == np.float64
            assert not column.flags.writeable

    @pytest.mark.parametrize(
        "names, camera, rotation",
        [
            (("a.png",), [(0, 0)], [(0, 0, 0)]),
            (("a.png",), [(0, 0, 0)], [(0, float("nan"), 0)]),
            (("a.png", "b.png"), [(0, 0, 0)], [(0, 0, 0)]),
            (("#a.png",), [(0, 0, 0)], [(0, 0, 0)]),
            (("",), [(0, 0, 0)], [(0, 0, 0)]),
        ],
    )
    def test_malformed_columns_rejected(self, names, camera, rotation):
        with pytest.raises(ValueError):
            tk.CaptureManifest(names, camera, rotation)

    def test_round_trip_byte_identity(self):
        rng = np.random.default_rng(8)
        poses = [(quantized(rng, 3), quantized(rng, 3, span=180)) for _ in range(500)]
        manifest = tk.CaptureManifest(
            tuple(f"frame_{i:06d}.png" for i in range(500)),
            [camera for camera, _ in poses], [rotation for _, rotation in poses],
            tk.ConditionSet(tk.Weather.RAIN),
        )
        text = tk.write_manifest(manifest)
        assert tk.write_manifest(tk.read_manifest(text)) == text
        assert tk.read_manifest(text) == manifest


class TestReconstruction:
    def test_single_entry(self):
        recon = tk.read_reconstruction("a.png 0 0 0\n")
        assert recon.names == ("a.png",)
        assert recon.positions.tolist() == [[0.0, 0.0, 0.0]]

    def test_names_need_not_match_any_manifest(self):
        # Matching happens downstream; unmatched names parse fine here.
        recon = tk.read_reconstruction("unrelated_view.jpg 1 2 3\n")
        assert list(recon.names) == ["unrelated_view.jpg"]

    def test_empty_file_is_valid_empty_set(self):
        recon = tk.read_reconstruction("")
        assert recon.names == ()
        assert recon.positions.shape == (0, 3)

    def test_duplicate_rejected(self):
        message = "duplicate image name 'a.png' (line 2)"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.read_reconstruction("a.png 0 0 0\na.png 1 1 1\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match=exactly("expected 4 fields, got 3 (line 1)")):
            tk.read_reconstruction("a.png 0 0\n")

    def test_duplicate_on_construct(self):
        with pytest.raises(InvariantViolation, match=exactly("duplicate image name 'a.png'")):
            tk.ReconstructedSet(("a.png", "a.png"), np.zeros((2, 3)))

    @pytest.mark.parametrize("name", ["bad name.png", "tab\tname.png", "#a.png", ""])
    def test_name_that_cannot_be_read_back_rejected(self, name):
        with pytest.raises(ValueError):
            tk.ReconstructedSet((name,), [(0, 0, 0)])

    @pytest.mark.parametrize("name", ["bad name.png", "tab\tname.png", "#a.png", "", " a.png",
                                      "a.png\u2028", "a\x1fb", "a\xa0b"])
    def test_bad_name_among_good_ones_rejected(self, name):
        # The one-pass test over all names finds a bad name at any place.
        message = f"image name must be one token, not a comment: {name!r}"
        with pytest.raises(ValueError, match=exactly(message)):
            tk.ReconstructedSet(("x.png", "y.png", name, "z.png"), np.zeros((4, 3)))

    def test_first_bad_name_in_order_reported(self):
        with pytest.raises(InvariantViolation, match=exactly("duplicate image name 'x.png'")):
            tk.ReconstructedSet(("x.png", "x.png", "#c"), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="'#c'"):
            tk.ReconstructedSet(("x.png", "#c", "x.png"), np.zeros((3, 3)))

    def test_name_that_is_not_a_str_rejected(self):
        with pytest.raises(AttributeError):
            tk.ReconstructedSet((5,), np.zeros((1, 3)))

    def test_unprintable_single_token_names_accepted(self):
        names = ("a\x01b", "\u00e9.png", "\u200bz", "x#")
        assert tk.ReconstructedSet(names, np.zeros((4, 3))).names == names

    def test_positions_are_a_read_only_float_array(self):
        recon = tk.ReconstructedSet(["a.png"], [(1, 2, 3)])
        assert recon.names == ("a.png",)
        assert recon.positions.dtype == np.float64 and not recon.positions.flags.writeable
        with pytest.raises(ValueError):
            tk.ReconstructedSet(("a.png", "b.png"), [(0, 0, 0)])
        with pytest.raises(ValueError):
            tk.ReconstructedSet(("a.png",), [(0, 0, float("inf"))])

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        recon = tk.ReconstructedSet(
            tuple(f"img_{i}.png" for i in range(100)), [quantized(rng, 3) for _ in range(100)]
        )
        text = tk.write_reconstruction(recon)
        assert tk.read_reconstruction(text) == recon
        assert tk.write_reconstruction(tk.read_reconstruction(text)) == text


class TestReport:
    def _report(self) -> tk.AlignmentReport:
        rng = np.random.default_rng(5)
        transform = tk.SimilarityTransform.from_z_rotation(1.5, 33.0, (4.0, -2.0, 0.5))
        residuals = rng.uniform(0, 1, 10)
        return tk.AlignmentReport(
            transform=transform,
            inlier_mask=residuals < 0.5,
            residuals_m=residuals,
            average_error_m=float(residuals.mean()),
            median_error_m=float(np.median(residuals)),
            meters_per_unit=tk.DEFAULT_METERS_PER_UNIT,
            names=tuple(f"f{i}.png" for i in range(10)),
        )

    def test_round_trip(self):
        report = self._report()
        back = poseio.read_report(tk.write_report(report))
        assert back.transform.scale == pytest.approx(report.transform.scale, abs=1e-10)
        np.testing.assert_allclose(back.transform.rotation, report.transform.rotation, atol=1e-10)
        np.testing.assert_allclose(back.transform.translation, report.transform.translation, atol=1e-10)
        np.testing.assert_allclose(back.residuals_m, report.residuals_m, atol=1e-10)
        np.testing.assert_array_equal(back.inlier_mask, report.inlier_mask)
        assert back.names == report.names
        assert back.average_error_m == pytest.approx(report.average_error_m, abs=1e-10)

    def test_serialized_rotation_still_valid(self):
        # 12-significant-digit output keeps the parsed rotation inside the
        # 1e-9 orthonormality gate of the transform type.
        back = poseio.read_report(tk.write_report(self._report()))
        assert isinstance(back.transform, tk.SimilarityTransform)

    @pytest.mark.parametrize(
        "line_no, line, column",
        [
            (1, "scale x", 7),
            (10, "residual f1.png x 1", 17),
            (10, "residual f1.png 0.5 2", 21),
            (10, "residual f1.png 0.5 yes", 21),
        ],
    )
    def test_malformed_token_names_line_and_column(self, line_no, line, column):
        lines = tk.write_report(self._report()).splitlines()
        lines[line_no - 1] = line
        with pytest.raises(ParseError) as exc:
            poseio.read_report("\n".join(lines))
        assert (exc.value.line, exc.value.column) == (line_no, column)

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match=exactly("expected 2 fields, got 3 (line 1)")):
            poseio.read_report("scale 1 2\n")

    def test_counts_in_text(self):
        text = tk.write_report(self._report())
        assert "total_count 10" in text
        assert text.count("residual ") == 10

    def test_names_stored_as_a_tuple(self):
        # A list of names writes the same bytes as their tuple, so it gives an equal report.
        report = self._report()
        listed = tk.AlignmentReport(report.transform, report.inlier_mask, report.residuals_m,
                                    report.average_error_m, report.median_error_m,
                                    report.meters_per_unit, names=list(report.names))
        assert tk.write_report(listed) == tk.write_report(report)
        assert listed == report

    def test_columns_of_unequal_length_rejected(self):
        # Written out, such a report would state total_count 2 above one residual line.
        message = "names, inlier_mask and residuals_m must have equal length"
        with pytest.raises(ValueError, match=exactly(message)):
            tk.AlignmentReport(self._report().transform, [True, False, True], [0.1, 0.2],
                               0.15, 0.15, 1.0, names=("a.png",))

    @pytest.mark.parametrize("line_no, line, message", [
        (8, "total_count 9", "total_count 9 (line 8) does not match the 10 residual lines"),
        (8, "total_count 11", "total_count 11 (line 8) does not match the 10 residual lines"),
        (7, "inlier_count 10",
         "inlier_count 10 (line 7) does not match the 6 inlier residual lines"),
    ])
    def test_count_line_must_match_residual_lines(self, line_no, line, message):
        lines = tk.write_report(self._report()).splitlines()
        assert lines[6] == "inlier_count 6"
        lines[line_no - 1] = line
        with pytest.raises(InvariantViolation, match=exactly(message)):
            poseio.read_report("\n".join(lines))

    def test_count_lines_optional_and_integer(self):
        lines = tk.write_report(self._report()).splitlines()
        without = poseio.read_report("\n".join(lines[:6] + lines[8:]))
        assert without == poseio.read_report("\n".join(lines))
        lines[7] = "total_count 10.0"
        with pytest.raises(ParseError, match=exactly(
                "expected a 64-bit integer, got '10.0' (line 8, column 13)")):
            poseio.read_report("\n".join(lines))


def oracle_read_report(text: str) -> tk.AlignmentReport:
    """read_report as it was, parsing one residual line at a time."""
    keyed, names, meters, inliers = {}, [], [], []
    for line_no, fields in textio.record_fields(text):
        if fields[0] != "residual":
            keyed[fields[0]] = line_no, fields
        elif len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", line=line_no)
        elif fields[3] not in ("0", "1"):
            raise textio.error(text, line_no, 3, f"inlier flag must be 0 or 1, got {fields[3]!r}")
        else:
            names.append(fields[1])
            meters.append(textio.numbers(text, line_no, fields[:3], float, start=2)[0])
            inliers.append(fields[3] == "1")

    def value(key: str, count: int = 1, kind: type = float) -> np.ndarray:
        if key not in keyed:
            raise ParseError(f"report has no {key!r} line")
        line_no, fields = keyed[key]
        if len(fields) != count + 1:
            raise ParseError(f"expected {count + 1} fields, got {len(fields)}", line=line_no)
        return textio.numbers(text, line_no, fields, kind, start=1)

    report = tk.AlignmentReport(
        transform=tk.SimilarityTransform(
            value("scale")[0], value("rotation", 9).reshape(3, 3), value("translation", 3)
        ),
        inlier_mask=inliers,
        residuals_m=meters,
        average_error_m=float(value("average_error_m")[0]),
        median_error_m=float(value("median_error_m")[0]),
        meters_per_unit=float(value("meters_per_unit")[0]),
        names=tuple(names),
    )
    for key, counted, what in (("inlier_count", sum(inliers), "inlier residual"),
                               ("total_count", len(names), "residual")):
        if key in keyed and (stated := value(key, kind=int)[0]) != counted:
            raise InvariantViolation(f"{key} {stated} (line {keyed[key][0]}) does not match "
                                     f"the {counted} {what} lines")
    return report


# Tokens that make a report line wrong in each way read_report checks: a flag,
# a distance, a count of fields, a key line, a comment.
REPORT_TOKENS = ["0", "1", "2", "yes", "x", "nan", "-inf", "1e400", "0.5", "-1", "10.0",
                 "residual", "scale", "total_count", "inlier_count", "a.png", "#"]


@st.composite
def faulty_reports(draw) -> str:
    """A written report with faults in its residual lines, then tokens replaced, inserted or
    deleted and lines deleted or shuffled anywhere: often several faults at once, sometimes none."""
    n = draw(st.integers(0, 6))
    report = tk.AlignmentReport(
        transform=tk.SimilarityTransform.from_z_rotation(1.5, 33.0, (4.0, -2.0, 0.5)),
        inlier_mask=draw(st.lists(st.booleans(), min_size=n, max_size=n)),
        residuals_m=draw(st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n)),
        average_error_m=0.5, median_error_m=0.25, meters_per_unit=1.0,
        names=tuple(f"f{i}.png" for i in range(n)),
    )
    lines = [line.split() for line in tk.write_report(report).splitlines()]
    for fields in lines[8:]:  # a bad distance or flag, or a field too many or too few
        j = draw(st.sampled_from([None, None, 2, 3, 4, -1]))
        if j == 4:
            fields.append(draw(st.sampled_from(REPORT_TOKENS)))
        elif j == -1:
            fields.pop(draw(st.integers(0, 3)))
        elif j is not None:
            fields[j] = draw(st.sampled_from(REPORT_TOKENS))
    for _ in range(draw(st.integers(0, 5))):
        fields = lines[draw(st.integers(0, len(lines) - 1))] if lines else []
        edit = draw(st.sampled_from(["replace", "insert", "delete", "drop line"]))
        j = draw(st.integers(0, len(fields)))
        if edit == "insert":
            fields.insert(j, draw(st.sampled_from(REPORT_TOKENS)))
        elif edit == "drop line" and lines:
            lines.remove(fields)
        elif j < len(fields):
            fields[j:j + 1] = [draw(st.sampled_from(REPORT_TOKENS))] if edit == "replace" else []
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    return "".join(" ".join(fields) + "\n" for fields in lines)


def read_outcome(read, text):
    """What ``read(text)`` returns, or the type, message, line and column of its error."""
    try:
        return read(text)
    except (TrajkitError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@given(faulty_reports())
@settings(max_examples=300, deadline=None)
def test_read_report_matches_line_by_line_oracle(text):
    assert read_outcome(poseio.read_report, text) == read_outcome(oracle_read_report, text)

# The writers before they shared textio.lines: each value formatted on its own.
def fixed(value) -> str:
    return "%.6f" % value


def g(value) -> str:
    return format(float(value), ".12g")


def oracle_manifest(manifest: tk.CaptureManifest) -> str:
    cond = manifest.conditions
    lines = [
        f"# weather {cond.weather.value}",
        f"# time_of_day {cond.time_of_day.value}",
        f"# vehicle_density {fixed(cond.vehicle_density)}",
        f"# pedestrian_density {fixed(cond.pedestrian_density)}",
    ]
    rows = np.hstack([manifest.camera, manifest.rotation]).tolist()
    lines += (" ".join([name, *map(fixed, row)]) for name, row in zip(manifest.names, rows))
    return "\n".join(lines) + "\n"


def oracle_reconstruction(recon: tk.ReconstructedSet) -> str:
    return "".join(
        f"{name} {fixed(x)} {fixed(y)} {fixed(z)}\n"
        for name, (x, y, z) in zip(recon.names, recon.positions.tolist())
    )


def oracle_world(world: tk.World) -> str:
    mins, maxs = world.bounds.mins, world.bounds.maxs
    lines = [
        f"# seed {world.seed}",
        "# bounds " + " ".join(fixed(v) for v in (*mins, *maxs)),
    ]
    for i, (x, y, z) in enumerate(world.landmarks):
        lines.append(f"{i} {fixed(x)} {fixed(y)} {fixed(z)}")
    return "\n".join(lines) + "\n"


def oracle_ply(points: np.ndarray) -> str:
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {len(points)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    return header + "".join(f"{fixed(x)} {fixed(y)} {fixed(z)}\n" for x, y, z in points)


def oracle_report(report: tk.AlignmentReport) -> str:
    t = report.transform
    lines = [
        "scale " + g(t.scale),
        "rotation " + " ".join(g(v) for v in t.rotation.ravel()),
        "translation " + " ".join(g(v) for v in t.translation),
        "meters_per_unit " + g(report.meters_per_unit),
        "average_error_m " + g(report.average_error_m),
        "median_error_m " + g(report.median_error_m),
        f"inlier_count {int(report.inlier_mask.sum())}",
        f"total_count {len(report.residuals_m)}",
    ]
    for name, res, inlier in zip(report.names, report.residuals_m, report.inlier_mask):
        lines.append(f"residual {name} {g(res)} {1 if inlier else 0}")
    return "\n".join(lines) + "\n"


# Signed zero, the sixth-decimal rounding edge, large and subnormal values.
EDGE_FLOATS = [0.0, -0.0, 5e-7, -5e-7, 2.5e-7, -2.5e-7, 1.5e-6, 1e15, -1e15, 5e-324, -5e-324]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
# The sampled values, plus any float within 1e15: a world box pads them by 1 exactly.
BOXED_FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(-1e15, 1e15))
# A density lies in [0, 1]: the in-range edge values, plus any float there.
DENSITIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-7, 2.5e-7, 1.5e-6, 5e-324]),
                      st.floats(0.0, 1.0))
# '%' in a name must reach the file verbatim, not act as a format directive.
NAMES = st.lists(st.text("abcXYZ019_.%-", min_size=1, max_size=12), unique=True, max_size=12)


def float_rows(draw, count: int, width: int, elements=FLOATS) -> np.ndarray:
    values = draw(st.lists(elements, min_size=count * width, max_size=count * width))
    return np.array(values, dtype=float).reshape(count, width)


class TestWritersMatchPerValueFormatting:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_manifest(self, data):
        names = data.draw(NAMES)
        vehicle, pedestrian = data.draw(DENSITIES), data.draw(DENSITIES)
        poses = float_rows(data.draw, len(names), 6)
        cond = tk.ConditionSet(tk.Weather.RAIN, tk.TimeOfDay.NIGHT, vehicle_density=vehicle,
                               pedestrian_density=pedestrian)
        manifest = tk.CaptureManifest(names, poses[:, :3], poses[:, 3:], cond)
        assert tk.write_manifest(manifest) == oracle_manifest(manifest)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_reconstruction(self, data):
        names = data.draw(NAMES)
        recon = tk.ReconstructedSet(names, float_rows(data.draw, len(names), 3))
        assert tk.write_reconstruction(recon) == oracle_reconstruction(recon)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_world_and_ply(self, data):
        points = float_rows(data.draw, data.draw(st.integers(0, 12)), 3, BOXED_FLOATS)
        box = tk.Box(points.min(axis=0, initial=0.0) - 1.0, points.max(axis=0, initial=0.0) + 1.0)
        world = tk.World(points, seed=data.draw(st.integers(-2**70, 2**70)), bounds=box)
        assert simworld.write_world(world) == oracle_world(world)
        assert simworld.points_to_ply(points) == oracle_ply(points)
        wide = float_rows(data.draw, data.draw(st.integers(0, 12)), 3)
        assert simworld.points_to_ply(wide) == oracle_ply(wide)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_report(self, data):
        names = tuple(data.draw(NAMES))
        scale = data.draw(st.one_of(st.sampled_from([5e-324, 1e15, 2.5e-7]),
                                    st.floats(min_value=1e-300, max_value=1e300)))
        transform = tk.SimilarityTransform.from_z_rotation(
            scale, data.draw(st.floats(-720, 720)), float_rows(data.draw, 1, 3)[0]
        )
        average, median, meters_per_unit = float_rows(data.draw, 1, 3)[0]
        report = tk.AlignmentReport(
            transform=transform,
            inlier_mask=data.draw(st.lists(st.booleans(), min_size=len(names),
                                           max_size=len(names))),
            residuals_m=float_rows(data.draw, len(names), 1).ravel(),
            average_error_m=average,
            median_error_m=median,
            meters_per_unit=meters_per_unit,
            names=names,
        )
        assert tk.write_report(report) == oracle_report(report)


@pytest.mark.parametrize("read, text", [
    (tk.read_manifest, "a.png 0 0 0 0 0 0\nb.png 1 1 1 0 0 0\n"),
    (tk.read_reconstruction, "a.png 0 0 0\nb.png 1 1 1\n"),
])
def test_names_checked_once_per_read(monkeypatch, read, text):
    calls = []
    check = poseio._single_tokens
    monkeypatch.setattr(poseio, "_single_tokens", lambda *args: calls.append(args) or check(*args))
    read(text)
    assert len(calls) == 1


def single_tokens_reference(names) -> bool:
    """_single_tokens with str.isprintable for every name, ASCII or not."""
    joined = " ".join(names)
    return (joined.count(" ") == len(names) - 1 and joined.isprintable()
            and not joined.startswith("#") and " #" not in joined)


@pytest.mark.parametrize("char", [chr(c) for c in range(128)] + ["\u00e9", "\u2028"])
def test_name_check_matches_isprintable(char):
    for names in ((f"a{char}b",), ("frame_0.png", f"{char}x"), (char,), (f"x{char}", "y")):
        assert poseio._single_tokens(names) == single_tokens_reference(names)


@pytest.mark.parametrize("read, text, fields", [
    (tk.read_dense, "0 0 0 1 1 1 2 2 2\n3 3 3 4 4 4 5 5 5\n",
     ("protagonist", "camera", "rotation")),
    (tk.read_manifest, "a.png 0 0 0 0 0 0\nb.png 1 1 1 0 0 0\n", ("camera", "rotation")),
    (tk.read_reconstruction, "a.png 0 0 0\nb.png 1 1 1\n", ("positions",)),
])
def test_readers_hand_each_field_over_once(monkeypatch, read, text, fields):
    # Each (N, 3) field is the array the reader stacked, adopted by the value
    # type without a copy: it owns its data and is read-only.
    stacked, column_stack = [], np.column_stack
    monkeypatch.setattr(np, "column_stack", lambda arrays: stacked.append(column_stack(arrays))
                        or stacked[-1])
    value = read(text)
    for name in fields:
        array = getattr(value, name)
        assert array.base is None and array.flags.owndata and not array.flags.writeable
        assert any(array is s for s in stacked), name
