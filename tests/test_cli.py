"""Command-line tests, run in-process through cli.main()."""

from __future__ import annotations

import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from trajkit import align, cli, plotting, poseio, simworld, trajectory
from trajkit.cli import main
from trajkit.conditions import ConditionSet

from conftest import WORKED_ORDER_TEXT, WORKED_VERTEX_TEXT, exactly


@pytest.fixture
def worked_files(tmp_path):
    vertex = tmp_path / "vertex.txt"
    order = tmp_path / "vertex_order.txt"
    vertex.write_text(WORKED_VERTEX_TEXT)
    order.write_text(WORKED_ORDER_TEXT)
    return vertex, order


def run(args) -> int:
    return main([str(a) for a in args])


class TestExpand:
    def test_worked_example_labels(self, worked_files, capsys):
        vertex, order = worked_files
        assert run(["expand", "--vertices", vertex, "--orders", order]) == 0
        assert capsys.readouterr().out.strip() == "I II III IV V VI II I VII"

    def test_roman_numerals_start_at_1(self):
        with pytest.raises(ValueError, match=exactly("roman numerals start at 1, got 0")):
            plotting.roman_numeral(0)

    def test_missing_file(self, tmp_path, capsys):
        rc = run(["expand", "--vertices", tmp_path / "nope.txt", "--orders", tmp_path / "nope2.txt"])
        assert rc == 1
        assert "no such file" in capsys.readouterr().err.lower()

    def test_step_gap_names_the_step(self, tmp_path, capsys):
        vertex = tmp_path / "v.txt"
        order = tmp_path / "o.txt"
        vertex.write_text("0 0\n1 0\n")
        order.write_text("1\n3\n")
        assert run(["expand", "--vertices", vertex, "--orders", order]) == 2
        assert "step 2" in capsys.readouterr().err

    def test_malformed_order_token(self, tmp_path, capsys):
        vertex = tmp_path / "v.txt"
        order = tmp_path / "o.txt"
        vertex.write_text("0 0\n")
        order.write_text("x\n")
        assert run(["expand", "--vertices", vertex, "--orders", order]) == 1
        assert "error:" in capsys.readouterr().err


class TestDensify:
    def test_writes_trajectory(self, worked_files, tmp_path):
        vertex, order = worked_files
        out = tmp_path / "trajectory_dense.txt"
        assert run(["densify", "--vertices", vertex, "--orders", order, "--out", out]) == 0
        dense = poseio.read_dense(out.read_text())
        assert len(dense) == 338

    def test_idempotent(self, worked_files, tmp_path):
        vertex, order = worked_files
        out = tmp_path / "t.txt"
        run(["densify", "--vertices", vertex, "--orders", order, "--out", out])
        first = out.read_bytes()
        run(["densify", "--vertices", vertex, "--orders", order, "--out", out])
        assert out.read_bytes() == first

    def test_supplied_orientations(self, worked_files, tmp_path):
        # The rotation column is the file's, verbatim; positions are forward densify's.
        vertex, order = worked_files
        i = np.arange(338)
        supplied = np.column_stack([i % 11 - 5.0, 1.0 + i % 4 / 4, 2.125 * i])  # exact in text
        rots = tmp_path / "rots.txt"
        rots.write_text("".join(f"{rx} {ry} {rz}\n" for rx, ry, rz in supplied))
        out, forward = tmp_path / "t.txt", tmp_path / "forward.txt"
        assert run([
            "densify", "--vertices", vertex, "--orders", order,
            "--out", out, "--orientations", rots,
        ]) == 0
        assert run(["densify", "--vertices", vertex, "--orders", order, "--out", forward]) == 0
        dense = poseio.read_dense(out.read_text())
        expected = poseio.read_dense(forward.read_text())
        np.testing.assert_array_equal(dense.rotation, supplied)
        np.testing.assert_array_equal(dense.protagonist, expected.protagonist)
        np.testing.assert_array_equal(dense.camera, expected.camera)

    @pytest.mark.parametrize(
        "flags, rc, message",
        [
            (["--speed", "1e-12"], 2, "more than 10000000 frames"),
            (["--speed", "nan"], 1, "speed must be positive and finite"),
            (["--fps", "inf"], 1, "fps must be positive and finite"),
        ],
    )
    def test_absurd_rate_fails_cleanly(self, worked_files, tmp_path, capsys, flags, rc, message):
        vertex, order = worked_files
        out = tmp_path / "t.txt"
        assert run(["densify", "--vertices", vertex, "--orders", order, "--out", out, *flags]) == rc
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_orientation_length_mismatch_exit_2(self, worked_files, tmp_path, capsys):
        vertex, order = worked_files
        rots = tmp_path / "rots.txt"
        rots.write_text("0 0 0\n")
        out = tmp_path / "t.txt"
        rc = run([
            "densify", "--vertices", vertex, "--orders", order,
            "--out", out, "--orientations", rots,
        ])
        assert rc == 2
        assert not out.exists()


def make_pipeline(tmp_path, worked_files, capture_args=()):
    vertex, order = worked_files
    traj = tmp_path / "trajectory_dense.txt"
    run(["densify", "--vertices", vertex, "--orders", order, "--out", traj])
    cap = tmp_path / "cap"
    rc = run([
        "capture", "--trajectory", traj, "--out-dir", cap, "--seed", 7,
        "--landmark-count", 300, *capture_args,
    ])
    assert rc == 0
    return traj, cap


class TestCapture:
    def test_outputs_exist(self, worked_files, tmp_path):
        _, cap = make_pipeline(tmp_path, worked_files)
        assert (cap / "6dpose_list.txt").exists()
        assert (cap / "observations.txt").exists()
        assert (cap / "world.txt").exists()

    def test_condition_flags_leave_poses_untouched(self, worked_files, tmp_path):
        _, cap_a = make_pipeline(tmp_path, worked_files)
        traj = tmp_path / "trajectory_dense.txt"
        cap_b = tmp_path / "cap_b"
        run([
            "capture", "--trajectory", traj, "--out-dir", cap_b, "--seed", 7,
            "--landmark-count", 300,
            "--weather", "snow", "--time", "night",
            "--vehicle-density", "0.8", "--pedestrian-density", "0.5",
        ])

        def pose_columns(path):
            return [
                line.split()[1:]
                for line in path.read_text().splitlines()
                if line and not line.startswith("#")
            ]

        assert pose_columns(cap_a / "6dpose_list.txt") == pose_columns(cap_b / "6dpose_list.txt")
        # ... while the observations do change under the harsher conditions.
        assert (cap_a / "observations.txt").read_text() != (cap_b / "observations.txt").read_text()

    def test_reproducible_given_seed(self, worked_files, tmp_path):
        _, cap_a = make_pipeline(tmp_path, worked_files)
        traj = tmp_path / "trajectory_dense.txt"
        cap_b = tmp_path / "cap_c"
        run(["capture", "--trajectory", traj, "--out-dir", cap_b, "--seed", 7,
             "--landmark-count", 300])
        for name in ("6dpose_list.txt", "observations.txt", "world.txt"):
            assert (cap_a / name).read_bytes() == (cap_b / name).read_bytes()


    def test_world_file_read_back_within_half_a_unit_of_the_sixth_decimal(
        self, worked_files, tmp_path, capsys
    ):
        # As the README says: world.txt holds six decimals, so the world read
        # back with --world sits up to 5e-7 units from the one that was drawn.
        _, cap = make_pipeline(tmp_path, worked_files)
        again = tmp_path / "again"
        assert run(["capture", "--trajectory", tmp_path / "trajectory_dense.txt",
                    "--out-dir", again, "--seed", 3, "--world", cap / "world.txt"]) == 0
        assert (again / "world.txt").read_bytes() == (cap / "world.txt").read_bytes()
        back = simworld.read_world((cap / "world.txt").read_text())
        drawn = simworld.generate_world(7, 300, back.bounds)
        assert 0 < np.abs(back.landmarks - drawn.landmarks).max() <= 5e-7
        assert "captured 338 frames" in capsys.readouterr().out

    def test_streamed_observations_equal_the_in_process_writer(self, worked_files, tmp_path):
        # 13,501 frames, four groups of 4096: the CLI writes observations.txt a
        # group at a time. Its bytes are write_observations(retrace(...))'s, and
        # its peak is under half of what that in-process pair takes.
        vertex, order = worked_files
        traj, world_file, cap = tmp_path / "slow.txt", tmp_path / "world.txt", tmp_path / "cap"
        assert run(["densify", "--vertices", vertex, "--orders", order, "--out", traj,
                    "--speed", 0.04]) == 0
        box = simworld.Box((-25.0, -25.0, 0.0), (27.0, 27.0, 15.0))
        world_file.write_text(simworld.write_world(simworld.generate_world(7, 500, box)))
        dense = poseio.read_dense(traj.read_text())
        world = simworld.read_world(world_file.read_text())
        assert len(dense) == 13_501

        peaks = []
        for step in ("cli", "in process"):
            tracemalloc.start()
            try:
                if step == "cli":
                    assert run(["capture", "--trajectory", traj, "--out-dir", cap, "--seed", 7,
                                "--world", world_file]) == 0
                else:
                    _, obs = simworld.retrace(dense, world, simworld.default_intrinsics(),
                                              ConditionSet(), seed=7)
                    text = simworld.write_observations(obs)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert obs.total_observations() > 300_000
        assert (cap / "observations.txt").read_bytes() == text.encode()
        assert peaks[0] < peaks[1] / 2


class TestWriteText:
    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            cli._write_text(tmp_path / "out.txt", "text\n")
        assert list(tmp_path.iterdir()) == []

    def test_pieces_written_in_order_and_a_failing_one_leaves_no_file(self, tmp_path):
        cli._write_text(tmp_path / "out.txt", iter(["a\n", "", "bc\n"]))
        assert (tmp_path / "out.txt").read_bytes() == b"a\nbc\n"

        def pieces():
            yield "partial\n"
            raise ValueError("piece failed")

        with pytest.raises(ValueError, match="piece failed"):
            cli._write_text(tmp_path / "bad.txt", pieces())
        assert [path.name for path in tmp_path.iterdir()] == ["out.txt"]


class TestPipeline:
    def test_identity_pipeline_reports_zero(self, worked_files, tmp_path, capsys):
        traj, cap = make_pipeline(tmp_path, worked_files, ("--pixel-sigma", "0"))
        recon = tmp_path / "recon.txt"
        run(["simrecon", "--manifest", cap / "6dpose_list.txt", "--out", recon, "--seed", 1])
        report_path = tmp_path / "report.txt"
        rc = run([
            "align", "--recon", recon, "--manifest", cap / "6dpose_list.txt",
            "--out", report_path,
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "average_error 0.000000 m" in out
        report = poseio.read_report(report_path.read_text())
        assert report.average_error_m <= 1e-9
        assert report.inlier_mask.all()

    def test_noisy_gauged_pipeline_inlier_ratio(self, worked_files, tmp_path):
        # Gauge (0.5, 45 deg about z, (10, -3, 2)); effective groundtruth-
        # frame noise of 0.1 units (0.05 * 1/0.5); 20% far outliers.
        traj, cap = make_pipeline(tmp_path, worked_files, ("--pixel-sigma", "0"))
        recon = tmp_path / "recon.txt"
        run([
            "simrecon", "--manifest", cap / "6dpose_list.txt", "--out", recon,
            "--gauge-scale", 0.5, "--gauge-yaw", 45, "--gauge-translate", 10, -3, 2,
            "--noise-sigma", 0.05, "--outlier-fraction", 0.2, "--outlier-radius", 5,
            "--seed", 3,
        ])
        report_path = tmp_path / "report.txt"
        assert run([
            "align", "--recon", recon, "--manifest", cap / "6dpose_list.txt",
            "--out", report_path, "--seed", 4,
        ]) == 0
        report = poseio.read_report(report_path.read_text())
        ratio = report.inlier_mask.sum() / len(report.residuals_m)
        assert ratio >= 0.78
        # Recovered scale near the gauge inverse 1/0.5; the tolerance is
        # loose because src-side noise on a small footprint biases the
        # variance-based scale estimate by a few percent.
        assert report.transform.scale == pytest.approx(2.0, rel=0.05)


class TestNonFiniteInput:
    """A nan token is an input error (exit 1) that names its line and column."""

    def test_align_nan_reconstruction(self, worked_files, tmp_path, capsys):
        _, cap = make_pipeline(tmp_path, worked_files)
        recon = tmp_path / "recon.txt"
        run(["simrecon", "--manifest", cap / "6dpose_list.txt", "--out", recon, "--seed", 1])
        lines = recon.read_text().splitlines(keepends=True)
        lines[2] = lines[2].split()[0] + " nan 0 0\n"
        recon.write_text("".join(lines))
        capsys.readouterr()
        rc = run([
            "align", "--recon", recon, "--manifest", cap / "6dpose_list.txt",
            "--out", tmp_path / "report.txt",
        ])
        assert rc == 1
        captured = capsys.readouterr()
        assert "average_error" not in captured.out
        assert "'nan' (line 3, column 18)" in captured.err
        assert not (tmp_path / "report.txt").exists()

    def test_export_ply_nan_landmark(self, worked_files, tmp_path, capsys):
        _, cap = make_pipeline(tmp_path, worked_files)
        world = cap / "world.txt"
        lines = world.read_text().splitlines()
        lines[2] = "0 nan " + " ".join(lines[2].split()[2:])
        world.write_text("\n".join(lines) + "\n")
        out = tmp_path / "world.ply"
        assert run(["export-ply", "--world", world, "--out", out]) == 1
        assert "'nan' (line 3, column 3)" in capsys.readouterr().err
        assert not out.exists()

    def test_calibrate_nan_sample(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("0 0 0 0\n9 nan 0 10\n")
        assert run(["calibrate", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'nan' (line 2, column 3)" in captured.err


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """The files of the README walkthrough, plus a calibration sample file."""
    d = tmp_path_factory.mktemp("walkthrough")
    (d / "vertex.txt").write_text(WORKED_VERTEX_TEXT)
    (d / "vertex_order.txt").write_text(WORKED_ORDER_TEXT)
    (d / "samples.txt").write_text("0 0 0 0\n9 0 0 10\n")
    for args in (
        ["densify", "--vertices", d / "vertex.txt", "--orders", d / "vertex_order.txt",
         "--out", d / "trajectory_dense.txt"],
        ["capture", "--trajectory", d / "trajectory_dense.txt", "--out-dir", d / "capture",
         "--seed", 7],
        ["simrecon", "--manifest", d / "capture" / "6dpose_list.txt", "--out", d / "recon.txt",
         "--gauge-scale", 0.5, "--gauge-yaw", 45, "--gauge-translate", 10, -3, 2,
         "--noise-sigma", 0.05, "--outlier-fraction", 0.2, "--outlier-radius", 5, "--seed", 7],
    ):
        assert run(args) == 0
    return d


# Every numeric flag of seven subcommands, run on the README walkthrough at nan, +-inf, 0,
# -1, +-1e308 and 5e-324 (a flag of several numbers takes the value in its first, REST the
# others). Per flag, the values refused with one exit code and stderr line, where {} is the
# value as a float prints. An int flag refuses the non-integers in argparse, after its usage.
REJECTED = [
    ("densify", "--speed", "nan inf -inf 0 -1 -1e308", 1,
     "speed must be positive and finite, got {}"),
    ("densify", "--speed", "5e-324", 2, "this speed and fps take more than 10000000 frames"),
    ("densify", "--fps", "nan inf -inf 0 -1 -1e308", 1, "fps must be positive and finite, got {}"),
    ("densify", "--fps", "1e308", 2, "this speed and fps take more than 10000000 frames"),
    ("densify", "--fps", "5e-324", 1, "step length speed / fps must be finite, got inf"),
    ("densify", "--eye-offset-z", "nan inf -inf", 1,
     "camera height ground_z + eye_offset_z must be finite"),
    ("densify", "--ground-z", "nan inf -inf", 1,
     "camera height ground_z + eye_offset_z must be finite"),
    ("perturb", "--pos-sigma", "nan inf -inf -1 1e308 -1e308", 1,
     "pos_sigma must be >= 0 and its largest draw must not overflow, got {}"),
    ("perturb", "--yaw-sigma", "nan inf -inf -1 1e308 -1e308", 1,
     "yaw_sigma must be >= 0 and its largest draw must not overflow, got {}"),
    ("capture", "--landmark-count", "0 -1", 1, "count must be at least 1"),
    ("capture", "--bounds", "nan inf -inf", 1, "mins must be finite"),
    ("capture", "--bounds", "1e308", 2,
     "bounds have non-positive extent: [1.e+308 0.e+000 0.e+000] .. [10. 10. 10.]"),
    ("capture", "--focal", "nan inf -inf 0 -1 -1e308", 1,
     "focal must be positive and finite, got {}"),
    ("capture", "--width", "0 -1", 1, "image dimensions must be positive"),
    ("capture", "--height", "0 -1", 1, "image dimensions must be positive"),
    ("capture", "--max-range", "nan -inf 0 -1 -1e308", 1, "max_range must be positive, got {}"),
    ("capture", "--pixel-sigma", "nan inf -inf -1 1e308 -1e308", 1,
     "base_pixel_sigma must be >= 0 and its largest draw must not overflow, got {}"),
    ("capture", "--vehicle-density", "nan inf -inf", 1, "vehicle_density must be finite, got {}"),
    ("capture", "--vehicle-density", "-1 1e308 -1e308", 2,
     "vehicle_density must be within [0, 1], got {}"),
    ("capture", "--pedestrian-density", "nan inf -inf", 1,
     "pedestrian_density must be finite, got {}"),
    ("capture", "--pedestrian-density", "-1 1e308 -1e308", 2,
     "pedestrian_density must be within [0, 1], got {}"),
    ("simrecon", "--gauge-scale", "nan inf -inf", 1, "scale must be finite, got {}"),
    ("simrecon", "--gauge-scale", "0 -1 -1e308", 2, "scale must be positive, got {}"),
    ("simrecon", "--gauge-scale", "1e308", 1, "simulated positions exceed the float range"),
    ("simrecon", "--gauge-yaw", "nan inf", 1, "yaw_deg must be finite, got {}"),
    ("simrecon", "--gauge-translate", "nan inf -inf", 1, "translation must be finite"),
    ("simrecon", "--noise-sigma", "nan inf -inf -1 1e308 -1e308", 1,
     "noise_sigma must be >= 0 and its largest draw must not overflow, got {}"),
    ("simrecon", "--outlier-fraction", "nan inf -inf -1 1e308 -1e308", 1,
     "outlier_fraction must be within [0, 1], got {}"),
    ("simrecon", "--outlier-radius", "nan inf -inf -1 1e308 -1e308", 1,
     "outlier_radius must be >= 0 and its largest draw must not overflow, got {}"),
    ("align", "--threshold", "nan inf -inf 0 -1 -1e308", 1,
     "threshold must be positive and finite, got {}"),
    ("align", "--threshold", "5e-324", 2, "best consensus holds 0 point(s); need more than 3"),
    ("align", "--max-iterations", "0 -1", 1, "max_iterations must be at least 1"),
    ("align", "--confidence", "nan inf -inf 0 -1 1e308 -1e308", 1,
     "confidence must lie in (0, 1), got {}"),
    ("align", "--meters-per-unit", "nan inf -inf 0 -1 -1e308", 1,
     "meters_per_unit must be positive and finite, got {}"),
    ("align", "--meters-per-unit", "1e308", 2,
     "residual of image 'frame_000001.png' is not finite in meters"),
    ("calibrate", "--stride-m", "nan inf -inf 0 -1 -1e308", 1,
     "stride_m must be positive and finite, got {}"),
    ("subsample", "--stride", "0 -1", 1, "stride must be at least 1"),
]
INT_FLAGS = [("perturb", "--seed"), ("capture", "--seed"), ("capture", "--landmark-count"),
             ("capture", "--width"), ("capture", "--height"), ("simrecon", "--seed"),
             ("align", "--seed"), ("align", "--max-iterations"), ("subsample", "--stride")]
REST = {"--bounds": ["0", "0", "10", "10", "10"], "--gauge-translate": ["0", "0"]}
NON_FINITE_FLAGS = [
    (command, [flag, value, *REST.get(flag, [])], rc, f"error: {message.format(float(value))}")
    for command, flag, values, rc, message in REJECTED for value in values.split()
] + [
    (command, [flag, value], 1, f"trajkit {command}: error: argument {flag}: invalid int value: "
                                f"'{value}'")
    for command, flag in INT_FLAGS for value in "nan inf -inf 1e308 -1e308 5e-324".split()
] + [
    ("simrecon", ["--gauge-yaw=-inf"], 1, "error: yaw_deg must be finite, got -inf"),
    ("simrecon", ["--outlier-radius", "1e308", "--outlier-fraction", "0.2"], 1,
     "error: outlier_radius must be >= 0 and its largest draw must not overflow, got 1e+308"),
]
# The values of the sweep above that each flag accepts.
ACCEPTED = [
    ("densify", "--speed", "1e308"),
    ("densify", "--eye-offset-z", "0 -1 1e308 -1e308 5e-324"),
    ("densify", "--ground-z", "0 -1 1e308 -1e308 5e-324"),
    ("perturb", "--pos-sigma", "0 5e-324"),
    ("perturb", "--yaw-sigma", "0 5e-324"),
    ("perturb", "--seed", "0 -1"),
    ("capture", "--seed", "0 -1"),
    ("capture", "--bounds", "0 -1 -1e308 5e-324"),
    ("capture", "--focal", "1e308 5e-324"),
    ("capture", "--max-range", "inf 1e308 5e-324"),
    ("capture", "--pixel-sigma", "0 5e-324"),
    ("capture", "--vehicle-density", "0 5e-324"),
    ("capture", "--pedestrian-density", "0 5e-324"),
    ("simrecon", "--seed", "0 -1"),
    ("simrecon", "--gauge-scale", "5e-324"),
    ("simrecon", "--gauge-yaw", "0 -1 1e308 -1e308 5e-324"),
    ("simrecon", "--gauge-translate", "0 -1 1e308 -1e308 5e-324"),
    ("simrecon", "--noise-sigma", "0 5e-324"),
    ("simrecon", "--outlier-fraction", "0 5e-324"),
    ("simrecon", "--outlier-radius", "0 5e-324"),
    ("align", "--seed", "0 -1"),
    ("align", "--threshold", "1e308"),
    ("align", "--confidence", "5e-324"),
    ("align", "--meters-per-unit", "5e-324"),
    ("calibrate", "--stride-m", "1e308 5e-324"),
]
ACCEPTED_FLAGS = [(command, [flag, value, *REST.get(flag, [])])
                  for command, flag, values in ACCEPTED for value in values.split()]


def walkthrough_args(d: Path, command: str, out: Path) -> list:
    """The arguments that run ``command`` on the walkthrough files of ``d``, writing to ``out``."""
    return {
        "densify": ["--vertices", d / "vertex.txt", "--orders", d / "vertex_order.txt",
                    "--out", out],
        "perturb": ["--trajectory", d / "trajectory_dense.txt", "--out", out],
        "simrecon": ["--manifest", d / "capture" / "6dpose_list.txt", "--out", out],
        "capture": ["--trajectory", d / "trajectory_dense.txt", "--seed", 7, "--out-dir", out],
        "align": ["--recon", d / "recon.txt", "--manifest", d / "capture" / "6dpose_list.txt",
                  "--out", out],
        "calibrate": ["--samples", d / "samples.txt"],
        "subsample": ["--manifest", d / "capture" / "6dpose_list.txt", "--out", out],
    }[command]


class TestNumericFlags:
    """A numeric flag outside its domain fails with its exit code and message, nothing written."""

    @pytest.mark.parametrize(
        "command, flags, rc, line", NON_FINITE_FLAGS,
        ids=[" ".join([c, *f]) for c, f, _, _ in NON_FINITE_FLAGS],
    )
    def test_rejected_without_output(self, walkthrough, tmp_path, capsys, command, flags, rc, line):
        args = walkthrough_args(walkthrough, command, tmp_path / "out")
        assert run([command, *args, *flags]) == rc
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == line
        assert captured.err == f"{line}\n" or captured.err.startswith("usage: trajkit ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "command, flags", ACCEPTED_FLAGS, ids=[" ".join([c, *f]) for c, f in ACCEPTED_FLAGS]
    )
    def test_accepted(self, walkthrough, tmp_path, capsys, command, flags):
        args = walkthrough_args(walkthrough, command, tmp_path / "out")
        assert run([command, *args, *flags]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("yaw", ["nan", "inf", "-inf"])
    def test_non_finite_gauge_yaw_is_named(self, walkthrough, tmp_path, capsys, yaw):
        manifest = walkthrough / "capture" / "6dpose_list.txt"
        assert run(["simrecon", "--manifest", manifest, "--out", tmp_path / "out",
                    f"--gauge-yaw={yaw}"]) == 1
        assert capsys.readouterr().err == f"error: yaw_deg must be finite, got {yaw}\n"

    # argparse by itself reads only -digits and -digits.digits as negative numbers.
    @pytest.mark.parametrize("flags, spelled", [
        (["--gauge-yaw", "-1e1"], ["--gauge-yaw=-1e1"]),
        (["--gauge-translate", "-1e5", "0", "0"], ["--gauge-translate", "-100000", "0", "0"]),
    ], ids=["gauge-yaw", "gauge-translate"])
    def test_negative_exponent_is_a_value(self, walkthrough, tmp_path, flags, spelled):
        manifest = walkthrough / "capture" / "6dpose_list.txt"
        outputs = []
        for k, given in enumerate((flags, spelled)):
            out = tmp_path / f"recon{k}.txt"
            assert run(["simrecon", "--manifest", manifest, "--out", out, *given]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_landmark_count_over_budget_exit_2(self, walkthrough, tmp_path, capsys):
        assert run([
            "capture", "--trajectory", walkthrough / "trajectory_dense.txt",
            "--out-dir", tmp_path / "out", "--landmark-count", simworld.MAX_LANDMARKS + 1,
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

    def test_infinite_max_range_means_unlimited(self, walkthrough, tmp_path):
        assert run([
            "capture", "--trajectory", walkthrough / "trajectory_dense.txt",
            "--out-dir", tmp_path, "--seed", 7, "--max-range", "inf",
        ]) == 0

    def test_huge_max_range_means_unlimited(self, walkthrough, tmp_path):
        huge, unlimited = tmp_path / "huge", tmp_path / "unlimited"
        for out, max_range in ((huge, "1e200"), (unlimited, "inf")):
            assert run([
                "capture", "--trajectory", walkthrough / "trajectory_dense.txt",
                "--out-dir", out, "--seed", 7, "--max-range", max_range,
            ]) == 0
        for name in ("6dpose_list.txt", "observations.txt"):
            assert (huge / name).read_bytes() == (unlimited / name).read_bytes()

    def test_huge_world_captures_what_an_ordinary_world_does(self, walkthrough, tmp_path, capsys):
        # The squares of these coordinates and of the range overflow; the
        # capture must equal that of the same scene scaled down by 2**-600.
        out = tmp_path / "out"
        assert run(["capture", "--trajectory", walkthrough / "trajectory_dense.txt",
                    "--out-dir", out, "--seed", 7, "--max-range", "1e200",
                    "--bounds", 0, 0, 0, "1e200", "1e200", "1e200"]) == 0
        count = int(re.search(r", (\d+) observations", capsys.readouterr().out).group(1))
        world = simworld.read_world((out / "world.txt").read_text())
        dense = poseio.read_dense((walkthrough / "trajectory_dense.txt").read_text())
        small_world = simworld.World(np.ldexp(world.landmarks, -600), world.seed, simworld.Box(
            np.ldexp(world.bounds.mins, -600), np.ldexp(world.bounds.maxs, -600)))
        small_dense = trajectory.DenseTrajectory(*(np.ldexp(getattr(dense, name), -600)
                                                   for name in ("protagonist", "camera")),
                                                 dense.rotation)
        intr = simworld.default_intrinsics(max_range=math.ldexp(1e200, -600))
        _, small = simworld.retrace(small_dense, small_world, intr, ConditionSet(), seed=7)
        assert count == small.total_observations() > 1000
        assert (out / "observations.txt").read_text() == simworld.write_observations(small)

    def test_align_handles_huge_gauge_scale(self, walkthrough, tmp_path, capsys):
        # Squaring these reconstruction coordinates would overflow.
        manifest, recon = walkthrough / "capture" / "6dpose_list.txt", tmp_path / "recon.txt"
        assert run(["simrecon", "--manifest", manifest, "--out", recon, "--gauge-scale", "1e170",
                    "--outlier-fraction", "0.2", "--outlier-radius", "5", "--seed", 7]) == 0
        assert run(["align", "--recon", recon, "--manifest", manifest,
                    "--out", tmp_path / "report.txt"]) == 0
        assert "inliers 338/338" in capsys.readouterr().out


def test_align_leaves_numpy_ma_unimported(walkthrough, tmp_path):
    # np.median imports numpy.ma on its first call, about 10 ms of a fresh
    # process; align's median does without it. Before numpy 2.0, numpy itself
    # imports numpy.ma, and then this holds trivially.
    script = ("import sys\nfrom trajkit.cli import main\nbefore = 'numpy.ma' in sys.modules\n"
              "rc = main(sys.argv[1:])\nsys.exit(rc or 3 * (('numpy.ma' in sys.modules) != before))\n")
    args = ["align", "--recon", walkthrough / "recon.txt",
            "--manifest", walkthrough / "capture" / "6dpose_list.txt", "--out", tmp_path / "r.txt"]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    result = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("average_error ")


def test_cli_defaults_are_the_field_defaults():
    parser = cli.build_parser()
    capture = parser.parse_args(["capture", "--trajectory", "t", "--out-dir", "d"])
    cond = ConditionSet()
    assert (capture.weather, capture.time, capture.vehicle_density, capture.pedestrian_density) == (
        cond.weather.value, cond.time_of_day.value, cond.vehicle_density, cond.pedestrian_density)
    intr = simworld.default_intrinsics()
    assert (capture.focal, capture.width, capture.height, capture.max_range) == (
        intr.focal, intr.width, intr.height, intr.max_range)
    densify = parser.parse_args(["densify", "--vertices", "v", "--orders", "o", "--out", "x"])
    params = trajectory.DensifyParams()
    assert (densify.speed, densify.fps, densify.eye_offset_z, densify.ground_z) == (
        params.speed, params.fps, params.eye_offset_z, params.ground_z)
    aligned = parser.parse_args(["align", "--recon", "r", "--manifest", "m", "--out", "x"])
    ransac = align.RansacParams()
    assert (aligned.threshold, aligned.max_iterations, aligned.confidence) == (
        ransac.threshold, ransac.max_iterations, ransac.confidence)


class TestPerturbCommand:
    def test_deterministic_and_seed_sensitive(self, worked_files, tmp_path):
        vertex, order = worked_files
        traj = tmp_path / "t.txt"
        run(["densify", "--vertices", vertex, "--orders", order, "--out", traj])
        a, b, c = (tmp_path / n for n in ("a.txt", "b.txt", "c.txt"))
        run(["perturb", "--trajectory", traj, "--out", a, "--pos-sigma", "0.2", "--seed", "5"])
        run(["perturb", "--trajectory", traj, "--out", b, "--pos-sigma", "0.2", "--seed", "5"])
        run(["perturb", "--trajectory", traj, "--out", c, "--pos-sigma", "0.2", "--seed", "6"])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()


class TestSubsample:
    def test_stride(self, worked_files, tmp_path):
        _, cap = make_pipeline(tmp_path, worked_files)
        out = tmp_path / "sub.txt"
        assert run([
            "subsample", "--manifest", cap / "6dpose_list.txt", "--stride", 20, "--out", out
        ]) == 0
        full = poseio.read_manifest((cap / "6dpose_list.txt").read_text())
        sub = poseio.read_manifest(out.read_text())
        assert len(sub.names) == (len(full.names) + 19) // 20
        assert sub.names[1] == full.names[20]
        assert sub.camera[1].tolist() == full.camera[20].tolist()
        assert sub.rotation[1].tolist() == full.rotation[20].tolist()
        assert sub.conditions == full.conditions

    def test_out_of_range_density_header_exit_2(self, worked_files, tmp_path, capsys):
        _, cap = make_pipeline(tmp_path, worked_files)
        manifest = tmp_path / "m.txt"
        manifest.write_text((cap / "6dpose_list.txt").read_text().replace(
            "# vehicle_density 0.000000", "# vehicle_density 1.5"))
        out = tmp_path / "s.txt"
        capsys.readouterr()
        assert run(["subsample", "--manifest", manifest, "--stride", 7, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: vehicle_density must be within [0, 1], got 1.5\n"
        assert captured.out == ""
        assert not out.exists()

    def test_bad_stride(self, worked_files, tmp_path, capsys):
        _, cap = make_pipeline(tmp_path, worked_files)
        assert run([
            "subsample", "--manifest", cap / "6dpose_list.txt", "--stride", 0,
            "--out", tmp_path / "s.txt",
        ]) == 1


class TestPlot:
    def test_worked_example_svg_contents(self, worked_files, tmp_path):
        vertex, order = worked_files
        out = tmp_path / "plot.svg"
        assert run(["plot", "--vertices", vertex, "--orders", order, "--out", out]) == 0
        svg = out.read_text()
        assert svg.count('class="vertex-label"') == 7
        assert svg.count('class="order-arrow"') == 9
        for label in ("I", "II", "III", "IV", "V", "VI", "VII"):
            assert f">{label}<" in svg

    def test_with_trajectory_polyline(self, worked_files, tmp_path):
        vertex, order = worked_files
        traj = tmp_path / "t.txt"
        run(["densify", "--vertices", vertex, "--orders", order, "--out", traj])
        out = tmp_path / "plot.svg"
        assert run([
            "plot", "--vertices", vertex, "--orders", order, "--trajectory", traj, "--out", out
        ]) == 0
        assert 'class="dense-path"' in out.read_text()

    def test_nothing_to_plot_rejected(self):
        message = "nothing to plot: provide a sparse plan and/or a dense trajectory"
        with pytest.raises(ValueError, match=exactly(message)):
            plotting.plot_svg()

    def test_vertices_without_orders_rejected(self, worked_files, tmp_path, capsys):
        vertex, _ = worked_files
        assert run(["plot", "--vertices", vertex, "--out", tmp_path / "p.svg"]) == 1

    @pytest.mark.parametrize("flag", ["--vertices", "--orders"])
    def test_half_a_plan_names_both_flags(self, worked_files, tmp_path, capsys, flag):
        vertex, order = worked_files
        out = tmp_path / "p.svg"
        assert run(["plot", flag, vertex if flag == "--vertices" else order, "--out", out]) == 1
        assert capsys.readouterr().err == "error: --vertices and --orders must be given together\n"
        assert not out.exists()

    @pytest.mark.parametrize("vertices", ["0 1e300\n1 1e300\n", "1e300 1e300\n1e300 1e300\n"],
                             ids=["flat far axis", "coincident far vertices"])
    def test_axis_without_span_far_from_origin(self, tmp_path, vertices):
        # The 5% pad rounds away at 1e300, leaving an axis with no span.
        (tmp_path / "v.txt").write_text(vertices)
        (tmp_path / "o.txt").write_text("1\n2\n")
        out = tmp_path / "p.svg"
        assert run([
            "plot", "--vertices", tmp_path / "v.txt", "--orders", tmp_path / "o.txt", "--out", out
        ]) == 0
        svg = out.read_text()
        assert "nan" not in svg
        coords = re.findall(r' (c?[xy][12]?)="([^"]*)"', svg)
        assert len(coords) == 16  # two arrows, two vertices, two labels
        for name, value in coords:
            assert 0 <= float(value) <= (800 if "x" in name else 600)


class TestExportPly:
    def test_world_cloud(self, worked_files, tmp_path):
        _, cap = make_pipeline(tmp_path, worked_files)
        out = tmp_path / "world.ply"
        assert run(["export-ply", "--world", cap / "world.txt", "--out", out]) == 0
        text = out.read_text()
        assert text.startswith("ply\nformat ascii 1.0\n")
        assert "element vertex 300" in text

    def test_recon_cloud(self, worked_files, tmp_path):
        traj, cap = make_pipeline(tmp_path, worked_files)
        recon = tmp_path / "recon.txt"
        run(["simrecon", "--manifest", cap / "6dpose_list.txt", "--out", recon])
        out = tmp_path / "recon.ply"
        assert run(["export-ply", "--recon", recon, "--out", out]) == 0
        assert "element vertex 338" in out.read_text()


class TestCalibrate:
    def test_prints_meters_per_unit(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("0 0 0 0\n9 0 0 10\n")
        assert run(["calibrate", "--samples", samples]) == 0
        assert capsys.readouterr().out.strip() == "0.846667"

    def test_tiny_step_is_measured(self, tmp_path, capsys):
        # The square of a 1e-300 step underflows; the step is scaled up before it is squared.
        samples = tmp_path / "samples.txt"
        samples.write_text("0 0 0 1\n1e-300 0 0 1\n")
        assert run(["calibrate", "--samples", samples]) == 0
        assert capsys.readouterr().out == f"{0.762 / 1e-300:.6f}\n"

    def test_malformed_samples(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("1 2 3\n")
        assert run(["calibrate", "--samples", samples]) == 1


# sha256 of the README walkthrough outputs that pass through no BLAS or
# LAPACK kernel, so that every CPU writes the same bytes. recon.txt takes
# one (N, 3) x (3, 3) product for the gauge; written at six decimals it is
# the same under OPENBLAS_CORETYPE Prescott, Haswell and SkylakeX. A change
# to any of them must be deliberate and stated.
PINNED_SHA256 = {
    "trajectory_dense.txt": "52375c13ad7783b8059d45cef72e737949107724ccc9212863ebd2acadcd562a",
    "capture/6dpose_list.txt": "ac27c2bb015f55e31bd83815ef434ad07d6f3b5bcdd5d59936eccf7b878cbca7",
    "capture/world.txt": "f8fe1395f0942d43587f3957ecfe8dba4cfb4e69f8f3b25465c1c9b53e0ff926",
    "capture/observations.txt":
        "bf3297cb54ba6d63fc7c1322a2dc001aa608bc7df42dc75303885727ad7ca7b6",
    "snow_night/6dpose_list.txt":
        "5f5da5c2e4c2cfe13de0633b4afa160977efb01cd4bd245863d0fe9d4b6bb260",
    "snow_night/observations.txt":
        "6118961e0fe77487859b8b147efd6b2b6a42dc88d971214a72b852f8315e5e9f",
    "recon.txt": "3f894a686e4148da6f981cc47148fdb16a975d87676b24278e79d4cfd2398e17",
    "subsample.txt": "ac8a1df21b0b2833a505a53a941b3a2db389454a7c76fecfdeca1286e8553c80",
    "perturbed.txt": "78819a35be6471ecf58ab2791529d7531ceebad489d8cb9e71e294357657f088",
    "world.ply": "b91ae6e39d370a34d187524b0214fe4797abcfe80bce306b56c73f425d3b2c6f",
    "plot.svg": "e3593364ecdaf24e75fb6fd1cff80f00712e9bde78218faef8cca10086464ed0",
}


# Small input files for the error-path tests below; each test writes them
# into its own directory and runs there.
INPUTS = {
    "v2.txt": "0 0\n1 0\n",
    "v3.txt": "0 0 0\n",
    "vertex.txt": WORKED_VERTEX_TEXT,
    "vertex_order.txt": WORKED_ORDER_TEXT,
    "dup.txt": "1\n1\n",
    "gap.txt": "1\n3\n",
    "dangling.txt": "1\n2\n3\n",
    "one.txt": "1\n",
    "rots.txt": "0 0 0\n0 0 0\n",
    "dense.txt": "0 0 0 0 0 0.75 0 0 0\n",
    "manifest.txt": "a.png 0 0 0 0 0 0\n",
    "dupman.txt": "a.png 0 0 0 0 0 0\na.png 1 1 1 0 0 0\n",
    "v_huge.txt": "1e308 0\n-1e308 0\n",
    "two.txt": "1\n2\n",
    "foreign.txt": "x 0 0 0\ny 1 0 0\nz 0 1 0\n",
    "s1.txt": "0 0 0 0\n",
    "s0.txt": "0 0 0 0\n0 0 0 5\n",
    "s_huge.txt": "0 0 0 0\n1e308 0 0 1\n-1e308 0 0 1\n",
    # A stride of 1e-168 units: 1e308 m per stride overflows meters per unit.
    "s_short.txt": "0 0 0 1\n1e-150 0 0 1000000000000000000\n",
    # Reconstructed points within 1e-5 of (1e10, 1e10, 1e10), groundtruth
    # spread over +-1e295: every fit's translation overflows.
    "far_recon.txt": "".join(
        f"f{i}.png " + " ".join(f"{1e10 + 1e-5 * (i // 3 ** j % 3 - 1):.5f}" for j in range(3))
        + "\n" for i in range(20)
    ),
    "far_manifest.txt": "".join(
        f"f{i}.png {i * 7 % 19 - 9}e294 {i * 11 % 19 - 9}e294 {i * 13 % 19 - 9}e294 0 0 0\n"
        for i in range(20)
    ),
    # Groundtruth is the reconstruction times 1e10, but for f0, which the
    # reconstruction puts at 1e300: its residual overflows.
    "huge_recon.txt": "f0.png 1e300 0 0\n" + "".join(
        f"f{i}.png {i * 7 % 21 - 10}e-1 {i * 11 % 21 - 10}e-1 {i * 13 % 21 - 10}e-1\n"
        for i in range(1, 30)
    ),
    "huge_manifest.txt": "".join(
        f"f{i}.png {i * 7 % 21 - 10}e9 {i * 11 % 21 - 10}e9 {i * 13 % 21 - 10}e9 0 0 0\n"
        for i in range(30)
    ),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """``INPUTS`` written to a fresh working directory; returns that directory."""
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


# One failing run per rule the CLI enforces, with the exit code and the
# one stderr line it gives.
ERROR_CONTRACT = [
    ("duplicate step", ["expand", "--vertices", "v2.txt", "--orders", "dup.txt"],
     2, "visitation step 1 assigned more than once"),
    ("step gap", ["expand", "--vertices", "v2.txt", "--orders", "gap.txt"],
     2, "missing visitation step 2 (steps must cover 1..S without gaps)"),
    ("dangling vertex", ["expand", "--vertices", "v2.txt", "--orders", "dangling.txt"],
     2, "order sets reference vertex 3, but only 2 vertices exist"),
    ("one-point path", ["densify", "--vertices", "v2.txt", "--orders", "one.txt", "--out", "out"],
     2, "path has 1 point(s); need at least 2"),
    ("orientation count", ["densify", "--vertices", "vertex.txt", "--orders", "vertex_order.txt",
                           "--orientations", "rots.txt", "--out", "out"],
     2, "supplied orientation list has 2 entries, trajectory has 338 frames"),
    ("orientation fields", ["densify", "--vertices", "vertex.txt", "--orders",
                            "vertex_order.txt", "--orientations", "v2.txt", "--out", "out"],
     1, "expected 3 fields, got 2 (line 1)"),
    ("vertex field count", ["expand", "--vertices", "v3.txt", "--orders", "one.txt"],
     1, "expected 2 fields, got 3 (line 1)"),
    ("duplicate name", ["subsample", "--manifest", "dupman.txt", "--stride", "1", "--out", "out"],
     2, "duplicate image name 'a.png' (line 2)"),
    ("density", ["capture", "--trajectory", "dense.txt", "--out-dir", "out",
                 "--vehicle-density", "1.5"],
     2, "vehicle_density must be within [0, 1], got 1.5"),
    ("flat bounds", ["capture", "--trajectory", "dense.txt", "--out-dir", "out",
                     "--bounds", "0", "0", "0", "1", "0", "1"],
     2, "bounds have non-positive extent: [0. 0. 0.] .. [1. 0. 1.]"),
    ("overflowing bounds", ["capture", "--trajectory", "dense.txt", "--out-dir", "out",
                            "--bounds", "-1" + "0" * 308, "-1" + "0" * 308, "0",
                            "1" + "0" * 308, "1" + "0" * 308, "15"],
     1, "bounds extent exceeds the float range"),
    ("width overflow", ["capture", "--trajectory", "dense.txt", "--out-dir", "out",
                        "--width", "1" + "0" * 400],
     1, "int too large to convert to float"),
    ("plot overflow", ["plot", "--vertices", "v_huge.txt", "--orders", "two.txt", "--out", "out"],
     1, "plot extent exceeds the float range"),
    ("no shared names", ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt",
                         "--out", "out"],
     2, "0 shared image name(s); need at least 3"),
    ("translation overflow", ["align", "--recon", "far_recon.txt", "--manifest",
                              "far_manifest.txt", "--out", "out"],
     2, "best consensus holds 0 point(s); need more than 3"),
    ("residual overflow", ["align", "--recon", "huge_recon.txt", "--manifest",
                           "huge_manifest.txt", "--out", "out"],
     2, "residual of image 'f0.png' is not finite in meters"),
    ("camera height overflow", ["densify", "--vertices", "vertex.txt", "--orders",
                                "vertex_order.txt", "--out", "out", "--eye-offset-z", "1e308",
                                "--ground-z", "1e308"],
     1, "camera height ground_z + eye_offset_z must be finite"),
    ("path length overflow", ["densify", "--vertices", "v_huge.txt", "--orders", "two.txt",
                              "--out", "out"],
     1, "path length overflows the float range"),
    ("negative infinite yaw", ["simrecon", "--manifest", "manifest.txt", "--out", "out",
                               "--gauge-yaw", "-inf"],
     1, "yaw_deg must be finite, got -inf"),
    ("zero iterations", ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt",
                         "--out", "out", "--max-iterations", "0"],
     1, "max_iterations must be at least 1"),
    # The iteration budget is checked before any sample is drawn; no report.txt is written.
    ("iteration budget", ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt",
                          "--out", "report.txt", "--max-iterations", "100000000000"],
     2, "100000000000 RANSAC iterations exceed the limit of 1000000"),
    ("confidence of 1", ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt",
                         "--out", "out", "--confidence", "1"],
     1, "confidence must lie in (0, 1), got 1.0"),
    ("zero width", ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--width", "0"],
     1, "image dimensions must be positive"),
    ("plot without inputs", ["plot", "--out", "out"],
     1, "plot needs --vertices/--orders and/or --trajectory"),
    ("one sample", ["calibrate", "--samples", "s1.txt"], 2, "1 sample(s); need at least 2"),
    ("distance overflow", ["calibrate", "--samples", "s_huge.txt"],
     1, "walked distance overflows the float range"),
    ("zero distance", ["calibrate", "--samples", "s0.txt"], 2, "samples cover zero distance"),
    ("meters per unit overflow", ["calibrate", "--samples", "s_short.txt", "--stride-m", "1e308"],
     1, "meters_per_unit must be finite, got inf"),
]

USAGE_ERRORS = [
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--width", "abc"],
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--fps", "30"],
    ["densify", "--vertices", "vertex.txt", "--orders", "vertex_order.txt", "--out", "out",
     "--seed", "3"],
    ["align", "--manifest", "manifest.txt", "--out", "out"],
    [],
    # Settings that the model fixes: the minimal sample, the world seed
    # (--seed draws the world), the principal point (the image centre) and
    # the degradation of each condition.
    ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt", "--out", "out",
     "--min-sample", "3"],
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--world-seed", "1"],
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--cx", "960"],
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--degradation-table", "t.txt"],
]


class TestErrorContract:
    @pytest.mark.parametrize(
        "argv, rc, message", [case[1:] for case in ERROR_CONTRACT],
        ids=[case[0] for case in ERROR_CONTRACT],
    )
    def test_exit_code_and_message(self, inputs, capsys, argv, rc, message):
        assert main(argv) == rc
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert sorted(p.name for p in inputs.iterdir()) == sorted(INPUTS)

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=[" ".join(a) for a in USAGE_ERRORS])
    def test_usage_error_exits_1(self, inputs, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: " in captured.err.splitlines()[-1]
        assert "Traceback" not in captured.err
        assert sorted(p.name for p in inputs.iterdir()) == sorted(INPUTS)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: trajkit" in capsys.readouterr().out


class TestPinnedBytes:
    def test_walkthrough_outputs(self, tmp_path):
        d = tmp_path
        (d / "vertex.txt").write_text(WORKED_VERTEX_TEXT)
        (d / "vertex_order.txt").write_text(WORKED_ORDER_TEXT)
        for args in (
            ["densify", "--vertices", d / "vertex.txt", "--orders", d / "vertex_order.txt",
             "--out", d / "trajectory_dense.txt"],
            ["capture", "--trajectory", d / "trajectory_dense.txt", "--out-dir", d / "capture",
             "--seed", 7],
            ["capture", "--trajectory", d / "trajectory_dense.txt", "--out-dir", d / "snow_night",
             "--seed", 7, "--weather", "snow", "--time", "night"],
            ["simrecon", "--manifest", d / "capture" / "6dpose_list.txt", "--out", d / "recon.txt",
             "--gauge-scale", 0.5, "--gauge-yaw", 45, "--gauge-translate", 10, -3, 2,
             "--noise-sigma", 0.05, "--outlier-fraction", 0.2, "--outlier-radius", 5, "--seed", 7],
            ["subsample", "--manifest", d / "capture" / "6dpose_list.txt", "--stride", 7,
             "--out", d / "subsample.txt"],
            ["perturb", "--trajectory", d / "trajectory_dense.txt", "--out", d / "perturbed.txt",
             "--pos-sigma", 0.1, "--yaw-sigma", 2, "--seed", 3],
            ["export-ply", "--world", d / "capture" / "world.txt", "--out", d / "world.ply"],
            ["plot", "--vertices", d / "vertex.txt", "--orders", d / "vertex_order.txt",
             "--trajectory", d / "trajectory_dense.txt", "--out", d / "plot.svg"],
        ):
            assert run(args) == 0
        digests = {name: hashlib.sha256((d / name).read_bytes()).hexdigest()
                   for name in PINNED_SHA256}
        assert digests == PINNED_SHA256
