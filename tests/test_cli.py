"""Command-line tests, run in-process through cli.main()."""

from __future__ import annotations

import hashlib

import pytest

from trajkit import poseio, simworld
from trajkit.cli import main

from conftest import WORKED_ORDER_TEXT, WORKED_VERTEX_TEXT


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
        vertex, order = worked_files
        rots = tmp_path / "rots.txt"
        rots.write_text("".join(f"0 0 {i % 360}\n" for i in range(338)))
        out = tmp_path / "t.txt"
        assert run([
            "densify", "--vertices", vertex, "--orders", order,
            "--out", out, "--orientations", rots,
        ]) == 0
        dense = poseio.read_dense(out.read_text())
        assert dense.rotation[5, 2] == 5.0

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


NON_FINITE_FLAGS = [
    ("simrecon", ["--gauge-scale", "inf"]),
    ("simrecon", ["--gauge-yaw", "nan"]),
    ("simrecon", ["--gauge-translate", "nan", "0", "0"]),
    ("simrecon", ["--noise-sigma", "nan"]),
    ("simrecon", ["--noise-sigma", "inf"]),
    ("simrecon", ["--outlier-radius", "nan"]),
    ("simrecon", ["--outlier-radius", "1e308", "--outlier-fraction", "0.2"]),
    ("capture", ["--pixel-sigma", "nan"]),
    ("capture", ["--pixel-sigma", "1e308"]),
    ("capture", ["--focal", "nan"]),
    ("capture", ["--focal", "inf"]),
    ("capture", ["--max-range", "nan"]),
    ("capture", ["--bounds", "nan", "0", "0", "10", "10", "10"]),
    ("capture", ["--vehicle-density", "nan"]),
    ("align", ["--meters-per-unit", "nan"]),
    ("align", ["--meters-per-unit", "-1"]),
    ("align", ["--threshold", "nan"]),
    ("calibrate", ["--stride-m", "nan"]),
    ("calibrate", ["--stride-m", "-1"]),
]


class TestNumericFlags:
    """A numeric flag outside its domain is an input error: exit 1, nothing written."""

    @pytest.mark.parametrize(
        "command, flags", NON_FINITE_FLAGS, ids=[" ".join([c, *f]) for c, f in NON_FINITE_FLAGS]
    )
    def test_rejected_without_output(self, walkthrough, tmp_path, capsys, command, flags):
        d, out = walkthrough, tmp_path / "out"
        args = {
            "simrecon": ["--manifest", d / "capture" / "6dpose_list.txt", "--out", out],
            "capture": ["--trajectory", d / "trajectory_dense.txt", "--seed", 7, "--out-dir", out],
            "align": ["--recon", d / "recon.txt", "--manifest", d / "capture" / "6dpose_list.txt",
                      "--out", out],
            "calibrate": ["--samples", d / "samples.txt"],
        }[command]
        assert run([command, *args, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert list(tmp_path.iterdir()) == []

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

    def test_align_handles_huge_gauge_scale(self, walkthrough, tmp_path, capsys):
        # Squaring these reconstruction coordinates would overflow.
        manifest, recon = walkthrough / "capture" / "6dpose_list.txt", tmp_path / "recon.txt"
        assert run(["simrecon", "--manifest", manifest, "--out", recon, "--gauge-scale", "1e170",
                    "--outlier-fraction", "0.2", "--outlier-radius", "5", "--seed", 7]) == 0
        assert run(["align", "--recon", recon, "--manifest", manifest,
                    "--out", tmp_path / "report.txt"]) == 0
        assert "inliers 338/338" in capsys.readouterr().out


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

    def test_malformed_samples(self, tmp_path, capsys):
        samples = tmp_path / "samples.txt"
        samples.write_text("1 2 3\n")
        assert run(["calibrate", "--samples", samples]) == 1


# sha256 of the README walkthrough outputs that pass through no BLAS or
# LAPACK kernel, so that every CPU writes the same bytes. A change to any
# of them must be deliberate and stated.
PINNED_SHA256 = {
    "trajectory_dense.txt": "52375c13ad7783b8059d45cef72e737949107724ccc9212863ebd2acadcd562a",
    "capture/6dpose_list.txt": "ac27c2bb015f55e31bd83815ef434ad07d6f3b5bcdd5d59936eccf7b878cbca7",
    "capture/world.txt": "b592726aaf7cf051fab5527dbcb596cbbaff56c86ef703177bf55adf61276f56",
    "snow_night/6dpose_list.txt":
        "5f5da5c2e4c2cfe13de0633b4afa160977efb01cd4bd245863d0fe9d4b6bb260",
    "subsample.txt": "ac8a1df21b0b2833a505a53a941b3a2db389454a7c76fecfdeca1286e8553c80",
    "perturbed.txt": "d0532c006918779e84ef710ec13e716c9ca21722d11e17bc59c47fb6dd7ba3a4",
    "world.ply": "b479af6db012bdf1145e923dc04cb71056abed4023ad94248a321b09e1909fe3",
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
    "no_snow.txt": "clear 1\nrain 1.5\nday 0\nnight 0.3\n",
    "foreign.txt": "x 0 0 0\ny 1 0 0\nz 0 1 0\n",
    "s1.txt": "0 0 0 0\n",
    "s0.txt": "0 0 0 0\n0 0 0 5\n",
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
    ("table entry", ["capture", "--trajectory", "dense.txt", "--out-dir", "out",
                     "--weather", "snow", "--degradation-table", "no_snow.txt"],
     1, "no noise multiplier for weather 'snow'"),
    ("no shared names", ["align", "--recon", "foreign.txt", "--manifest", "manifest.txt",
                         "--out", "out"],
     2, "0 shared image name(s); need at least 3"),
    ("one sample", ["calibrate", "--samples", "s1.txt"], 2, "1 sample(s); need at least 2"),
    ("zero distance", ["calibrate", "--samples", "s0.txt"], 2, "samples cover zero distance"),
]

USAGE_ERRORS = [
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--width", "abc"],
    ["capture", "--trajectory", "dense.txt", "--out-dir", "out", "--fps", "30"],
    ["densify", "--vertices", "vertex.txt", "--orders", "vertex_order.txt", "--out", "out",
     "--seed", "3"],
    ["align", "--manifest", "manifest.txt", "--out", "out"],
    [],
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
