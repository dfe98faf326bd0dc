"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts both its numeric tolerance and its runtime budget.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import trajkit as tk
from trajkit import align, poseio
from trajkit.cli import main as cli_main
from trajkit.errors import DegenerateConfiguration
from trajkit.simworld import outlier_indices

from conftest import (
    WORKED_ORDER_TEXT,
    WORKED_PATH,
    WORKED_VERTEX_TEXT,
    brute_force_walk,
    random_polyline_sparse,
    random_rotation,
)

# Mean and median of the norm of a standard 3D Gaussian, used by the
# error-statistic calibration criterion (validated by Monte Carlo below).
MEAN_NORM_3D = 1.5958
MEDIAN_NORM_3D = 1.5382


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


def worked_sparse() -> tk.SparseTrajectory:
    return tk.read_sparse(WORKED_VERTEX_TEXT, WORKED_ORDER_TEXT)


def test_criterion_1_visitation_expansion_exact():
    with criterion(1, "worked visitation index expands exactly, < 1 ms"):
        sparse = worked_sparse()
        tk.expand_visitation(sparse)  # warm-up
        start = time.perf_counter()
        path = tk.expand_visitation(sparse)
        elapsed = time.perf_counter() - start
        assert path == WORKED_PATH  # zero tolerance
        assert elapsed < 1e-3


def test_criterion_2_unit_conversion():
    with criterion(2, "0.9-unit stride converts to 0.84667 m/unit, < 1 ms"):
        samples = [((0.0, 0.0, 0.0), 0), ((9.0, 0.0, 0.0), 10)]
        tk.calibrate_unit_scale(samples)  # warm-up
        start = time.perf_counter()
        value = tk.calibrate_unit_scale(samples)
        elapsed = time.perf_counter() - start
        assert value == pytest.approx(0.762 / 0.9, abs=1e-15)  # exact formula
        assert abs(value - 0.762 / 0.9) < 0.005  # the 0.846-recurring target
        assert abs(value - 0.85) < 0.005  # consistent with ~0.85 m per unit
        assert elapsed < 1e-3


def test_criterion_3_umeyama_recovery():
    with criterion(3, "1000 construct/recover fits < 1e-9; collinear rejected, < 5 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(300)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(3, 501))
            src = rng.uniform(-10.0, 10.0, (n, 3))
            true = tk.SimilarityTransform(
                float(rng.uniform(0.1, 10.0)),
                random_rotation(rng),
                rng.uniform(-100.0, 100.0, 3),
            )
            recovered = tk.umeyama(src, true.apply(src))
            worst = max(
                worst,
                abs(recovered.scale - true.scale),
                float(np.abs(recovered.rotation - true.rotation).max()),
                float(np.abs(recovered.translation - true.translation).max()),
            )
        assert worst < 1e-9

        rejected = 0
        for _ in range(100):
            n = int(rng.integers(3, 51))
            base = rng.uniform(-10, 10, 3)
            direction = rng.standard_normal(3)
            src = base + np.outer(rng.uniform(-5, 5, n), direction)
            try:
                tk.umeyama(src, src + 1.0)
            except DegenerateConfiguration:
                rejected += 1
        assert rejected == 100

        assert time.perf_counter() - start < 5.0


def test_criterion_4_ransac_robustness():
    with criterion(4, "100 trials, 30% far outliers: >=99 recoveries, 0 admitted, < 30 s"):
        start = time.perf_counter()
        threshold = 0.5
        params_base = dict(threshold=threshold, max_iterations=2000, confidence=0.999)
        successes = 0
        admitted_outliers = 0
        for trial in range(100):
            rng = np.random.default_rng(4000 + trial)
            gt = rng.uniform(-80.0, 80.0, (100, 3))
            manifest = tk.CaptureManifest(
                tuple(f"frame_{i:06d}.png" for i in range(len(gt))), gt, np.zeros_like(gt)
            )
            gauge_scale = float(rng.uniform(0.5, 2.0))
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            gauge = tk.SimilarityTransform(
                gauge_scale, random_rotation(rng), direction * rng.uniform(60.0, 100.0)
            )
            # Noise / outlier radius are scaled by the gauge so that, after
            # alignment back into the groundtruth frame, inlier noise has
            # sigma = threshold / 6 and outliers sit >= 10 * threshold out.
            recon = tk.simulate_reconstruction(
                manifest, gauge,
                noise_sigma=gauge_scale * threshold / 6.0,
                outlier_fraction=0.3,
                outlier_radius=gauge_scale * 10.0 * threshold,
                seed=trial,
            )
            transform, mask = tk.ransac_align(
                recon.positions, gt, tk.RansacParams(seed=trial, **params_base)
            )
            out_idx = outlier_indices(100, 0.3, trial)
            admitted_outliers += int(mask[out_idx].sum())

            true = gauge.inverse()
            scale_err = abs(transform.scale - true.scale) / true.scale
            rot_err = float(
                np.linalg.norm(transform.rotation - true.rotation) / math.sqrt(3.0)
            )
            t_err = float(
                np.linalg.norm(transform.translation - true.translation)
                / max(1.0, np.linalg.norm(true.translation))
            )
            if max(scale_err, rot_err, t_err) < 1e-3:
                successes += 1

        assert successes >= 99
        assert admitted_outliers == 0
        assert time.perf_counter() - start < 30.0


def test_criterion_5_error_statistic_calibration():
    with criterion(5, "reported errors track the 3D Gaussian norm constants, < 10 s"):
        start = time.perf_counter()
        # Monte Carlo oracle for the constants, 1e6 draws.
        rng = np.random.default_rng(555)
        norms = np.linalg.norm(rng.standard_normal((1_000_000, 3)), axis=1)
        assert abs(norms.mean() - MEAN_NORM_3D) < 0.005
        assert abs(np.median(norms) - MEDIAN_NORM_3D) < 0.005

        sigma_m = 0.12
        meters_per_unit = tk.DEFAULT_METERS_PER_UNIT
        sigma_units = sigma_m / meters_per_unit
        gt = rng.uniform(-50.0, 50.0, (305, 3))
        manifest = tk.CaptureManifest(
            tuple(f"frame_{i:06d}.png" for i in range(len(gt))), gt, np.zeros_like(gt)
        )
        recon = tk.simulate_reconstruction(
            manifest, tk.SimilarityTransform.identity(), noise_sigma=sigma_units, seed=56
        )
        report = tk.evaluate(
            recon, manifest, tk.RansacParams(seed=57), meters_per_unit=meters_per_unit
        )
        assert report.average_error_m == pytest.approx(MEAN_NORM_3D * sigma_m, rel=0.15)
        assert report.median_error_m == pytest.approx(MEDIAN_NORM_3D * sigma_m, rel=0.15)
        assert time.perf_counter() - start < 10.0


def test_criterion_6_format_round_trips():
    with criterion(6, "10k-line round trips byte-identical; exact record line, < 5 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(600)

        n = 10_000
        dense = tk.DenseTrajectory(
            rng.uniform(-2000, 2000, (n, 3)),
            rng.uniform(-2000, 2000, (n, 3)),
            rng.uniform(-360, 360, (n, 3)),
        )
        text = tk.write_dense(dense)
        assert tk.write_dense(tk.read_dense(text)) == text

        poses = [(rng.uniform(-2000, 2000, 3), rng.uniform(-360, 360, 3)) for _ in range(n)]
        manifest = tk.CaptureManifest(
            tuple(f"frame_{i:06d}.png" for i in range(n)),
            [camera for camera, _ in poses], [rotation for _, rotation in poses],
            tk.ConditionSet(tk.Weather.RAIN),
        )
        mtext = tk.write_manifest(manifest)
        assert tk.write_manifest(tk.read_manifest(mtext)) == mtext

        single = tk.CaptureManifest(("frame_000000.png",), [(1, 2, 3)], [(0, 0, 90)])
        data_lines = [l for l in tk.write_manifest(single).splitlines() if not l.startswith("#")]
        assert data_lines == [
            "frame_000000.png 1.000000 2.000000 3.000000 0.000000 0.000000 90.000000"
        ]
        assert time.perf_counter() - start < 5.0


def test_criterion_7_densification_oracle():
    with criterion(7, "200 random polylines match the brute-force walker, < 5 s"):
        start = time.perf_counter()
        rng = np.random.default_rng(700)
        for _ in range(200):
            sparse = random_polyline_sparse(rng)
            speed = float(rng.uniform(0.5, 3.0))
            fps = float(rng.uniform(10.0, 90.0))
            dense = tk.densify(sparse, tk.DensifyParams(speed=speed, fps=fps))
            points, _ = tk.path_polyline(sparse)
            expected = brute_force_walk(points, speed, fps)
            assert len(dense) == len(expected)
            np.testing.assert_allclose(
                dense.protagonist[:, :2], np.array(expected), atol=1e-9
            )
        assert time.perf_counter() - start < 5.0


def _write_worked_inputs(tmp_path):
    vertex = tmp_path / "vertex.txt"
    order = tmp_path / "vertex_order.txt"
    vertex.write_text(WORKED_VERTEX_TEXT)
    order.write_text(WORKED_ORDER_TEXT)
    return vertex, order


def test_criterion_8_condition_pose_independence(tmp_path):
    with criterion(8, "captures differing only in conditions share pose bytes, < 5 s"):
        start = time.perf_counter()
        vertex, order = _write_worked_inputs(tmp_path)
        traj = tmp_path / "trajectory_dense.txt"
        assert cli_main([
            "densify", "--vertices", str(vertex), "--orders", str(order), "--out", str(traj)
        ]) == 0

        variants = [
            ("clear", "day", "0.0", "0.0"),
            ("snow", "night", "1.0", "0.7"),
        ]
        pose_columns = []
        for i, (weather, tod, veh, ped) in enumerate(variants):
            out_dir = tmp_path / f"cap{i}"
            assert cli_main([
                "capture", "--trajectory", str(traj), "--out-dir", str(out_dir),
                "--seed", "7", "--landmark-count", "200",
                "--weather", weather, "--time", tod,
                "--vehicle-density", veh, "--pedestrian-density", ped,
            ]) == 0
            lines = (out_dir / "6dpose_list.txt").read_bytes().split(b"\n")
            pose_columns.append(
                [b" ".join(l.split(b" ")[1:]) for l in lines if l and not l.startswith(b"#")]
            )
        assert pose_columns[0] == pose_columns[1]
        assert time.perf_counter() - start < 5.0


def test_criterion_9_end_to_end_identity(tmp_path):
    with criterion(9, "identity pipeline reports 0 m within 1e-9, < 10 s"):
        start = time.perf_counter()
        vertex, order = _write_worked_inputs(tmp_path)
        traj = tmp_path / "trajectory_dense.txt"
        cap = tmp_path / "cap"
        recon = tmp_path / "recon.txt"
        report_path = tmp_path / "report.txt"

        assert cli_main([
            "expand", "--vertices", str(vertex), "--orders", str(order)
        ]) == 0
        assert cli_main([
            "densify", "--vertices", str(vertex), "--orders", str(order), "--out", str(traj)
        ]) == 0
        assert cli_main([
            "capture", "--trajectory", str(traj), "--out-dir", str(cap),
            "--seed", "11", "--landmark-count", "300", "--pixel-sigma", "0",
        ]) == 0
        assert cli_main([
            "simrecon", "--manifest", str(cap / "6dpose_list.txt"),
            "--out", str(recon), "--seed", "12",
        ]) == 0
        assert cli_main([
            "align", "--recon", str(recon), "--manifest", str(cap / "6dpose_list.txt"),
            "--out", str(report_path), "--seed", "13",
        ]) == 0

        report = poseio.read_report(report_path.read_text())
        assert report.average_error_m <= 1e-9
        assert report.median_error_m <= 1e-9
        assert report.inlier_mask.all()
        assert time.perf_counter() - start < 10.0
