"""Tests for similarity estimation, robust alignment, and evaluation."""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import pytest

import trajkit as tk
from trajkit import align
from trajkit.errors import DegenerateConfiguration, InvariantViolation

from conftest import exactly, random_rotation, random_similarity


def transform_close(a: tk.SimilarityTransform, b: tk.SimilarityTransform, tol: float):
    assert abs(a.scale - b.scale) <= tol
    assert np.abs(a.rotation - b.rotation).max() <= tol
    assert np.abs(a.translation - b.translation).max() <= tol


class TestSimilarityTransform:
    def test_identity(self):
        t = tk.SimilarityTransform.identity()
        p = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(t.apply(p), p)

    def test_pure_scale(self):
        t = tk.SimilarityTransform(2.0, np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(t.apply(np.array([1.0, 1.0, 1.0])), [2.0, 2.0, 2.0])

    def test_z_rotation(self):
        t = tk.SimilarityTransform.from_z_rotation(1.0, 90.0, (0, 0, 0))
        np.testing.assert_allclose(t.apply(np.array([1.0, 0.0, 0.0])), [0.0, 1.0, 0.0], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        t = random_similarity(rng)
        pts = rng.uniform(-10, 10, (50, 3))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)

    def test_compose(self):
        rng = np.random.default_rng(1)
        a = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=5.0)
        b = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=5.0)
        p = rng.uniform(-3, 3, 3)
        np.testing.assert_allclose(a.compose(b).apply(p), a.apply(b.apply(p)), atol=1e-12)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvariantViolation):
            tk.SimilarityTransform(1.0, np.eye(3) * 1.001, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(InvariantViolation):
            tk.SimilarityTransform(1.0, np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_non_positive_scale(self):
        with pytest.raises(InvariantViolation):
            tk.SimilarityTransform(0.0, np.eye(3), np.zeros(3))


class TestUmeyama:
    def test_identity_on_equal_sets(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 1.7]], dtype=float)
        t = tk.umeyama(src, src)
        transform_close(t, tk.SimilarityTransform.identity(), 1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(7)
        src = rng.uniform(-5, 5, (10, 3))
        true = tk.SimilarityTransform.from_z_rotation(2.0, 90.0, (1.0, 2.0, 3.0))
        recovered = tk.umeyama(src, true.apply(src))
        transform_close(recovered, true, 1e-9)

    @pytest.mark.parametrize("scale", [1e170, 1e-170])
    def test_extreme_gauge_scale_recovered(self, scale):
        # Squares of these coordinates overflow (1e170) or underflow (1e-170).
        rng = np.random.default_rng(12)
        src = rng.uniform(-5, 5, (30, 3))
        rot = random_rotation(rng)
        translation = scale * np.array([4.0, -1.0, 2.0])
        dst = scale * src @ rot.T + translation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            forward = tk.umeyama(src, dst)
            backward = tk.umeyama(dst, src)
        assert forward.scale == pytest.approx(scale, rel=1e-9)
        np.testing.assert_allclose(forward.rotation, rot, rtol=0, atol=1e-9)
        np.testing.assert_allclose(forward.translation, translation, rtol=1e-9, atol=0)
        assert backward.scale == pytest.approx(1.0 / scale, rel=1e-9)
        np.testing.assert_allclose(backward.rotation, rot.T, rtol=0, atol=1e-9)
        np.testing.assert_allclose(backward.apply(dst), src, rtol=0, atol=1e-9)

    def test_scale_beyond_float_range_rejected(self):
        src = np.random.default_rng(13).uniform(-5, 5, (10, 3))
        with pytest.raises(DegenerateConfiguration):
            tk.umeyama(1e-200 * src, 1e200 * src)

    def test_collinear_rejected(self):
        src = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            tk.umeyama(src, src)

    def test_coincident_rejected(self):
        src = np.ones((5, 3))
        with pytest.raises(DegenerateConfiguration):
            tk.umeyama(src, src)

    def test_two_points_rejected(self):
        src = np.array([[0, 0, 0], [1, 0, 0]], dtype=float)
        with pytest.raises(DegenerateConfiguration):
            tk.umeyama(src, src)

    def test_length_mismatch(self):
        message = "point sets differ in length: 4 vs 5"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.umeyama(np.zeros((4, 3)), np.zeros((5, 3)))

    def test_planar_configuration_ok(self):
        # Coplanar (but not collinear) sources still determine the fit.
        rng = np.random.default_rng(9)
        src = np.column_stack([rng.uniform(-5, 5, (8, 2)), np.zeros(8)])
        true = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=10.0)
        recovered = tk.umeyama(src, true.apply(src))
        transform_close(recovered, true, 1e-9)

    def test_equivariance_under_rigid_motion(self):
        # Moving the target by a rigid g moves the estimate by g.
        rng = np.random.default_rng(10)
        src = rng.uniform(-5, 5, (15, 3))
        dst = random_similarity(rng, scale_range=(0.5, 2.0)).apply(src) + rng.normal(
            0, 0.01, (15, 3)
        )
        g = tk.SimilarityTransform(1.0, random_rotation(rng), rng.uniform(-5, 5, 3))
        direct = tk.umeyama(src, g.apply(dst))
        composed = g.compose(tk.umeyama(src, dst))
        transform_close(direct, composed, 1e-9)

    def test_optimality_falsification(self):
        # The closed-form optimum beats 1,000 random candidates near it.
        rng = np.random.default_rng(11)
        src = rng.uniform(-5, 5, (30, 3))
        dst = random_similarity(rng, scale_range=(0.5, 2.0)).apply(src)
        dst = dst + rng.normal(0, 0.2, dst.shape)
        best = tk.umeyama(src, dst)
        best_cost = (align.residuals(best, src, dst) ** 2).sum()
        for _ in range(1000):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.normal(0, 0.02)
            k = np.array([
                [0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]
            ])
            wobble = (
                np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
            )
            candidate = tk.SimilarityTransform(
                best.scale * float(np.exp(rng.normal(0, 0.02))),
                wobble @ best.rotation,
                best.translation + rng.normal(0, 0.02, 3),
            )
            cost = (align.residuals(candidate, src, dst) ** 2).sum()
            assert cost >= best_cost - 1e-9


class TestRansacAlign:
    def _clean_instance(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        src = rng.uniform(-20, 20, (n, 3))
        true = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=20.0)
        return src, true.apply(src), true

    def test_clean_data_all_inliers_matches_umeyama(self):
        src, dst, _ = self._clean_instance()
        transform, mask = tk.ransac_align(src, dst, tk.RansacParams(seed=1))
        assert mask.all()
        transform_close(transform, tk.umeyama(src, dst), 1e-9)

    def test_outliers_rejected(self):
        # 100 points, 30 radial outliers far beyond the threshold,
        # Gaussian inlier noise well inside it.
        rng = np.random.default_rng(5)
        gt = rng.uniform(-50, 50, (100, 3))
        manifest = tk.CaptureManifest(
            tuple(f"f{i}.png" for i in range(len(gt))), gt, np.zeros_like(gt)
        )
        recon = tk.simulate_reconstruction(
            manifest, tk.SimilarityTransform.identity(),
            noise_sigma=0.05, outlier_fraction=0.3, outlier_radius=5.0, seed=6,
        )
        src = recon.positions
        params = tk.RansacParams(threshold=0.3, seed=7)
        transform, mask = tk.ransac_align(src, gt, params)

        from trajkit.simworld import outlier_indices
        out_idx = outlier_indices(100, 0.3, 6)
        inlier_idx = np.setdiff1d(np.arange(100), out_idx)
        assert mask[inlier_idx].mean() >= 0.99
        assert not mask[out_idx].any()
        transform_close(transform, tk.SimilarityTransform.identity(), 5e-2)

    def test_pure_noise_gives_no_consensus(self):
        rng = np.random.default_rng(8)
        src = rng.uniform(-100, 100, (50, 3))
        dst = rng.uniform(-100, 100, (50, 3))
        message = "best consensus holds 0 point(s); need more than 3"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.ransac_align(src, dst, tk.RansacParams(threshold=1e-6, max_iterations=200, seed=9))

    def test_deterministic(self):
        src, dst, _ = self._clean_instance(seed=3)
        dst = dst + np.random.default_rng(4).normal(0, 0.05, dst.shape)
        t1, m1 = tk.ransac_align(src, dst, tk.RansacParams(seed=11))
        t2, m2 = tk.ransac_align(src, dst, tk.RansacParams(seed=11))
        transform_close(t1, t2, 0.0)
        np.testing.assert_array_equal(m1, m2)

    def test_too_few_points(self):
        with pytest.raises(InvariantViolation, match=exactly("2 correspondences, need at least 3")):
            tk.ransac_align(np.zeros((2, 3)), np.zeros((2, 3)), tk.RansacParams())

    def test_brute_force_equivalence_small_n(self):
        # Exhaustive enumeration of all minimal samples, with the same
        # scoring rules, picks the same consensus set.
        rng = np.random.default_rng(15)
        for trial in range(10):
            n = int(rng.integers(4, 7))
            src = rng.uniform(-10, 10, (n, 3))
            true = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=10.0)
            dst = true.apply(src) + rng.normal(0, 0.02, (n, 3))
            k = int(rng.integers(0, 2))
            if k and n >= 5:
                dst[0] += 40.0  # one gross outlier
            params = tk.RansacParams(
                threshold=0.2, max_iterations=2000, confidence=1 - 1e-12, seed=trial
            )

            best = None
            for combo in itertools.combinations(range(n), 3):
                try:
                    hyp = tk.umeyama(src[list(combo)], dst[list(combo)])
                except DegenerateConfiguration:
                    continue
                res = align.residuals(hyp, src, dst)
                mask = res < params.threshold
                count = int(mask.sum())
                if count == 0:
                    continue
                key = (-count, float(res[mask].mean()))
                if best is None or key < best[0]:
                    best = (key, mask)
            count = 0 if best is None else int(best[1].sum())
            if count < 4:
                message = f"best consensus holds {count} point(s); need more than 3"
                with pytest.raises(InvariantViolation, match=exactly(message)):
                    tk.ransac_align(src, dst, params)
                continue
            refit = tk.umeyama(src[best[1]], dst[best[1]])
            expected_mask = align.residuals(refit, src, dst) < params.threshold

            _, mask = tk.ransac_align(src, dst, params)
            np.testing.assert_array_equal(mask, expected_mask)


def build_pair(gt, gauge, **sim_kwargs):
    names = tuple(f"frame_{i:06d}.png" for i in range(len(gt)))
    manifest = tk.CaptureManifest(names, gt, np.zeros_like(gt))
    recon = tk.simulate_reconstruction(manifest, gauge, **sim_kwargs)
    return recon, manifest


class TestEvaluate:
    def test_exact_recovery_reports_zero(self):
        rng = np.random.default_rng(20)
        gt = rng.uniform(-30, 30, (50, 3))
        gauge = tk.SimilarityTransform.from_z_rotation(0.5, 120.0, (7.0, -1.0, 2.0))
        recon, manifest = build_pair(gt, gauge)
        report = tk.evaluate(recon, manifest, tk.RansacParams(seed=21))
        assert report.average_error_m <= 1e-9
        assert report.median_error_m <= 1e-9
        assert report.inlier_mask.all()

    def test_error_statistics_even_count(self):
        assert align.error_statistics([0.1, 0.2, 0.3, 0.4]) == (
            pytest.approx(0.25), pytest.approx(0.25)
        )

    def test_error_statistics_odd_count(self):
        mean, median = align.error_statistics([0.1, 0.5, 0.2])
        assert mean == pytest.approx(0.8 / 3)
        assert median == pytest.approx(0.2)

    def test_errors_scale_linearly_with_meters_per_unit(self):
        rng = np.random.default_rng(22)
        gt = rng.uniform(-30, 30, (40, 3))
        recon, manifest = build_pair(
            gt, tk.SimilarityTransform.identity(), noise_sigma=0.05, seed=23
        )
        params = tk.RansacParams(seed=24)
        r1 = tk.evaluate(recon, manifest, params, meters_per_unit=0.8)
        r2 = tk.evaluate(recon, manifest, params, meters_per_unit=1.6)
        assert r2.average_error_m == pytest.approx(2 * r1.average_error_m, rel=1e-12)
        assert r2.median_error_m == pytest.approx(2 * r1.median_error_m, rel=1e-12)

    def test_statistics_cover_all_points_not_just_inliers(self):
        rng = np.random.default_rng(25)
        gt = rng.uniform(-30, 30, (50, 3))
        recon, manifest = build_pair(
            gt, tk.SimilarityTransform.identity(),
            noise_sigma=0.0, outlier_fraction=0.2, outlier_radius=10.0, seed=26,
        )
        report = tk.evaluate(recon, manifest, tk.RansacParams(seed=27))
        assert int(report.inlier_mask.sum()) == 40
        assert len(report.residuals_m) == 50
        # Outlier displacement of >= 10 units dominates the mean.
        assert report.average_error_m > 10.0 * report.meters_per_unit * 0.2 * 0.9

    def test_matching_by_name_subset(self):
        rng = np.random.default_rng(28)
        gt = rng.uniform(-30, 30, (30, 3))
        recon, manifest = build_pair(gt, tk.SimilarityTransform.identity())
        partial = tk.ReconstructedSet(recon.names[::2], recon.positions[::2])
        report = tk.evaluate(partial, manifest, tk.RansacParams(seed=29))
        assert len(report.residuals_m) == 15
        assert report.names == manifest.names[::2]

    def test_matching_ignores_reconstruction_order_and_foreign_names(self):
        rng = np.random.default_rng(31)
        gt = rng.uniform(-30, 30, (30, 3))
        recon, manifest = build_pair(
            gt, tk.SimilarityTransform.identity(), noise_sigma=0.05, seed=32
        )
        order = rng.permutation(30)
        shuffled = tk.ReconstructedSet(
            ("foreign_a.png", *(recon.names[i] for i in order), "foreign_b.png"),
            np.vstack([[(1e3, 0, 0)], recon.positions[order], [(0, 1e3, 0)]]),
        )
        params = tk.RansacParams(seed=33)
        ordered = tk.evaluate(recon, manifest, params)
        report = tk.evaluate(shuffled, manifest, params)
        assert report.names == manifest.names
        np.testing.assert_array_equal(report.residuals_m, ordered.residuals_m)
        np.testing.assert_array_equal(report.inlier_mask, ordered.inlier_mask)

    def test_insufficient_overlap(self):
        rng = np.random.default_rng(30)
        gt = rng.uniform(-30, 30, (10, 3))
        _, manifest = build_pair(gt, tk.SimilarityTransform.identity())
        foreign = tk.ReconstructedSet(("other.png",), [(0.0, 0.0, 0.0)])
        message = "0 shared image name(s); need at least 3"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.evaluate(foreign, manifest)


class TestCalibrateUnitScale:
    def test_reference_stride(self):
        # 9 units in 10 steps: 0.9 units per stride, about 0.85 m per unit.
        samples = [((0.0, 0.0, 0.0), 0), ((9.0, 0.0, 0.0), 10)]
        value = tk.calibrate_unit_scale(samples)
        assert value == pytest.approx(0.762 / 0.9, abs=1e-15)
        assert abs(value - 0.84667) < 0.005

    def test_multi_sample_walk(self):
        samples = [
            ((0.0, 0.0, 0.0), 0),
            ((1.8, 0.0, 0.0), 2),
            ((4.5, 0.0, 0.0), 3),
            ((6.3, 0.0, 0.0), 2),
            ((9.0, 0.0, 0.0), 3),
        ]
        assert tk.calibrate_unit_scale(samples) == pytest.approx(0.762 / 0.9, abs=1e-12)

    def test_definitional_case(self):
        samples = [((0.0, 0.0, 0.0), 0), ((0.762, 0.0, 0.0), 1)]
        assert tk.calibrate_unit_scale(samples) == pytest.approx(1.0, abs=1e-15)

    def test_custom_stride_length(self):
        samples = [((0.0, 0.0, 0.0), 0), ((2.0, 0.0, 0.0), 2)]
        assert tk.calibrate_unit_scale(samples, stride_m=1.0) == pytest.approx(1.0)

    def test_zero_distance(self):
        with pytest.raises(InvariantViolation, match=exactly("samples cover zero distance")):
            tk.calibrate_unit_scale([((1.0, 1.0, 1.0), 0), ((1.0, 1.0, 1.0), 2)])

    def test_too_few_samples(self):
        with pytest.raises(InvariantViolation, match=exactly("1 sample(s); need at least 2")):
            tk.calibrate_unit_scale([((0.0, 0.0, 0.0), 0)])

    def test_bad_step_count(self):
        with pytest.raises(ValueError):
            tk.calibrate_unit_scale([((0.0, 0.0, 0.0), 0), ((1.0, 0.0, 0.0), 0)])

    def test_default_constant_matches_reference(self):
        assert tk.DEFAULT_METERS_PER_UNIT == pytest.approx(0.762 / 0.9)
