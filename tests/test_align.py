"""Tests for similarity estimation, robust alignment, and evaluation."""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trajkit as tk
from trajkit import align
from trajkit.errors import DegenerateConfiguration, InvariantViolation
from trajkit.rng import PREVERIFY, keyed_uniform

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

    @pytest.mark.parametrize("src_offset, dst_spread, message", [
        (1e10, 1e295, "estimated translation exceeds the float range"),
        (1.5e308, 1.0, "centred points exceed the float range"),
    ])
    def test_fit_beyond_float_range_rejected(self, src_offset, dst_spread, message):
        # scale * rotation @ mean(src) overflows; or the mean of src does.
        rng = np.random.default_rng(14)
        src = src_offset + 1e-5 * rng.uniform(-1, 1, (20, 3))
        dst = dst_spread * rng.uniform(-1, 1, (20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateConfiguration, match=exactly(message)):
                tk.umeyama(src, dst)

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
        fit = tk.umeyama(src, dst)
        np.testing.assert_allclose(direct.apply(src), g.apply(fit.apply(src)), rtol=0, atol=1e-9)
        assert abs(direct.scale - fit.scale) <= 1e-9

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


def scalar_fit(src, dst):
    """The closed-form fit of one point set in scalar steps: the reference for fit_similarities."""
    n = len(src)
    mu_src, mu_dst = src.mean(axis=0), dst.mean(axis=0)
    src_e = math.frexp(float(np.abs(src - mu_src).max()))[1]
    dst_e = math.frexp(float(np.abs(dst - mu_dst).max()))[1]
    src_c, dst_c = np.ldexp(src - mu_src, -src_e), np.ldexp(dst - mu_dst, -dst_e)
    u, d, vt = np.linalg.svd(dst_c.T @ src_c / n)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2] = -1.0
    rotation = u @ np.diag(sign) @ vt
    scale = math.ldexp(float((d * sign).sum() / ((src_c ** 2).sum() / n)), dst_e - src_e)
    return scale, rotation, mu_dst - scale * rotation @ mu_src


class TestFitSimilarities:
    @pytest.mark.parametrize("n", [3, 4, 50])
    def test_rows_match_single_fits(self, n):
        rng = np.random.default_rng(40 + n)
        src = rng.uniform(-10, 10, (64, n, 3))
        dst = np.stack([random_similarity(rng).apply(p) for p in src])
        dst[32:] += rng.normal(0, 0.5, (32, n, 3))
        src[1] = 1.0                                            # coincident
        src[2, 2] = 2 * src[2, 1] - src[2, 0]                   # collinear
        src[2, 3:] = 3 * src[2, 1] - 2 * src[2, 0]
        src[3], dst[3] = 1e-200 * src[3], 1e200 * dst[3]        # scale overflows
        dst[4] = 1.0                                            # scale 0
        src[5] = 1e10 + 1e-6 * src[5]                           # translation overflows
        dst[5] = 1e294 * dst[5]
        src[6] = 1.5e308 + 1e292 * src[6]                       # centring overflows
        scale, rotation, translation, fault = align.fit_similarities(src, dst)
        assert sorted(fault[:7].tolist()) == list(range(len(align.FAULTS)))
        for b in range(len(src)):
            try:
                single = tk.umeyama(src[b], dst[b])
            except DegenerateConfiguration as exc:
                assert fault[b] and str(exc) == align.FAULTS[fault[b]]
                continue
            assert fault[b] == 0
            assert scale[b] == single.scale
            np.testing.assert_array_equal(rotation[b], single.rotation)
            np.testing.assert_array_equal(translation[b], single.translation)
            reference = scalar_fit(src[b], dst[b])
            assert scale[b] == reference[0]
            np.testing.assert_array_equal(rotation[b], reference[1])
            np.testing.assert_array_equal(translation[b], reference[2])


def svd_rule_faults(src, dst) -> np.ndarray:
    """fit_similarities' fault codes by the SVD rule: the singular values s of each centred,
    unit-extent source slab say coincident (s0 <= 0) and collinear (s1 <= 1e-9 s0)."""
    with np.errstate(all="ignore"):
        src_c, _ = align._unit_extent(src - src.mean(axis=1)[:, None])
        dst_c, _ = align._unit_extent(dst - dst.mean(axis=1)[:, None])
    finite = np.isfinite(src_c).all(axis=(1, 2)) & np.isfinite(dst_c).all(axis=(1, 2))
    sv = np.linalg.svd(np.where(finite[:, None, None], src_c, 0.0), compute_uv=False)
    scale, _, translation, _ = align.fit_similarities(src, dst)
    failed = np.array([
        ~finite, sv[:, 0] <= 0.0, sv[:, 1] <= 1e-9 * sv[:, 0], ~np.isfinite(scale),
        scale <= 0.0, ~np.isfinite(translation).all(axis=1),
    ])
    return np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)


def near_collinear(rng, ratios, offsets) -> np.ndarray:
    """Triangles whose centred points have singular value ratio s1 / s0 = ``ratios``, in
    random directions, at random scales, ``offsets`` times their size from the origin.

    The centred rows a d + b e, with a = (-1, 0, 1) L and b = (1, -2, 1) h
    orthogonal and d, e orthonormal, have singular values L sqrt(2) and h sqrt(6).
    """
    d, e = np.linalg.qr(rng.normal(size=(len(ratios), 3, 2)))[0].transpose(2, 0, 1)
    length = 10.0 ** rng.uniform(-3, 3, (len(ratios), 1))
    a, b = np.array([-1.0, 0.0, 1.0]), np.array([1.0, -2.0, 1.0])
    height = np.asarray(ratios)[:, None] * length / math.sqrt(3)
    points = a[:, None] * (length * d)[:, None] + b[:, None] * (height * e)[:, None]
    offset = rng.normal(size=(len(ratios), 3)) * length * np.asarray(offsets)[:, None]
    return points + offset[:, None]


class TestCollinearityRule:
    """fit_similarities gives the SVD rule's fault codes, taking the SVD of a minimal sample
    only where the sum of its squared 2x2 minors lies within a factor 2 of the 1e-9 ratio."""

    def assert_same_faults(self, src, dst):
        fault = align.fit_similarities(src, dst)[3]
        np.testing.assert_array_equal(fault, svd_rule_faults(src, dst))
        return fault

    @pytest.mark.parametrize("rows", [1, 64, 1000])
    def test_random_stacks(self, rows):
        rng = np.random.default_rng(300 + rows)
        src = rng.uniform(-1, 1, (rows, 3, 3)) * 10.0 ** rng.uniform(-200, 200, (rows, 1, 1))
        dst = rng.uniform(-1, 1, (rows, 3, 3)) * 10.0 ** rng.uniform(-5, 5, (rows, 1, 1))
        assert not self.assert_same_faults(src, dst).any()

    def test_exactly_collinear_and_coincident(self):
        rng = np.random.default_rng(310)
        src = rng.integers(-1000, 1000, (600, 3, 3)).astype(float)
        src[:200, 2] = 3 * src[:200, 1] - 2 * src[:200, 0]      # collinear
        src[200:400, 1:] = src[200:400, :1]                     # coincident
        src[400:] = src[400:, :1] + np.arange(3)[:, None] * src[400:, 1:2]   # collinear, spaced
        src *= 2.0 ** rng.integers(-300, 300, (600, 1, 1))  # exact, as is each mean
        dst = rng.uniform(-10, 10, src.shape)
        fault = self.assert_same_faults(src, dst)
        assert (fault[:200] == 3).all() and (fault[400:] == 3).all()
        assert (fault[200:400] == 2).all()

    def test_non_finite(self):
        rng = np.random.default_rng(320)
        src, dst = rng.uniform(-10, 10, (2, 90, 3, 3))
        for k, value in enumerate((np.inf, -np.inf, np.nan)):
            src[30 * k:30 * k + 15, k % 3, k] = value
            dst[30 * k + 15:30 * k + 30, 2, k] = value
        src[45:60] = src[45:60, :1]        # coincident and non-finite: non-finite first
        fault = self.assert_same_faults(src, dst)
        assert (fault == 1).all()

    def test_near_collinear_sweep(self, monkeypatch):
        # Ratios across 1e-9 and across both edges of the band, 0.5e-9 and 2e-9,
        # near the origin and, in every other row, so far from it that the
        # rounding of the centring leaves s2 near s1.
        rng = np.random.default_rng(330)
        ratios = np.geomspace(0.1e-9, 10e-9, 4000)
        src = near_collinear(rng, ratios, np.where(np.arange(4000) % 2, 10.0 ** 6.8, 1.0))
        dst = rng.uniform(-10, 10, src.shape)
        taken, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: taken.append(len(a)) or svd(a, **kw))
        fault = align.fit_similarities(src, dst)[3]
        monkeypatch.undo()
        np.testing.assert_array_equal(fault, svd_rule_faults(src, dst))
        with np.errstate(all="ignore"):
            centred, _ = align._unit_extent(src - src.mean(axis=1)[:, None])
        sv = np.linalg.svd(centred, compute_uv=False)
        ratio, thick = sv[:, 1] / sv[:, 0], sv[:, 2] > 0.25 * sv[:, 1]
        for lo, hi in ((0.3e-9, 0.5e-9), (0.5e-9, 0.7e-9), (0.8e-9, 1e-9), (1e-9, 1.2e-9),
                       (1.5e-9, 2e-9), (2e-9, 3e-9)):
            assert ((lo < ratio) & (ratio <= hi) & ~thick).sum() >= 10, (lo, hi)
            assert ((lo < ratio) & (ratio <= hi) & thick).sum() >= 10, (lo, hi)
        assert set(fault.tolist()) == {0, 3}
        # The SVD of the sources takes the rows in the band only, then that of the
        # covariances all rows. In the band sqrt(q) lies between r and sqrt(2) r.
        assert len(taken) == 2 and taken[1] == len(src)
        assert ((0.55e-9 < ratio) & (ratio < 1.4e-9)).sum() <= taken[0]
        assert taken[0] <= ((0.35e-9 < ratio) & (ratio < 2.05e-9)).sum()

    @pytest.mark.parametrize("n", [4, 50])
    def test_refit_stacks(self, n):
        rng = np.random.default_rng(340 + n)
        for ratio in (0.0, 1e-12, 0.9e-9, 1.1e-9, 1e-6, 1.0):
            direction = rng.normal(size=3)
            src = rng.uniform(-10, 10, (1, n, 1)) * direction + ratio * rng.normal(size=(1, n, 3))
            dst = rng.uniform(-10, 10, (1, n, 3))
            self.assert_same_faults(src, dst)


def stops(count, n, iteration, confidence) -> bool:
    """ransac_align's stop test after ``iteration`` with a best count of ``count``."""
    miss_prob = (1.0 - (count / n) ** align.MIN_SAMPLE) ** (iteration + 1)
    return count > align.MIN_SAMPLE and miss_prob <= 1.0 - confidence


def stop_floor(n, params) -> int:
    """The least count that stops the loop at its last iteration, by linear search."""
    last = params.max_iterations - 1
    return next(c for c in range(n + 1) if stops(c, n, last, params.confidence))


def one_at_a_time(src, dst, params, pretest=False):
    """ransac_align as a loop over single iterations; also returns the iterations run.

    The reference the blocked loop must match bit for bit. Without
    ``pretest`` it scores every hypothesis on all points, as ransac_align
    does on 4 * _PRE points or fewer. With it, above that size, a hypothesis
    is first counted on the _PRE keyed subset points; one that the count
    rules out against the larger of the stop floor and the best count held
    when its sub-block began only takes part in the stop test. If the loop
    runs out below the floor, those ruled out against the floor whose subset
    count does not rule them out against the final best are scored after all.
    """
    n = len(src)
    draws = keyed_uniform(params.seed, PREVERIFY, np.arange(n))
    subset = np.sort(np.argsort(draws, kind="stable")[:align._PRE])
    pretest = pretest and n > 4 * align._PRE
    floor = stop_floor(n, params) if pretest else 0
    best, best_mask, set_aside = (0,), None, []

    def consider(iteration, hypothesis):
        # The winner has the largest count, then the lower mean inlier residual, then
        # the earlier iteration.
        nonlocal best, best_mask
        res = align.residuals(hypothesis, src, dst)
        mask = res < params.threshold
        count = int(mask.sum())
        if count:
            key = (count, -float(res[mask].mean()), -iteration)
            if key > best:
                best, best_mask = key, mask
        return count

    samples = align.minimal_samples(n, params.seed, 0, params.max_iterations)
    iterations = params.max_iterations
    for iteration, sample in enumerate(samples):
        if iteration % align._SUB_BLOCK == 0:
            block_best = best[0]
        try:
            hypothesis = tk.umeyama(src[sample], dst[sample])
        except DegenerateConfiguration:
            continue
        rejected = False
        if pretest:
            sub_res = align.residuals(hypothesis, src[subset], dst[subset])
            sub_count = (sub_res < params.threshold).sum()
            rejected = align._pretest_rejects(sub_count, max(block_best, floor), n)
            if rejected and block_best < floor:
                set_aside.append((iteration, sub_count, hypothesis))
        if not rejected and not consider(iteration, hypothesis):
            continue  # without inliers: no stop test
        if stops(best[0], n, iteration, params.confidence):
            iterations = iteration + 1
            break
    else:
        if (final := best[0]) < floor:
            for iteration, sub_count, hypothesis in set_aside:
                if not align._pretest_rejects(sub_count, final, n):
                    consider(iteration, hypothesis)
    if best[0] <= align.MIN_SAMPLE:
        message = f"best consensus holds {best[0]} point(s); need more than 3"
        raise InvariantViolation(message)
    transform = tk.umeyama(src[best_mask], dst[best_mask])
    return transform, align.residuals(transform, src, dst) < params.threshold, iterations


def outcome(run):
    """run()'s result, or the message of the InvariantViolation it raises."""
    try:
        return run()
    except InvariantViolation as exc:
        return str(exc)


def iterations_run(result, params) -> int:
    """The iterations of a reference or run_blocked result; a failed run used the whole budget."""
    return params.max_iterations if isinstance(result, str) else result[2]


def assert_same_outcome(actual, expected):
    """Both raised the same message, or both give the same transform and mask, bit for bit."""
    if isinstance(expected, str):
        assert actual == expected
        return
    (transform, mask, *_), (expected_transform, expected_mask, *_) = actual, expected
    np.testing.assert_array_equal(mask, expected_mask)
    assert transform.scale == expected_transform.scale
    np.testing.assert_array_equal(transform.rotation, expected_transform.rotation)
    np.testing.assert_array_equal(transform.translation, expected_transform.translation)


def assert_matches_one_at_a_time(src, dst, params) -> int:
    """ransac_align and the reference agree bitwise; returns the reference's iterations."""
    expected = outcome(lambda: one_at_a_time(src, dst, params))
    assert_same_outcome(outcome(lambda: tk.ransac_align(src, dst, params)), expected)
    return iterations_run(expected, params)


def run_blocked(monkeypatch, src, dst, params, rejects=None, runs=None):
    """ransac_align's transform and mask, and the iterations its loop ran.

    Appends to ``rejects`` the iterations that _consensus yielded with count
    0, the hypotheses the pre-test ruled out, and to ``runs`` each run of
    them that it yielded as one.
    """
    blocked, ransac, ran = align._consensus, align._ransac, []
    rejects, runs = [] if rejects is None else rejects, [] if runs is None else runs

    def recording(*args):
        for hypothesis in blocked(*args):
            if hypothesis[3] == 0:
                rejects.extend(hypothesis[0])
                runs.append(hypothesis[0])
            yield hypothesis

    def counting(*args):
        transform, res, iterations = ransac(*args)
        ran.append(iterations)
        return transform, res, iterations

    with monkeypatch.context() as patch:
        patch.setattr(align, "_consensus", recording)
        patch.setattr(align, "_ransac", counting)
        transform, mask = tk.ransac_align(src, dst, params)
    return transform, mask, ran[0]


def noisy_pairs(seed, n, outlier_fraction, sigma):
    """Points, a similarity of them with noise sigma, and floor(f * n) gross outliers."""
    rng = np.random.default_rng(seed)
    src = rng.uniform(-20, 20, (n, 3))
    dst = random_similarity(rng, scale_range=(0.5, 2.0), translation_span=20.0).apply(src)
    dst += rng.normal(0, sigma, dst.shape)
    outliers = rng.permutation(n)[:int(outlier_fraction * n)]
    dst[outliers] += rng.uniform(-30, 30, (len(outliers), 3))
    return src, dst


def assert_stops_mid_sub_block(monkeypatch, n: int) -> list[int]:
    """Stops at many confidences match the reference, several inside a sub-block.

    Returns the iterations the pre-test rejected.
    """
    src, dst = noisy_pairs(60, n, 0.5, sigma=0.15)
    stops, rejects, inside_runs = set(), [], 0
    for digits in np.linspace(1, 12, 23):
        params = tk.RansacParams(threshold=0.5, confidence=1 - 10 ** -digits, seed=3)
        runs = []
        blocked = run_blocked(monkeypatch, src, dst, params, rejects, runs)
        reference = one_at_a_time(src, dst, params, pretest=True)
        assert_same_outcome(blocked, reference)
        assert blocked[2] == reference[2] < params.max_iterations
        stops.add(blocked[2] % align._SUB_BLOCK)
        # A stop at a rejected hypothesis before the last of its run, found by bisection.
        inside_runs += any(blocked[2] - 1 in run[:-1] for run in runs)
    assert len(stops - {0}) >= 3
    return rejects, inside_runs


class TestBlockedRansac:
    @pytest.mark.parametrize("max_iterations", [1, 7, 8, 9, 255, 256, 257, 2000, 63, 64, 65])
    @pytest.mark.parametrize("outlier_fraction", [0.0, 0.5, 0.8, 0.9])
    def test_matches_one_at_a_time(self, outlier_fraction, max_iterations):
        # Noise near the threshold: hypotheses tie on count with different
        # inlier sets, so the tie-break decides the winner.
        for seed in (0, 1):
            src, dst = noisy_pairs(50 + seed, 60, outlier_fraction, sigma=0.35)
            params = tk.RansacParams(threshold=0.5, max_iterations=max_iterations, seed=seed)
            assert_matches_one_at_a_time(src, dst, params)

    def test_confidence_stop_mid_sub_block(self, monkeypatch):
        assert assert_stops_mid_sub_block(monkeypatch, 80) == ([], 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_degenerate_rows_inside_sub_blocks(self, seed):
        # Four distinct sources, three of them on a line, each repeated:
        # most samples are coincident or collinear.
        rng = np.random.default_rng(70 + seed)
        base = np.array([[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 3, 1]], dtype=float) * 5
        src = np.repeat(base, 5, axis=0)
        dst = random_similarity(rng).apply(src) + rng.normal(0, 0.1, src.shape)
        samples = align.minimal_samples(len(src), seed, 0, align._BLOCK)
        fault = align.fit_similarities(src[samples], dst[samples])[3]
        skipped = fault.reshape(-1, align._SUB_BLOCK) != 0
        assert np.any(skipped.any(axis=1) & ~skipped.all(axis=1))
        for max_iterations in (1, 8, 9, 300):
            params = tk.RansacParams(threshold=0.3, max_iterations=max_iterations, seed=seed)
            assert_matches_one_at_a_time(src, dst, params)


def hypergeometric_cdf(n: int, c: int, m: int) -> list[int]:
    """Entry k: C(n, m) * P(K <= k) for K the inliers among m of n points drawn without
    replacement, c of them inliers; exact integers, for k up to min(c, m)."""
    lo = max(0, m - (n - c))
    term, total, cdf = math.comb(c, lo) * math.comb(n - c, m - lo), 0, [0] * lo
    for j in range(lo, min(c, m) + 1):
        total += term
        cdf.append(total)
        term = term * (c - j) * (m - j) // ((j + 1) * (n - c - m + j + 1))
    return cdf


class TestPretest:
    """The bail-out pre-test of ransac_align, which acts above 4 * _PRE points."""

    @pytest.mark.parametrize("n", [2049, 3000, 4096, 20750, 50000])
    def test_rejection_bounded_by_exact_hypergeometric_tail(self, n):
        # A hypothesis whose full count c ties the best is the likeliest to be
        # wrongly rejected; the chance is P(K <= k) for every k the rule rejects.
        assert align._PRE_MISS == 1e-9
        m, checked = align._PRE, 0
        total = math.comb(n, m)
        for c in sorted({*np.geomspace(1, n, 60).round().astype(int).tolist(), n}):
            rejected = np.flatnonzero(align._pretest_rejects(np.arange(m + 1), c, n))
            if not len(rejected):
                continue
            assert rejected.tolist() == list(range(len(rejected)))
            cdf = hypergeometric_cdf(n, c, m)
            for k in rejected.tolist():
                assert (cdf[k] if k < len(cdf) else total) * 10**9 <= total, (n, c, k)
            checked += len(rejected)
        assert checked > 0

    @pytest.mark.parametrize("n", [2049, 3000, 20750, 50000])
    def test_no_rejection_while_mu_at_most_twice_log(self, n):
        limit = 2 * math.log(1e9)
        last = max(c for c in range(1, n + 1) if align._PRE * c / n <= limit)
        k = np.arange(align._PRE + 1)
        for c in range(1, last + 1):
            assert not align._pretest_rejects(k, c, n).any(), c
        assert align._pretest_rejects(k, last + 1, n)[0]

    @pytest.mark.parametrize("max_iterations", [1, 9, 257, 2000, 63, 64, 65])
    @pytest.mark.parametrize("outlier_fraction", [0.5, 0.8, 0.9])
    def test_matches_pretested_reference(self, monkeypatch, outlier_fraction, max_iterations):
        # Noise well inside the threshold: at 90% outliers the best count is
        # then just large enough for the pre-test to reject by.
        rejects = []
        for seed, n in ((0, 3000), (1, 5000)):
            src, dst = noisy_pairs(80 + seed, n, outlier_fraction, sigma=0.1)
            params = tk.RansacParams(threshold=0.5, max_iterations=max_iterations, seed=seed)
            blocked = outcome(lambda: run_blocked(monkeypatch, src, dst, params, rejects))
            reference = outcome(lambda: one_at_a_time(src, dst, params, pretest=True))
            assert_same_outcome(blocked, reference)
            assert iterations_run(blocked, params) == iterations_run(reference, params)
            plain = outcome(lambda: one_at_a_time(src, dst, params))
            assert iterations_run(blocked, params) <= iterations_run(plain, params)
        assert rejects or max_iterations < 257

    def test_subset_is_the_rows_with_the_smallest_keyed_draws(self, monkeypatch):
        # Outliers on exactly those rows: no full count reaches the stop floor of
        # 2,500, so the pre-test targets the floor from the first sub-block, and
        # no hypothesis can pass it, however good it is. The run then recovers
        # the winner from the hypotheses it set aside.
        n, seed = 3000, 5
        src, dst = noisy_pairs(82, n, 0.0, sigma=0.1)
        draws = keyed_uniform(seed, PREVERIFY, np.arange(n))
        subset = np.argsort(draws, kind="stable")[:align._PRE]
        dst[subset] += np.random.default_rng(83).uniform(-30, 30, (align._PRE, 3))
        params = tk.RansacParams(threshold=0.5, max_iterations=40, confidence=1 - 1e-15, seed=seed)
        rejects = []
        blocked = run_blocked(monkeypatch, src, dst, params, rejects)
        assert align._stop_floor(n, params) == 2500
        assert rejects == list(range(params.max_iterations))
        assert_same_outcome(blocked, one_at_a_time(src, dst, params))

    def test_scored_rows_keep_the_bits_of_their_whole_sub_block(self):
        # BLAS rounds a product of one row unlike one of several, so a row
        # scored alone would differ in the last bits from the loop without
        # the pre-test, which scores every row of the sub-block.
        src, dst = noisy_pairs(81, 3000, 0.8, sigma=0.1)
        params = tk.RansacParams(threshold=0.5, max_iterations=512, seed=2)
        samples = align.minimal_samples(len(src), params.seed, 0, params.max_iterations)
        src_t, dst_t = np.ascontiguousarray(src.T), np.ascontiguousarray(dst.T)
        scored, rejected = Counter(), Counter()
        for iterations, res, _, count in align._consensus(src, dst, params):
            for iteration in iterations:
                start = iteration - iteration % align._SUB_BLOCK
                (rejected if count == 0 else scored)[start] += 1
            if count:
                sample = samples[start:start + align._SUB_BLOCK]
                scale, rotation, translation, fault = align.fit_similarities(src[sample], dst[sample])
                rows = np.flatnonzero(fault == 0)
                whole = align._score(scale[rows, None, None] * rotation[rows], translation[rows],
                                     src_t, dst_t, *np.empty((2, len(rows), len(src))))
                np.testing.assert_array_equal(res, whole[rows.tolist().index(iteration - start)])
        assert any(scored[start] == 1 and rejected[start] for start in scored)

    @pytest.mark.parametrize("seed", range(4))
    def test_same_winner_as_without_pretest(self, monkeypatch, seed):
        rejects = []
        src, dst = noisy_pairs(90 + seed, 3000 + 700 * seed, 0.8, sigma=0.15)
        params = tk.RansacParams(threshold=0.5, seed=seed)
        blocked = run_blocked(monkeypatch, src, dst, params, rejects)
        plain = one_at_a_time(src, dst, params)
        assert_same_outcome(blocked, plain)
        assert blocked[2] <= plain[2]
        assert rejects

    def test_confidence_stop_mid_sub_block(self, monkeypatch):
        rejects, inside_runs = assert_stops_mid_sub_block(monkeypatch, 3000)
        assert rejects and inside_runs


def traced_run(monkeypatch, src, dst, params):
    """ransac_align's work in order, and the iterations its loop ran, whether or not it fails.

    The log holds ("fit", rows) per fit_similarities call, ("score", points,
    rows) per _score call and ("yield", iterations, count) per item that
    _consensus yields: a hypothesis, or a run of rejected ones with count 0.
    """
    log, ran = [], []
    fit, score, consensus, ransac = (
        align.fit_similarities, align._score, align._consensus, align._ransac)

    def fitting(src, dst):
        log.append(("fit", len(src)))
        return fit(src, dst)

    def scoring(scaled, translation, src_t, dst_t, res, term):
        log.append(("score", src_t.shape[1], len(scaled)))
        return score(scaled, translation, src_t, dst_t, res, term)

    def recording(*args):
        for hypothesis in consensus(*args):
            log.append(("yield", tuple(hypothesis[0]), hypothesis[3]))
            yield hypothesis

    def counting(*args):
        transform, res, iterations = ransac(*args)
        ran.append(iterations)
        return transform, res, iterations

    with monkeypatch.context() as patch:
        patch.setattr(align, "fit_similarities", fitting)
        patch.setattr(align, "_score", scoring)
        patch.setattr(align, "_consensus", recording)
        patch.setattr(align, "_ransac", counting)
        outcome(lambda: tk.ransac_align(src, dst, params))
    # A run that fails has no consensus, so no stop test held: it used the whole budget.
    return log, ran[0] if ran else params.max_iterations


def rejected_in(log) -> list[int]:
    """The iterations of the runs of rejected hypotheses in a traced_run log."""
    return [i for event in log if event[0] == "yield" and event[2] == 0 for i in event[1]]


class TestWorkCounts:
    """ransac_align fits a block per call and skips scoring whose outcome is known."""

    @pytest.mark.parametrize("n, outlier_fraction, max_iterations", [
        (60, 0.0, 2000), (60, 0.5, 63), (60, 0.5, 64), (60, 0.5, 65), (60, 0.5, 300),
        (3000, 0.8, 2000),
    ])
    def test_one_fit_call_per_block_and_one_refit(
        self, monkeypatch, n, outlier_fraction, max_iterations
    ):
        src, dst = noisy_pairs(100, n, outlier_fraction, sigma=0.1)
        params = tk.RansacParams(threshold=0.5, max_iterations=max_iterations,
                                 confidence=1 - 1e-15, seed=1)
        log, iterations = traced_run(monkeypatch, src, dst, params)
        fits = [event[1] for event in log if event[0] == "fit"]
        blocks = math.ceil(iterations / align._BLOCK)
        assert len(fits) == blocks + 1
        assert fits[:blocks] == [
            min(align._BLOCK, max_iterations - start)
            for start in range(0, blocks * align._BLOCK, align._BLOCK)
        ]
        assert fits[-1] == 1

    def test_no_all_points_scoring_of_a_rejected_sub_block(self, monkeypatch):
        # As in test_subset_is_the_rows_with_the_smallest_keyed_draws: the
        # pre-test rejects every hypothesis, against the floor. The loop counts
        # the block on the subset in one product and scores none on all points;
        # as it runs out with no inliers, each hypothesis it set aside is then
        # scored once, 8 at a time, from its kept fit.
        n, seed = 3000, 5
        src, dst = noisy_pairs(82, n, 0.0, sigma=0.1)
        subset = align.rng.keyed_subset(seed, PREVERIFY, n, align._PRE)
        dst[subset] += np.random.default_rng(83).uniform(-30, 30, (align._PRE, 3))
        params = tk.RansacParams(threshold=0.5, max_iterations=40, confidence=1 - 1e-15, seed=seed)
        log, _ = traced_run(monkeypatch, src, dst, params)
        # The block's one run of rejections takes one stop test.
        loop_end = log.index(("yield", tuple(range(params.max_iterations)), 0))
        assert rejected_in(log) == list(range(params.max_iterations))
        assert [event for event in log[:loop_end] if event[0] != "yield"] == [
            ("fit", params.max_iterations), ("score", align._PRE, params.max_iterations)
        ]
        assert [event for event in log[loop_end:] if event[0] != "yield"] == [
            *[("score", n, align._SUB_BLOCK)] * 5, ("fit", 1)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_no_subset_scoring_while_the_pretest_cannot_reject(self, monkeypatch, seed):
        # At n = 3000 the pre-test can reject once its target, the larger of the
        # best count and the stop floor, exceeds 242. After 400 iterations the
        # floor is 774, so it can reject from the first sub-block, though with
        # 95% outliers 400 iterations find no more than a few inliers at once:
        # each block is counted on the subset in one product.
        n = 3000
        bound = 2 * n * math.log(1 / align._PRE_MISS) / align._PRE
        for outlier_fraction, best_passes_bound in ((0.95, False), (0.8, True)):
            src, dst = noisy_pairs(110 + seed, n, outlier_fraction, sigma=0.1)
            params = tk.RansacParams(threshold=0.5, max_iterations=400, seed=seed)
            floor = align._stop_floor(n, params)
            assert floor == 774
            log, _ = traced_run(monkeypatch, src, dst, params)
            best, subset_calls = 0, 0
            for event in log:
                if event[0] == "yield":
                    best = max(best, event[2])
                elif event[:2] == ("score", align._PRE):
                    assert max(best, floor) > bound
                    subset_calls += 1
            assert 0 < best and (best > bound) == best_passes_bound
            assert subset_calls == math.ceil(params.max_iterations / align._BLOCK)


    @pytest.mark.parametrize("outlier_fraction, n, seed", [(0.5, 3000, 3), (0.8, 3000, 1),
                                                           (0.9, 5000, 2)])
    def test_one_stop_test_per_run_of_rejections(self, monkeypatch, outlier_fraction, n, seed):
        # Rejected hypotheses come in iteration order, as one yield per run: two runs
        # in a row have a block fit or an all-points scoring between them, after
        # which the stop test may have ended the loop.
        src, dst = noisy_pairs(140 + seed, n, outlier_fraction, sigma=0.1)
        params = tk.RansacParams(threshold=0.5, seed=seed)
        log, iterations = traced_run(monkeypatch, src, dst, params)
        rejected, last_run = rejected_in(log), None
        assert rejected == sorted(set(rejected)) and rejected
        for k, event in enumerate(log):
            if event[0] == "yield" and event[2] == 0:
                if last_run is not None:
                    assert any(e[0] == "fit" or e[:2] == ("score", n) for e in log[last_run:k])
                last_run = k
            elif event[0] == "yield":
                last_run = None
        runs = [event for event in log if event[0] == "yield" and event[2] == 0]
        assert len(runs) < len(rejected) / 4


def recovered(log) -> list[int]:
    """The iterations that a traced_run log yields with a count after yielding them with
    none: the hypotheses set aside against the stop floor and scored after the loop."""
    rejected = set(rejected_in(log))
    return [event[1][0] for event in log
            if event[0] == "yield" and event[2] and event[1][0] in rejected]


def whole_sub_block_scores(src, dst, params, points=slice(None)):
    """Each non-degenerate iteration's squared residuals on ``points``, scored with all the
    rows of its sub-block that fit, as the loop without the pre-test scores them."""
    sample = align.minimal_samples(len(src), params.seed, 0, params.max_iterations)
    scale, rotation, translation, fault = align.fit_similarities(src[sample], dst[sample])
    src_t, dst_t = np.ascontiguousarray(src.T)[:, points], np.ascontiguousarray(dst.T)[:, points]
    scores = {}
    for first in range(0, params.max_iterations, align._SUB_BLOCK):
        rows = first + np.flatnonzero(fault[first:first + align._SUB_BLOCK] == 0)
        res = align._score(scale[rows, None, None] * rotation[rows], translation[rows],
                           src_t, dst_t, *np.empty((2, len(rows), src_t.shape[1])))
        scores.update(zip(rows.tolist(), res.copy()))
    return scores


class TestStopFloor:
    """The least best count that can stop the loop: below it, the pre-test targets it."""

    @pytest.mark.parametrize("n, confidence, max_iterations", [
        (20750, 0.999, 2000), (13501, 0.999, 2000), (3000, 0.999, 400), (3000, 1 - 1e-15, 40),
        (2049, 0.999, 1), (5000, 0.5, 7), (4096, 0.01, 1_000_000), (50000, 1 - 1e-12, 65),
    ])
    def test_least_count_that_stops_at_the_last_iteration(self, n, confidence, max_iterations):
        params = tk.RansacParams(confidence=confidence, max_iterations=max_iterations)
        floor, last = align._stop_floor(n, params), max_iterations - 1
        assert stops(floor, n, last, confidence)
        assert not stops(floor - 1, n, last, confidence)
        assert floor == stop_floor(n, params)
        # Nor does a count below the floor stop the loop at any earlier iteration.
        for iteration in range(0, max_iterations, max(1, max_iterations // 1000)):
            assert not stops(floor - 1, n, iteration, confidence)

    def test_defaults(self):
        # n (1 - 0.001 ** (1 / 2000)) ** (1 / 3) is 3134.3 at n = 20750.
        assert align._stop_floor(20750, tk.RansacParams()) == 3135

    def test_no_subset_scoring_while_neither_best_nor_floor_lets_it_reject(self, monkeypatch):
        # At confidence 0.01 the floor, 88 of 3000, is too low for the pre-test to
        # reject by, which takes more than 242; so is the best count of 95% outliers.
        n = 3000
        bound = 2 * n * math.log(1 / align._PRE_MISS) / align._PRE
        for seed in range(3):
            src, dst = noisy_pairs(110 + seed, n, 0.95, sigma=0.1)
            params = tk.RansacParams(threshold=0.5, max_iterations=400, confidence=0.01, seed=seed)
            assert align._stop_floor(n, params) < bound
            log, _ = traced_run(monkeypatch, src, dst, params)
            assert 0 < max(event[2] for event in log if event[0] == "yield") <= bound
            assert not any(event[:2] == ("score", align._PRE) for event in log)


class TestFloorRecovery:
    """Runs above 4 * _PRE points whose best count stays below the stop floor.

    Each case ends below the floor with hypotheses set aside that the final
    best does not rule out; in (0.9, 5000, 2) and (0.95, 3000, 2) one of them wins.
    """

    CASES = [(0.9, 3000, 2), (0.9, 3000, 4), (0.9, 5000, 2), (0.9, 5000, 3),
             (0.95, 3000, 2), (0.95, 5000, 0)]

    @pytest.mark.parametrize("outlier_fraction, n, seed", CASES)
    def test_same_outcome_and_iterations_as_without_pretest(
        self, monkeypatch, outlier_fraction, n, seed
    ):
        src, dst = noisy_pairs(120 + seed, n, outlier_fraction, sigma=0.1)
        params = tk.RansacParams(threshold=0.5, seed=seed)
        blocked = run_blocked(monkeypatch, src, dst, params)
        plain = one_at_a_time(src, dst, params)
        assert_same_outcome(blocked, plain)
        assert blocked[2] == plain[2] == params.max_iterations
        log, _ = traced_run(monkeypatch, src, dst, params)
        assert recovered(log)
        assert max(event[2] for event in log if event[0] == "yield") < align._stop_floor(n, params)

    @pytest.mark.parametrize("outlier_fraction, n, seed", CASES)
    def test_all_points_scoring_bounded_by_the_final_best(
        self, monkeypatch, outlier_fraction, n, seed
    ):
        # Every row scored on all points passes the pre-test against the final
        # best, but for the second row of a product that would otherwise hold one.
        src, dst = noisy_pairs(120 + seed, n, outlier_fraction, sigma=0.1)
        params = tk.RansacParams(threshold=0.5, seed=seed)
        log, _ = traced_run(monkeypatch, src, dst, params)
        best = max(event[2] for event in log if event[0] == "yield")
        subset = align.rng.keyed_subset(params.seed, PREVERIFY, n, align._PRE)
        bound = align._square_bound(params.threshold)
        counts = [int((res < bound).sum())
                  for res in whole_sub_block_scores(src, dst, params, subset).values()]
        passing = int((~align._pretest_rejects(np.array(counts), best, n)).sum())
        scored = [event[2] for event in log if event[:2] == ("score", n)]
        assert sum(scored) <= passing + scored.count(2)

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_recovered_rows_keep_the_bits_of_their_whole_sub_block(self, monkeypatch, seed):
        # Four distinct sources, three of them on a line, each repeated: some
        # sub-blocks hold a single sample that fits, which is scored alone, as
        # BLAS rounds a product of one row unlike one of several; so is it on
        # the subset, within its block's product. A threshold below the noise
        # keeps every count under the floor, so every hypothesis is set aside
        # and scored after the loop.
        rng = np.random.default_rng(130 + seed)
        base = np.array([[0, 0, 0], [1, 1, 0], [2, 2, 0], [0, 3, 1]], dtype=float) * 5
        src = np.repeat(base, 750, axis=0)
        dst = random_similarity(rng).apply(src) + rng.normal(0, 0.1, src.shape)
        params = tk.RansacParams(threshold=0.12, max_iterations=80, confidence=1 - 1e-15, seed=seed)
        whole = whole_sub_block_scores(src, dst, params)
        counts, rejects = [], align._pretest_rejects
        monkeypatch.setattr(align, "_pretest_rejects",
                            lambda k, *args: counts.append(k) or rejects(k, *args))
        log = traced_run(monkeypatch, src, dst, params)[0]
        monkeypatch.setattr(align, "_pretest_rejects", rejects)
        subset = align.rng.keyed_subset(params.seed, PREVERIFY, len(src), align._PRE)
        bound = align._square_bound(params.threshold)
        on_subset = whole_sub_block_scores(src, dst, params, subset).values()
        # The last call is the recovery's.
        expected = [int((res < bound).sum()) for res in on_subset]
        assert np.concatenate(counts[:-1]).tolist() == expected
        assert ("score", align._PRE, 1) in log
        late = set(recovered(log))
        alone = 0
        for (iteration, *_), res, _, count in align._consensus(src, dst, params):
            if count:
                assert iteration in late
                np.testing.assert_array_equal(res, whole[iteration])
                start = iteration - iteration % align._SUB_BLOCK
                alone += sum(start <= row < start + align._SUB_BLOCK for row in whole) == 1
        assert alone
        plain = one_at_a_time(src, dst, params)
        assert_same_outcome(run_blocked(monkeypatch, src, dst, params), plain)


class TestSquareBound:
    @pytest.mark.parametrize("threshold", [
        0.5, 0.1, 1 / 3, math.pi, 1e-3, 1e200, 1.5e154, 1e-160, 1e-162, 2e-308, 5e-324,
    ])
    def test_least_square_whose_root_reaches_the_threshold(self, threshold):
        # 0.1, 1/3 and pi square inexactly; 1e200 squares to inf; 1e-160 and
        # below square into the subnormals or to 0.
        b = align._square_bound(threshold)
        assert math.sqrt(b) >= threshold > math.sqrt(math.nextafter(b, 0.0))
        # sqrt(x) < threshold exactly when x < b, over the floats around b.
        around = [b]
        for _ in range(8):
            around = [math.nextafter(around[0], 0.0), *around, math.nextafter(around[-1], math.inf)]
        for x in around:
            assert (math.sqrt(x) < threshold) == (x < b)

    def test_overflow_and_nan(self):
        assert align._square_bound(1e200) == math.inf
        squares = np.array([np.finfo(float).max, np.inf, np.nan])
        assert ((squares < align._square_bound(1e200)) == [True, False, False]).all()
        assert not (np.nan < align._square_bound(0.5))


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

    def test_points_must_be_n_by_3(self):
        message = "src must be an (N, 3) array, got shape (4, 2)"
        with pytest.raises(ValueError, match=exactly(message)):
            tk.ransac_align(np.zeros((4, 2)), np.zeros((4, 2)), tk.RansacParams())

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


class TestKeyedSubset:
    @pytest.mark.parametrize("n, levels", [(1, 1), (2, 1), (7, 2), (50, 4), (50, 1), (200, 9)])
    def test_ties_at_the_cut_go_to_the_lowest_rows(self, monkeypatch, n, levels):
        keys = np.random.default_rng(n + levels).integers(0, levels, n) / levels
        monkeypatch.setattr(align.rng, "keyed_uniform", lambda seed, *key: keys)
        for count in range(n + 1):
            expected = np.sort(np.argsort(keys, kind="stable")[:count])
            subset = align.rng.keyed_subset(0, PREVERIFY, n, count)
            np.testing.assert_array_equal(subset, expected)
            assert subset.dtype == expected.dtype

    @pytest.mark.parametrize("n, count", [(20750, align._PRE), (20750, 16600), (3000, 0)])
    def test_rows_with_the_smallest_keyed_draws(self, n, count):
        draws = keyed_uniform(9, PREVERIFY, np.arange(n))
        np.testing.assert_array_equal(align.rng.keyed_subset(9, PREVERIFY, n, count),
                                      np.sort(np.argsort(draws, kind="stable")[:count]))


class TestMinimalSamples:
    @given(
        n=st.integers(3, 10**12),
        seed=st.integers(-(2**70), 2**70),
        start=st.integers(0, 10**9),
        before=st.integers(0, 300),
        after=st.integers(1, 300),
    )
    @settings(max_examples=200, deadline=None)
    def test_distinct_in_range_and_independent_of_block(self, n, seed, start, before, after):
        block = align.minimal_samples(n, seed, start, start + before + after)
        assert block.shape == (before + after, align.MIN_SAMPLE)
        assert np.all((block >= 0) & (block < n))
        assert np.all(np.sort(block, axis=1)[:, 1:] != np.sort(block, axis=1)[:, :-1])
        i = start + before
        np.testing.assert_array_equal(align.minimal_samples(n, seed, i, i + 1)[0], block[before])
        np.testing.assert_array_equal(align.minimal_samples(n, seed, i, i + 300)[0], block[before])

    def test_every_subset_equally_likely(self):
        # 5 choose 3 = 10 subsets, 20,000 draws: each count near 2,000
        # (binomial sd 42).
        samples = np.sort(align.minimal_samples(5, 3, 0, 20_000), axis=1)
        _, counts = np.unique(samples, axis=0, return_counts=True)
        assert len(counts) == 10
        assert np.all(np.abs(counts - 2000) <= 200)


def build_pair(gt, gauge, **sim_kwargs):
    names = tuple(f"frame_{i:06d}.png" for i in range(len(gt)))
    manifest = tk.CaptureManifest(names, gt, np.zeros_like(gt))
    recon = tk.simulate_reconstruction(manifest, gauge, **sim_kwargs)
    return recon, manifest


def dict_reference_report(recon, manifest, params):
    """evaluate's report, its names matched through a comprehension over a dict."""
    recon_row = {name: i for i, name in enumerate(recon.names)}
    rows = [k for k, name in enumerate(manifest.names) if name in recon_row]
    names = tuple(manifest.names[k] for k in rows)
    src = recon.positions[[recon_row[name] for name in names]]
    dst = manifest.camera[rows]
    transform, mask = tk.ransac_align(src, dst, params)
    res_m = align.residuals(transform, src, dst) * align.DEFAULT_METERS_PER_UNIT
    return align.AlignmentReport(transform, mask, res_m, *align.error_statistics(res_m),
                                 align.DEFAULT_METERS_PER_UNIT, names)


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

    def test_error_statistics_median_is_numpys_bit_for_bit(self):
        # Odd and even counts, ties, +-0.0 and nan, against np.median itself.
        g = np.random.default_rng(33)
        for trial in range(20_000):
            n = int(g.integers(1, 12))
            if trial % 2:
                values = g.choice([0.0, -0.0, 0.25, 1.0, 1e-300, 3.5], n)
            else:
                values = g.exponential(1.0, n)
            if trial % 97 == 0:
                values[g.integers(n)] = np.nan
            _, median = align.error_statistics(values)
            assert np.float64(median).tobytes() == np.median(values).tobytes()

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

    def test_matching_a_shuffled_strict_subset_matches_a_comprehension_reference(self):
        rng = np.random.default_rng(34)
        gt = rng.uniform(-30, 30, (40, 3))
        gauge = tk.SimilarityTransform.from_z_rotation(0.5, 30.0, (2.0, 1.0, -4.0))
        recon, manifest = build_pair(gt, gauge, noise_sigma=0.05, outlier_fraction=0.2,
                                     outlier_radius=5.0, seed=35)
        keep = rng.permutation(40)[:29]
        partial = tk.ReconstructedSet(
            ("zz_foreign.png", *(recon.names[i] for i in keep), "a_foreign.png"),
            np.vstack([[(1e3, 0, 0)], recon.positions[keep], [(0, 1e3, 0)]]),
        )
        params = tk.RansacParams(seed=36)
        expected = dict_reference_report(partial, manifest, params)
        report = tk.evaluate(partial, manifest, params)
        assert report == expected
        assert report.names == tuple(sorted(recon.names[i] for i in keep))
        assert report.average_error_m == expected.average_error_m
        assert report.median_error_m == expected.median_error_m

    @pytest.mark.parametrize("variant", ["same order", "permuted", "subset", "superset"])
    def test_name_matching_matches_a_dict_reference(self, variant):
        # The same order takes evaluate's shortcut (row k matches row k); the
        # others match by name. Each gives the report of matching by a dict.
        rng = np.random.default_rng(38)
        gt = rng.uniform(-30, 30, (60, 3))
        gauge = tk.SimilarityTransform.from_z_rotation(2.0, -40.0, (1.0, 5.0, -2.0))
        recon, manifest = build_pair(gt, gauge, noise_sigma=0.05, outlier_fraction=0.2,
                                     outlier_radius=5.0, seed=39)
        rows = {"same order": np.arange(60), "permuted": rng.permutation(60),
                "subset": np.sort(rng.permutation(60)[:41]), "superset": np.arange(60)}[variant]
        names, positions = [recon.names[i] for i in rows], recon.positions[rows]
        if variant == "superset":
            names, positions = names + ["foreign.png"], np.vstack([positions, [(1e3, 0, 0)]])
        variant_recon = tk.ReconstructedSet(names, positions)
        params = tk.RansacParams(seed=40)
        expected = dict_reference_report(variant_recon, manifest, params)
        report = tk.evaluate(variant_recon, manifest, params)
        assert report == expected
        assert (report.average_error_m, report.median_error_m) == (
            expected.average_error_m, expected.median_error_m)
        if variant != "subset":
            assert report == tk.evaluate(recon, manifest, params)

    def test_two_shared_names_are_too_few(self):
        rng = np.random.default_rng(37)
        gt = rng.uniform(-30, 30, (10, 3))
        recon, manifest = build_pair(gt, tk.SimilarityTransform.identity())
        partial = tk.ReconstructedSet(("other.png", recon.names[7], recon.names[2]),
                                      np.zeros((3, 3)))
        message = "2 shared image name(s); need at least 3"
        with pytest.raises(InvariantViolation, match=exactly(message)):
            tk.evaluate(partial, manifest)

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

    @pytest.mark.parametrize("step", [1e-160, 1e-300, 5e-324])
    def test_tiny_step_measured_exactly(self, step):
        # Its square underflows: the walk is scaled up by a power of two first, which is exact.
        samples = [((0.0, 0.0, 0.0), 0), ((0.0, -step, 0.0), 1)]
        assert tk.calibrate_unit_scale(samples, stride_m=1e-300) == 1e-300 / step

    def test_tiny_steps_add_up(self):
        samples = [((0.0, 0.0, 0.0), 0), ((3e-300, 4e-300, 0.0), 2), ((3e-300, 4e-300, 5e-300), 3)]
        # 1e-299 units in 5 steps.
        assert tk.calibrate_unit_scale(samples, stride_m=1.0) == pytest.approx(5e299, rel=1e-15)

    def test_ordinary_steps_keep_their_bits(self):
        positions = np.random.default_rng(3).uniform(-50, 50, (40, 3))
        samples = [(p, 2) for p in positions]
        walked = np.linalg.norm(np.diff(positions, axis=0), axis=1).sum()
        assert tk.calibrate_unit_scale(samples) == 0.762 / (walked / 78)

    def test_factor_that_overflows_is_named(self):
        samples = [((0.0, 0.0, 0.0), 0), ((1e-150, 0.0, 0.0), 10 ** 18)]
        with pytest.raises(ValueError, match=exactly("meters_per_unit must be finite, got inf")):
            tk.calibrate_unit_scale(samples, stride_m=1e308)

    def test_bad_step_count(self):
        with pytest.raises(ValueError):
            tk.calibrate_unit_scale([((0.0, 0.0, 0.0), 0), ((1.0, 0.0, 0.0), 0)])

    def test_default_constant_matches_reference(self):
        assert tk.DEFAULT_METERS_PER_UNIT == pytest.approx(0.762 / 0.9)
