"""Similarity registration of reconstructed camera positions to groundtruth.

An external reconstruction lives in its own frame, determined only up to
a global scale, rotation and translation. The closed-form least-squares
estimator recovers that similarity from corresponded point sets via the
SVD of their cross-covariance with the determinant-sign correction,
fitted on stacks of point sets at once (fit_similarities). A RANSAC loop
around it makes the fit robust to badly reconstructed cameras and picks
the same winner as a loop over single iterations. Each step runs once per
block of 64 iterations: one fit call, whose collinearity test takes an
SVD only for the samples that a bound from their 2x2 minors cannot
decide, and on more than 2048 points one bail-out pre-test product that
counts every hypothesis on a keyed subset of 512 points. A hypothesis is
scored on all points, 8 at a time, only if its subset count says it can
reach its target: the larger of the best count so far and the stop floor,
the least count that can stop the loop within its budget. A run of
rejected hypotheses takes one stop test. Below the floor the loop cannot
stop, so a run that ends there scores, after its last iteration and
without rerunning any, the hypotheses it set aside that could still win.
The pre-test drops a hypothesis that could win with probability at most
1e-9; short of that, it never runs more iterations than the loop without
it. Errors are reported in meters over all matched points, using a
stride-calibrated unit scale; evaluate takes them from the residuals that
the loop's final refit computed.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import partial
from itertools import compress, repeat
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import rng
from .errors import DegenerateConfiguration, InvariantViolation
from .trajectory import (AT_LEAST_1, FINITE, IN_OPEN_UNIT, POSITIVE, POSITIVE_FINITE, at_most,
                         value_type)

if TYPE_CHECKING:
    from .poseio import CaptureManifest, ReconstructedSet

# Walking-stride calibration: one stride is about 0.762 m for a male
# adult and measures about 0.9 game units, giving ~0.847 m per unit.
DEFAULT_STRIDE_M = 0.762
DEFAULT_METERS_PER_UNIT = DEFAULT_STRIDE_M / 0.9

_ORTHO_TOL = 1e-9
# Points in a minimal RANSAC sample: three non-collinear points fix a similarity.
MIN_SAMPLE = 3
# RANSAC iteration budget: 500 times the default, enough for 99.9% confidence
# down to a 2% inlier ratio (ln 1e-3 / ln(1 - 0.02**3) is about 863,000).
MAX_ITERATIONS = 1_000_000
# RANSAC iterations whose samples are drawn and fitted in one call: a stack of
# 64 fits costs about 3 times one of 8, not 8 times.
_BLOCK = 64
# RANSAC iterations scored in one call; must divide _BLOCK. On 20,750 points
# 8 beat 4 and 16, and its two (8, N) float buffers take 2.7 MB.
_SUB_BLOCK = 8
# Bail-out pre-test (Capel, "An effective bail-out test for RANSAC consensus
# scoring", BMVC 2005): above 4 * _PRE points, a hypothesis is scored on all
# of them only if its count on a keyed subset of _PRE points says it can still
# reach the best count; one that can is dropped with probability _PRE_MISS at most.
_PRE = 512
_PRE_MISS = 1e-9


@value_type(rotation=(3, 3), translation=(3,),
            scale=(float, FINITE, POSITIVE._replace(error=InvariantViolation)))
class SimilarityTransform:
    """x -> scale * rotation @ x + translation, scale > 0, rotation in SO(3)."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        if np.abs(self.rotation.T @ self.rotation - np.eye(3)).max() > _ORTHO_TOL:
            raise InvariantViolation("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(self.rotation) - 1.0) > _ORTHO_TOL:
            raise InvariantViolation("rotation determinant is not +1 within 1e-9")

    @classmethod
    def identity(cls) -> SimilarityTransform:
        return cls(1.0, np.eye(3), np.zeros(3))

    @classmethod
    def from_z_rotation(
        cls, scale: float, yaw_deg: float, translation: Sequence[float]
    ) -> SimilarityTransform:
        """Similarity with a rotation about the z axis; handy for gauges."""
        a = math.radians(FINITE(yaw_deg, "yaw_deg"))  # math.cos(inf): "math domain error"
        c, s = math.cos(a), math.sin(a)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(scale, rot, np.asarray(translation, dtype=float))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) stack."""
        p = np.asarray(points, dtype=float)
        return self.scale * (p @ self.rotation.T) + self.translation

    def inverse(self) -> SimilarityTransform:
        inv_scale = 1.0 / self.scale
        return SimilarityTransform(
            inv_scale, self.rotation.T, -inv_scale * (self.rotation.T @ self.translation)
        )


@value_type(threshold=POSITIVE_FINITE, confidence=IN_OPEN_UNIT,
            max_iterations=(AT_LEAST_1, at_most(MAX_ITERATIONS, "RANSAC iterations")))
class RansacParams:
    threshold: float = 0.5        # inlier residual bound, game units
    max_iterations: int = 2000
    confidence: float = 0.999
    seed: int = 0


@value_type("names", "inlier_mask", "residuals_m",
            inlier_mask=((-1,), bool), residuals_m=(-1,), names=tuple)
class AlignmentReport:
    """Alignment result plus error statistics over all matched points."""

    transform: SimilarityTransform
    inlier_mask: np.ndarray
    residuals_m: np.ndarray
    average_error_m: float
    median_error_m: float
    meters_per_unit: float
    names: tuple[str, ...]


def _point_pairs(src, dst) -> tuple[np.ndarray, np.ndarray]:
    """``src`` and ``dst`` as float (N, 3) arrays of equal length."""
    src, dst = np.asarray(src, dtype=float), np.asarray(dst, dtype=float)
    for pts, name in ((src, "src"), (dst, "dst")):
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"{name} must be an (N, 3) array, got shape {pts.shape}")
    if len(src) != len(dst):
        raise InvariantViolation(f"point sets differ in length: {len(src)} vs {len(dst)}")
    return src, dst


def _unit_extent(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each (n, 3) slab of ``points`` divided by 2**e, the power of two just above its largest
    coordinate, and the exponents e.

    Dividing by a power of two is exact, so a fit on ordinary coordinates
    keeps every bit it had without the division.
    """
    exponent = np.frexp(np.abs(points).max(axis=(1, 2)))[1]
    return np.ldexp(points, -exponent[:, None, None]), exponent


# Why a stacked fit rejects a row, in the order the checks apply; fault 0 is a good fit.
FAULTS = (
    None,
    "centred points exceed the float range",
    "source points are coincident",
    "source points are collinear",
    "estimated scale exceeds the float range",
    "estimated scale is not positive",
    "estimated translation exceeds the float range",
)


# The nine 2x2 minors of a 3x3 slab as a b - c d: (a, b, c, d) index its flattened entries
# (i, u), (j, v), (i, v), (j, u), for rows i < j and columns u < v.
_MINORS = np.array([(3 * i + u, 3 * j + v, 3 * i + v, 3 * j + u)
                    for i, j in ((0, 1), (0, 2), (1, 2)) for u, v in ((0, 1), (0, 2), (1, 2))]).T


def _collinear(centred: np.ndarray, spread: np.ndarray) -> np.ndarray:
    """Whether s1 <= 1e-9 s0 for the singular values s0 >= s1 >= s2 of each (n, 3) slab of
    ``centred``, whose squared entries sum to ``spread``: the SVD's verdict, row for row.

    A minimal sample (n = 3) takes the SVD only where a cheaper bound cannot
    decide. By Cauchy-Binet its squared 2x2 minors sum to
    s0^2 s1^2 + (s0^2 + s1^2) s2^2, and ``spread`` is s0^2 + s1^2 + s2^2. As
    s2 <= s1, q = minors / spread^2 lies between r^2 / (1 + 2 r^2)^2 and
    (2 + r^2) r^2 for r = s1 / s0, so sqrt(q) < 0.5e-9 means r < 0.5e-9 and
    sqrt(q) > 2e-9 means r > 1.4e-9. The rounding of q and of the SVD's
    ratio is about 1e-6 of 1e-9 there, as a slab has unit extent; a row
    whose sqrt(q) lies between, within a factor 2 of 1e-9, takes the SVD. A
    slab of zeros (q is nan) takes neither and is not collinear.
    """
    if centred.shape[1] == MIN_SAMPLE:
        g = centred.reshape(len(centred), 9)[:, _MINORS]
        minors = g[:, 0] * g[:, 1] - g[:, 2] * g[:, 3]
        q = (minors * minors).sum(axis=1) / spread ** 2
        collinear, decide = q < 0.5e-9 ** 2, (q >= 0.5e-9 ** 2) & (q <= 2e-9 ** 2)
    else:
        collinear, decide = np.zeros(len(centred), dtype=bool), np.ones(len(centred), dtype=bool)
    if decide.any():
        sv = np.linalg.svd(centred[decide], compute_uv=False)
        collinear[decide] = sv[:, 1] <= 1e-9 * sv[:, 0]
    return collinear


def fit_similarities(src: np.ndarray, dst: np.ndarray):
    """Least-squares similarities mapping each ``src[b]`` onto ``dst[b]``, for (B, n, 3) stacks.

    Row b minimizes sum_i ||dst[b, i] - (s R src[b, i] + t)||^2 over s > 0,
    R in SO(3) and t, via centering, the SVD of the cross-covariance and the
    determinant-sign correction. Returns scale (B,), rotation (B, 3, 3),
    translation (B, 3) and fault (B,): 0 where the row's fit holds, else the
    index in FAULTS of the first reason it does not, such as coincident or
    collinear source points, which leave the rotation under-determined.
    The centred sources are coincident if all zero, and collinear if their
    singular values have s1 <= 1e-9 s0 (see _collinear: a minimal sample
    takes that SVD only near the bound). A faulty row's other values are
    meaningless. Every row comes out bit for bit as it would when fitted
    alone, and no floating-point warning escapes.
    """
    n = src.shape[1]
    with np.errstate(all="ignore"):
        mu_src = src.mean(axis=1)
        mu_dst = dst.mean(axis=1)
        # Each centred set is brought to unit extent, so that the squares and
        # products below neither overflow nor underflow at any finite scale;
        # the extents come back in the scale.
        src_c, src_exponent = _unit_extent(src - mu_src[:, None])
        dst_c, dst_exponent = _unit_extent(dst - mu_dst[:, None])
        finite = np.isfinite(src_c).all(axis=(1, 2)) & np.isfinite(dst_c).all(axis=(1, 2))
        # The SVDs raise on a non-finite entry anywhere in the stack.
        src_c[~finite] = 0.0
        dst_c[~finite] = 0.0

        spread = (src_c ** 2).sum(axis=(1, 2))
        collinear = _collinear(src_c, spread)
        cov = np.swapaxes(dst_c, 1, 2) @ src_c / n
        u, d, vt = np.linalg.svd(cov)
        sign = np.ones_like(d)
        sign[np.linalg.det(u) * np.linalg.det(vt) < 0, 2] = -1.0
        diag = np.zeros_like(u)
        diag[:, range(3), range(3)] = sign
        rotation = u @ diag @ vt

        var_src = spread / n
        scale = np.ldexp((d * sign).sum(axis=1) / var_src, dst_exponent - src_exponent)
        # (scale * rotation) @ mu: scaling the product instead rounds differently.
        translation = mu_dst - ((scale[:, None, None] * rotation) @ mu_src[:, :, None])[:, :, 0]
    failed = np.array([
        ~finite, spread <= 0.0, collinear, ~np.isfinite(scale),
        scale <= 0.0, ~np.isfinite(translation).all(axis=1),
    ])
    fault = np.where(failed.any(axis=0), failed.argmax(axis=0) + 1, 0)
    return scale, rotation, translation, fault


def umeyama(src, dst) -> SimilarityTransform:
    """Least-squares similarity mapping ``src`` onto ``dst``: fit_similarities on one row.

    Raises DegenerateConfiguration when the fit fails, such as when the
    source points are coincident or collinear (the rotation is then
    under-determined).
    """
    src, dst = _point_pairs(src, dst)
    n = len(src)
    if n < 3:
        raise DegenerateConfiguration(f"{n} point(s) cannot determine a rotation")
    scale, rotation, translation, fault = fit_similarities(src[None], dst[None])
    if fault[0]:
        raise DegenerateConfiguration(FAULTS[fault[0]])
    return SimilarityTransform(float(scale[0]), rotation[0], translation[0])


def residuals(transform: SimilarityTransform, src, dst) -> np.ndarray:
    """Per-point distances ||dst_i - T(src_i)||; one that overflows is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(np.asarray(dst, dtype=float) - transform.apply(src), axis=1)


def minimal_samples(n: int, seed: int, start: int, stop: int) -> np.ndarray:
    """Row i: the MIN_SAMPLE distinct indices in [0, n) of RANSAC iteration start + i.

    Floyd's method on the iteration's keyed draws: pick j is uniform over
    [0, n - MIN_SAMPLE + j] and becomes n - MIN_SAMPLE + j if already taken.
    """
    iterations = np.arange(start, stop)[:, None]
    draws = rng.keyed_uniform(seed, rng.RANSAC, iterations, np.arange(MIN_SAMPLE))
    picks = np.floor(draws * np.arange(n - MIN_SAMPLE + 1, n + 1)).astype(np.int64)
    for j in range(1, MIN_SAMPLE):
        repeats = np.any(picks[:, :j] == picks[:, j:j + 1], axis=1)
        picks[repeats, j] = n - MIN_SAMPLE + j
    return picks


def _stops(count: int, n: int, iteration: int, confidence: float) -> bool:
    """RANSAC's stop test: after iteration ``iteration``, a best consensus of ``count`` of n
    points leaves at most 1 - ``confidence`` chance that every iteration missed an all-inlier
    sample."""
    miss_prob = (1.0 - (count / n) ** MIN_SAMPLE) ** (iteration + 1)
    return count > MIN_SAMPLE and miss_prob <= 1.0 - confidence


def _stop_floor(n: int, params: RansacParams) -> int:
    """The least count for which _stops holds at the last iteration, max_iterations - 1.

    Found by integer bisection on the float test itself, which is monotone
    in the count and in the iteration: a best count below the floor stops
    the loop at no iteration. A count of n > MIN_SAMPLE always stops, as
    its miss probability is 0.
    """
    lo, hi = MIN_SAMPLE + 1, n
    while lo < hi:
        mid = (lo + hi) // 2
        if _stops(mid, n, params.max_iterations - 1, params.confidence):
            hi = mid
        else:
            lo = mid + 1
    return lo


def _pretest_rejects(k, best_count: int, n: int):
    """Whether a subset count ``k`` of _PRE says the full count of n is below ``best_count``.

    With mu = _PRE * best_count / n, the count expected of a hypothesis that
    ties the best, a count k < mu is rejected when (mu - k)**2 > 2 mu ln(1 / _PRE_MISS).
    The Chernoff lower tail, which also bounds sampling without replacement
    (Hoeffding 1963), puts the chance of that at most _PRE_MISS for any
    hypothesis whose full count is at least ``best_count``.
    """
    mu = _PRE * best_count / n
    return (k < mu) & ((mu - k) ** 2 > 2.0 * mu * -math.log(_PRE_MISS))


def _square_bound(threshold: float) -> float:
    """The least b with sqrt(b) >= ``threshold``: as sqrt rounds correctly and is monotone,
    sqrt(x) < threshold exactly when x < b, and neither holds for a nan x."""
    b = math.nextafter(threshold * threshold, math.inf)  # above threshold**2, or inf
    while math.sqrt(below := math.nextafter(b, 0.0)) >= threshold:
        b = below
    return b


def _score(scaled, translation, src_t, dst_t, res, term):
    """res[k, i] = ||scaled[k] @ src_t[:, i] + translation[k] - dst_t[:, i]||**2.

    One coordinate at a time into the (len(scaled), m) buffers ``res`` and
    ``term``; a square that overflows is never below a _square_bound.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        for axis, out in enumerate((res, term, term)):
            np.matmul(scaled[:, axis], src_t, out=out)
            out += translation[:, axis, None]
            out -= dst_t[axis]
            out *= out
            if axis:
                res += term
    return res


def _consensus(src: np.ndarray, dst: np.ndarray, params: RansacParams):
    """(iterations, squared residuals, inlier mask, inlier count) of each scored hypothesis, and
    of each run of hypotheses that the pre-test rejected.

    Fits _BLOCK minimal samples per call and scores them on all points
    _SUB_BLOCK at a time, in iteration order, leaving out degenerate samples
    and hypotheses without a single inlier; a scored hypothesis comes as
    ([iteration], ...). Above 4 * _PRE points, the rows of a block are
    counted on the subset points in one product, at the first sub-block
    whose target lets the pre-test reject: the larger of the stop floor and
    the best count yielded before the sub-block. A hypothesis the pre-test
    rejects against its sub-block's target is not scored on all points: it
    takes part in the stop test but never wins. Rejected hypotheses come
    together as (iterations, None, None, 0), the run of them since the last
    yield, before a sub-block is scored on all points, before a hypothesis
    with inliers and at the end of a block; within a run the best count does
    not change. If the iterations run out with the best count below the
    floor, the hypotheses rejected against the floor whose subset count does
    not rule out that best are scored after all, from the fits kept for
    them, and yielded after the last iteration. The arrays yielded are
    overwritten when the next hypotheses are scored.
    """
    n = len(src)
    src_t, dst_t = np.ascontiguousarray(src.T), np.ascontiguousarray(dst.T)
    # _score's two buffers, for _SUB_BLOCK rows of all points or _BLOCK rows of the subset
    # points; only the part written takes memory.
    buffers = np.empty((2, max(_SUB_BLOCK * n, _BLOCK * _PRE)))
    bound = _square_bound(params.threshold)

    def scored(scaled, translation, points_t, matches_t):
        """_score of each hypothesis on the points of ``points_t``, into the buffers' front."""
        m, width = len(scaled), points_t.shape[1]
        res, term = (buffer[:m * width].reshape(m, width) for buffer in buffers)
        return _score(scaled, translation, points_t, matches_t, res, term)

    def verified(iterations, scaled, translation, alone):
        """The hypotheses of ``iterations``, at most _SUB_BLOCK, scored on all points."""
        # BLAS rounds a product of one row (gemv) unlike one of several (gemm): a hypothesis
        # is scored as when all of its sub-block is, alone only if the sub-block holds no other.
        if len(scaled) == 1 and not alone:
            scaled, translation = np.repeat(scaled, 2, axis=0), np.repeat(translation, 2, axis=0)
        res = scored(scaled, translation, src_t, dst_t)
        inliers = res < bound
        return zip(iterations[:, None].tolist(), res, inliers, inliers.sum(axis=1).tolist())

    def ended(run):
        """Yields the run of rejected hypotheses as one, unless it is empty; returns a new run."""
        if run:
            yield run, None, None, 0
        return []

    pretest = n > 4 * _PRE
    if pretest:
        subset = rng.keyed_subset(params.seed, rng.PREVERIFY, n, _PRE)
        sub_src, sub_dst = src_t[:, subset], dst_t[:, subset]

        def subset_counts(scaled, translation):
            """Each hypothesis's inlier count on the subset points."""
            return (scored(scaled, translation, sub_src, sub_dst) < bound).sum(axis=1)

        floor = _stop_floor(n, params)
        # Per iteration, for a hypothesis set aside (rejected against the floor): its
        # subset count (else -1), whether its sub-block held no other, and its fit.
        # Pages of the fits that no set-aside hypothesis is written to take no memory.
        aside_count = np.full(params.max_iterations, -1, dtype=np.int16)
        aside_alone = np.zeros(params.max_iterations, dtype=bool)
        aside_scaled = np.empty((params.max_iterations, 3, 3))
        aside_translation = np.empty((params.max_iterations, 3))
    best, run = 0, []
    for start in range(0, params.max_iterations, _BLOCK):
        sample = minimal_samples(n, params.seed, start, min(start + _BLOCK, params.max_iterations))
        scale, rotation, translation, fault = fit_similarities(src[sample], dst[sample])
        with np.errstate(all="ignore"):  # a faulty row's values are meaningless
            scaled = scale[:, None, None] * rotation
        counts = None
        for first in range(0, len(sample), _SUB_BLOCK):
            rows = first + np.flatnonzero(fault[first:first + _SUB_BLOCK] == 0)
            rejected = np.zeros(len(rows), dtype=bool)
            target = max(best, floor) if pretest else 0
            # While mu = _PRE * target / n <= 2 ln(1 / _PRE_MISS), _pretest_rejects rejects nothing.
            if _PRE * target / n > 2.0 * -math.log(_PRE_MISS):
                if counts is None:  # the rest of the block's rows, in one product
                    rest = first + np.flatnonzero(fault[first:] == 0)
                    counts = np.zeros(len(sample), dtype=np.int64)
                    counts[rest] = subset_counts(scaled[rest], translation[rest])
                k = counts[rows]
                if len(rows) == 1 < len(rest):  # counted as when its sub-block is, alone
                    k = subset_counts(scaled[rows], translation[rows])
                rejected = _pretest_rejects(k, target, n)
                if best < floor:
                    aside = rows[rejected]
                    aside_count[start + aside] = k[rejected]
                    aside_alone[start + aside] = len(rows) == 1
                    aside_scaled[start + aside] = scaled[aside]
                    aside_translation[start + aside] = translation[aside]
            kept = rows[~rejected]
            if len(kept):
                run = yield from ended(run)
                scores = verified(start + kept, scaled[kept], translation[kept], len(rows) == 1)
            for iteration, reject in zip((start + rows).tolist(), rejected.tolist()):
                if reject:
                    run.append(iteration)
                    continue
                hypothesis = next(scores)
                if hypothesis[3]:
                    run = yield from ended(run)
                    best = max(best, hypothesis[3])
                    yield hypothesis
        run = yield from ended(run)
    if not pretest or best >= floor:
        return
    # Below the floor the loop cannot stop, so it ran out: score what could still win.
    recover = np.flatnonzero(aside_count >= 0)
    recover = recover[~_pretest_rejects(aside_count[recover], best, n)]
    for alone in (True, False):
        iterations = recover[aside_alone[recover] == alone]
        size = 1 if alone else _SUB_BLOCK
        for group in (iterations[i:i + size] for i in range(0, len(iterations), size)):
            scores = verified(group, aside_scaled[group], aside_translation[group], alone)
            yield from (hypothesis for hypothesis in scores if hypothesis[3])


def _ransac(src, dst, params: RansacParams) -> tuple[SimilarityTransform, np.ndarray, int]:
    """ransac_align's transform, the residual of every point under it, and the iterations
    its loop ran: up to the one at which the stop test held, else all of them."""
    src, dst = _point_pairs(src, dst)
    n = len(src)
    if n < MIN_SAMPLE:
        raise InvariantViolation(f"{n} correspondences, need at least {MIN_SAMPLE}")

    best_count, best_key, best_mask = 0, (0,), None
    iterations = params.max_iterations
    for run, res, mask, count in _consensus(src, dst, params):
        if count and count >= best_count:
            # Recovered hypotheses come after the last iteration, so the order is by key.
            key = (count, -float(np.sqrt(res[mask]).mean()), -run[0])
            if key > best_key:
                best_count, best_key, best_mask = count, key, mask.copy()
        if _stops(best_count, n, run[-1], params.confidence):
            # The test is monotone in the iteration: it first holds within the run.
            holds = partial(_stops, best_count, n, confidence=params.confidence)
            iterations = run[bisect_left(run, True, key=holds)] + 1
            break

    if best_count <= MIN_SAMPLE:
        message = f"best consensus holds {best_count} point(s); need more than {MIN_SAMPLE}"
        raise InvariantViolation(message)

    transform = umeyama(src[best_mask], dst[best_mask])
    return transform, residuals(transform, src, dst), iterations


def ransac_align(
    src, dst, params: RansacParams = RansacParams()
) -> tuple[SimilarityTransform, np.ndarray]:
    """Robust similarity alignment by hypothesize-and-verify.

    Each iteration draws a minimal sample keyed by (seed, iteration), see
    minimal_samples, fits the closed-form similarity on it and counts points
    with residual below the threshold. Hypotheses are fitted a block of
    _BLOCK iterations per call and scored a sub-block of _SUB_BLOCK at a
    time, then walked in iteration order, so the winner is the one a loop
    over single iterations would pick. The largest consensus wins; ties
    fall to the lower mean inlier residual, then the earlier iteration.
    Degenerate samples (fit_similarities flags them) are discarded but still
    count against the iteration budget. The loop stops early once the chance
    that every completed iteration missed an all-inlier sample drops below
    1 - confidence. The winner is refit on its full consensus set and the
    inlier mask recomputed once against the refit transform.

    On more than 4 * _PRE points, the hypotheses of a block are first scored
    on a fixed subset of _PRE points (the rows with the smallest draws keyed
    by (seed, PREVERIFY, row)), in one product, from the first sub-block
    whose target is high enough for the pre-test to reject anything. The
    target of a sub-block is the larger of the best count held when it began
    and the stop floor, the least count that stops the loop at its last
    iteration (see _stop_floor): at the defaults the floor is 0.151 n, so
    the pre-test runs from the first sub-block. A hypothesis whose subset
    count says it cannot reach its target (see _pretest_rejects) is not
    scored on all points: it runs the stop test, as a hypothesis with
    inliers does, but never wins. As the best count does not change between
    two hypotheses with inliers and the stop test is monotone in the
    iteration, a run of rejected hypotheses takes one stop test, at its last
    iteration, and a bisection finds the first at which it holds. Below the
    floor the stop test cannot fire, so a hypothesis rejected against the
    floor can matter only if the loop runs out below it. Its fit and subset
    count are kept; if the loop does run out below the floor, those whose
    subset count does not rule out the final best are scored on all points
    after the last iteration, without rerunning any, and compete by count,
    mean residual and iteration as if scored in order. A hypothesis whose
    full count is at least its target, or at least the final best, is
    dropped with probability at most _PRE_MISS = 1e-9. Short of such a
    loss, the pre-test runs no more iterations than the loop without it, as
    it only adds stop tests; it can change the winner only when it ends the
    loop at a hypothesis without inliers, which that loop passes over, and
    a later one would have won.
    """
    transform, res, _ = _ransac(src, dst, params)
    return transform, res < params.threshold


def error_statistics(residuals_m) -> tuple[float, float]:
    """Arithmetic mean and median (mean of middles for even counts).

    The median is np.median's, bit for bit, from the same partition and
    mean; np.median itself imports numpy.ma on its first call, about 10 ms.
    """
    res = np.asarray(residuals_m, dtype=float)
    half = len(res) // 2
    middle = [half - 1, half] if len(res) % 2 == 0 else [half]
    part = np.partition(res, [*middle, -1])  # a nan sorts last, and makes the median nan
    median = part[-1] if np.isnan(part[-1]) else part[middle].mean()
    return float(res.mean()), float(median)


def evaluate(
    recon: "ReconstructedSet",
    manifest: "CaptureManifest",
    params: RansacParams = RansacParams(),
    meters_per_unit: float = DEFAULT_METERS_PER_UNIT,
) -> AlignmentReport:
    """Align reconstructed positions to manifest groundtruth and score them.

    Rows are matched by image name (manifest order). The reconstructed
    positions are the source, the groundtruth camera positions the target.
    Average and median errors are computed in meters over ALL matched
    points, inliers and outliers alike; the inlier mask is reported
    alongside.
    """
    POSITIVE_FINITE(meters_per_unit, "meters_per_unit")
    if recon.names == manifest.names:  # as simrecon writes them: row k matches row k
        names, src, dst = manifest.names, recon.positions, manifest.camera
    else:
        recon_row = dict(zip(recon.names, range(len(recon.names))))
        found = np.fromiter(map(recon_row.get, manifest.names, repeat(-1)), np.int64)
        rows = np.flatnonzero(found >= 0)
        names = tuple(compress(manifest.names, (found >= 0).tolist()))
        src, dst = recon.positions[found[rows]], manifest.camera[rows]
    if len(names) < MIN_SAMPLE:
        raise InvariantViolation(f"{len(names)} shared image name(s); need at least {MIN_SAMPLE}")
    transform, res, _ = _ransac(src, dst, params)
    with np.errstate(over="ignore"):
        res_m = res * meters_per_unit
    overflow = np.flatnonzero(~np.isfinite(res_m))
    if len(overflow):
        name = names[overflow[0]]
        raise InvariantViolation(f"residual of image {name!r} is not finite in meters")
    average, median = error_statistics(res_m)
    return AlignmentReport(
        transform=transform,
        inlier_mask=res < params.threshold,
        residuals_m=res_m,
        average_error_m=average,
        median_error_m=median,
        meters_per_unit=meters_per_unit,
        names=names,
    )


def calibrate_unit_scale(
    samples: Sequence[tuple[Sequence[float], int]], stride_m: float = DEFAULT_STRIDE_M
) -> float:
    """Meters per game unit from walked positions and step counts.

    ``samples`` holds (position, steps_since_previous) pairs recorded
    while walking; the first step count is ignored. The mean stride in
    game units is total distance / total steps, and the returned factor
    is stride_m / stride_units.
    """
    POSITIVE_FINITE(stride_m, "stride_m")
    if len(samples) < 2:
        raise InvariantViolation(f"{len(samples)} sample(s); need at least 2")
    positions = np.array([p for p, _ in samples], dtype=float)
    steps = [int(s) for _, s in samples[1:]]
    if any(s < 1 for s in steps):
        raise ValueError("steps_since_previous must be >= 1 after the first sample")
    with np.errstate(over="ignore"):
        deltas = np.diff(positions, axis=0)
        # A step below 2**-500 is scaled up by an exact power of two: its square does not underflow.
        shift = min(0, math.frexp(np.abs(deltas).max())[1] + 500)
        distance = float(np.linalg.norm(np.ldexp(deltas, -shift), axis=1).sum())
    if not math.isfinite(distance):
        raise ValueError("walked distance overflows the float range")
    if distance <= 0.0:
        raise InvariantViolation("samples cover zero distance")
    stride_units = distance / sum(steps)  # in units of 2**shift
    return FINITE(stride_m / stride_units * 2.0 ** -shift, "meters_per_unit")
