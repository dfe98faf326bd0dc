"""Similarity registration of reconstructed camera positions to groundtruth.

An external reconstruction lives in its own frame, determined only up to
a global scale, rotation and translation. The closed-form least-squares
estimator recovers that similarity from corresponded point sets via the
SVD of their cross-covariance with the determinant-sign correction; a
RANSAC loop around it makes the fit robust to badly reconstructed
cameras. Errors are reported in meters over all matched points, using a
stride-calibrated unit scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DegenerateConfiguration, InvariantViolation
from .rng import substream

if TYPE_CHECKING:
    from .poseio import CaptureManifest, ReconstructedSet

# Walking-stride calibration: one stride is about 0.762 m for a male
# adult and measures about 0.9 game units, giving ~0.847 m per unit.
DEFAULT_STRIDE_M = 0.762
DEFAULT_METERS_PER_UNIT = DEFAULT_STRIDE_M / 0.9

_ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class SimilarityTransform:
    """x -> scale * rotation @ x + translation, scale > 0, rotation in SO(3)."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float)
        tra = np.array(self.translation, dtype=float)
        if rot.shape != (3, 3) or tra.shape != (3,):
            raise InvariantViolation("rotation must be (3, 3) and translation (3,)")
        if not (math.isfinite(self.scale) and np.isfinite(rot).all() and np.isfinite(tra).all()):
            raise ValueError("scale, rotation and translation must be finite")
        if not self.scale > 0:
            raise InvariantViolation(f"scale must be positive, got {self.scale}")
        if np.abs(rot.T @ rot - np.eye(3)).max() > _ORTHO_TOL:
            raise InvariantViolation("rotation is not orthonormal within 1e-9")
        if abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL:
            raise InvariantViolation("rotation determinant is not +1 within 1e-9")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> SimilarityTransform:
        return cls(1.0, np.eye(3), np.zeros(3))

    @classmethod
    def from_z_rotation(
        cls, scale: float, yaw_deg: float, translation: Sequence[float]
    ) -> SimilarityTransform:
        """Similarity with a rotation about the z axis; handy for gauges."""
        a = math.radians(yaw_deg)
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

    def compose(self, other: SimilarityTransform) -> SimilarityTransform:
        """self after other: (self ∘ other)(x) = self(other(x))."""
        return SimilarityTransform(
            self.scale * other.scale,
            self.rotation @ other.rotation,
            self.scale * (self.rotation @ other.translation) + self.translation,
        )


@dataclass(frozen=True)
class RansacParams:
    threshold: float = 0.5        # inlier residual bound, game units
    max_iterations: int = 2000
    confidence: float = 0.999
    min_sample: int = 3
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:
            raise ValueError(f"threshold must be positive and finite, got {self.threshold}")
        if self.min_sample < 3:
            raise ValueError(f"min_sample must be at least 3, got {self.min_sample}")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must lie in (0, 1), got {self.confidence}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class AlignmentReport:
    """Alignment result plus error statistics over all matched points."""

    transform: SimilarityTransform
    inlier_mask: np.ndarray
    residuals_m: np.ndarray
    average_error_m: float
    median_error_m: float
    meters_per_unit: float
    names: tuple[str, ...]

    def __post_init__(self):
        mask = np.array(self.inlier_mask, dtype=bool)
        res = np.array(self.residuals_m, dtype=float)
        mask.setflags(write=False)
        res.setflags(write=False)
        object.__setattr__(self, "inlier_mask", mask)
        object.__setattr__(self, "residuals_m", res)


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be an (N, 3) array, got shape {pts.shape}")
    return pts


def _unit_extent(points: np.ndarray) -> tuple[np.ndarray, int]:
    """``points`` divided by 2**e, the power of two just above their largest coordinate, and e.

    Dividing by a power of two is exact, so a fit on ordinary coordinates
    keeps every bit it had without the division.
    """
    exponent = math.frexp(float(np.abs(points).max()))[1]
    return np.ldexp(points, -exponent), exponent


def umeyama(src, dst) -> SimilarityTransform:
    """Least-squares similarity mapping ``src`` onto ``dst``.

    Minimizes sum ||dst_i - (s R src_i + t)||^2 over s > 0, R in SO(3)
    and t, via centering, the SVD of the cross-covariance and the
    determinant-sign correction.

    Raises DegenerateConfiguration when the source points are coincident
    or collinear (the rotation is then under-determined).
    """
    src = _as_points(src, "src")
    dst = _as_points(dst, "dst")
    if len(src) != len(dst):
        raise InvariantViolation(f"point sets differ in length: {len(src)} vs {len(dst)}")
    n = len(src)
    if n < 3:
        raise DegenerateConfiguration(f"{n} point(s) cannot determine a rotation")

    mu_src = src.mean(axis=0)
    mu_dst = dst.mean(axis=0)
    # Each centred set is brought to unit extent, so that the squares and
    # products below neither overflow nor underflow at any finite scale;
    # the extents come back in the scale.
    src_c, src_exponent = _unit_extent(src - mu_src)
    dst_c, dst_exponent = _unit_extent(dst - mu_dst)

    sv = np.linalg.svd(src_c, compute_uv=False)
    if sv[0] <= 0.0:
        raise DegenerateConfiguration("source points are coincident")
    if sv[1] <= 1e-9 * sv[0]:
        raise DegenerateConfiguration("source points are collinear")

    cov = dst_c.T @ src_c / n
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0:
        sign[2] = -1.0
    rotation = u @ np.diag(sign) @ vt

    var_src = (src_c ** 2).sum() / n
    try:
        scale = math.ldexp(float((d * sign).sum() / var_src), dst_exponent - src_exponent)
    except OverflowError:
        raise DegenerateConfiguration("estimated scale exceeds the float range") from None
    if scale <= 0:
        raise DegenerateConfiguration("estimated scale is not positive")

    translation = mu_dst - scale * rotation @ mu_src
    return SimilarityTransform(scale, rotation, translation)


def residuals(transform: SimilarityTransform, src, dst) -> np.ndarray:
    """Per-point distances ||dst_i - T(src_i)||."""
    return np.linalg.norm(np.asarray(dst, dtype=float) - transform.apply(src), axis=1)


def ransac_align(
    src, dst, params: RansacParams = RansacParams()
) -> tuple[SimilarityTransform, np.ndarray]:
    """Robust similarity alignment by hypothesize-and-verify.

    Each iteration draws a minimal sample from a seeded, iteration-keyed
    substream, fits the closed-form similarity on it and counts points
    with residual below the threshold. The largest consensus wins; ties
    fall to the lower mean inlier residual, then the earlier iteration.
    Degenerate (collinear) samples are discarded but still count against
    the iteration budget. The loop stops early once the chance that every
    completed iteration missed an all-inlier sample drops below
    1 - confidence. The winner is refit on its full consensus set and the
    inlier mask recomputed once against the refit transform.
    """
    src = _as_points(src, "src")
    dst = _as_points(dst, "dst")
    if len(src) != len(dst):
        raise InvariantViolation(f"point sets differ in length: {len(src)} vs {len(dst)}")
    n = len(src)
    if n < params.min_sample:
        raise InvariantViolation(f"{n} correspondences, need at least {params.min_sample}")

    best_count = 0
    best_mean = math.inf
    best_mask: np.ndarray | None = None
    for iteration in range(params.max_iterations):
        rng = substream(params.seed, iteration)
        sample = rng.choice(n, size=params.min_sample, replace=False)
        try:
            hypothesis = umeyama(src[sample], dst[sample])
        except DegenerateConfiguration:
            continue
        res = residuals(hypothesis, src, dst)
        mask = res < params.threshold
        count = int(mask.sum())
        if count == 0:
            continue
        mean_res = float(res[mask].mean())
        if count > best_count or (count == best_count and mean_res < best_mean):
            best_count = count
            best_mean = mean_res
            best_mask = mask
        if best_count > params.min_sample:
            inlier_ratio = best_count / n
            miss_prob = (1.0 - inlier_ratio ** params.min_sample) ** (iteration + 1)
            if miss_prob <= 1.0 - params.confidence:
                break

    if best_mask is None or best_count < params.min_sample + 1:
        raise InvariantViolation(
            f"best consensus holds {best_count} point(s); "
            f"need more than {params.min_sample}"
        )

    transform = umeyama(src[best_mask], dst[best_mask])
    final_mask = residuals(transform, src, dst) < params.threshold
    return transform, final_mask


def error_statistics(residuals_m) -> tuple[float, float]:
    """Arithmetic mean and median (mean of middles for even counts)."""
    res = np.asarray(residuals_m, dtype=float)
    return float(res.mean()), float(np.median(res))


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
    if not 0 < meters_per_unit < math.inf:
        raise ValueError(f"meters_per_unit must be positive and finite, got {meters_per_unit}")
    recon_row = {name: i for i, name in enumerate(recon.names)}
    rows = [k for k, name in enumerate(manifest.names) if name in recon_row]
    if len(rows) < params.min_sample:
        raise InvariantViolation(
            f"{len(rows)} shared image name(s); need at least {params.min_sample}"
        )
    names = tuple(manifest.names[k] for k in rows)
    src = recon.positions[[recon_row[name] for name in names]]
    dst = manifest.camera[rows]
    transform, mask = ransac_align(src, dst, params)
    res_m = residuals(transform, src, dst) * meters_per_unit
    average, median = error_statistics(res_m)
    return AlignmentReport(
        transform=transform,
        inlier_mask=mask,
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
    if not 0 < stride_m < math.inf:
        raise ValueError(f"stride_m must be positive and finite, got {stride_m}")
    if len(samples) < 2:
        raise InvariantViolation(f"{len(samples)} sample(s); need at least 2")
    positions = np.array([p for p, _ in samples], dtype=float)
    steps = [int(s) for _, s in samples[1:]]
    if any(s < 1 for s in steps):
        raise ValueError("steps_since_previous must be >= 1 after the first sample")
    distance = float(np.linalg.norm(np.diff(positions, axis=0), axis=1).sum())
    if distance <= 0.0:
        raise InvariantViolation("samples cover zero distance")
    stride_units = distance / sum(steps)
    return stride_m / stride_units
