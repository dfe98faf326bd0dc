"""Deterministic synthetic world: landmarks, pinhole capture, fake reconstruction.

No pixels are ever rendered. A "screenshot" is a manifest row with a
synthetic file name plus the set of landmark projections visible from
that pose; the evaluation pipeline consumes only poses and observations.
The simulated reconstruction pushes groundtruth camera positions through
a hidden similarity gauge and corrupts them with noise and radial
outliers, giving a closed loop with a known answer for the aligner.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .align import SimilarityTransform
from .conditions import ConditionSet, degradation
from . import rng, textio
from .errors import InvariantViolation, ParseError
from .poseio import CaptureManifest, ReconstructedSet
from .textio import FIXED
from .trajectory import (AT_LEAST_1, IN_UNIT, MAX_FRAMES, POSITIVE, POSITIVE_FINITE, SIGMA,
                         DenseTrajectory, at_most, value_type)

# Landmark budget of one world, checked by generate_world before it draws;
# 10 times the largest world the tests build. retrace's chunk buffer
# takes 4 * _CHUNK doubles, 2 KB, per landmark: 2 GB at the cap.
MAX_LANDMARKS = 1_000_000
_LANDMARK_BUDGET = at_most(MAX_LANDMARKS, "landmarks")


@value_type(mins=(3,), maxs=(3,))
class Box:
    """Axis-aligned box with positive extent on every axis."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        # Halving is exact, so this tests maxs - mins for overflow without overflowing.
        if np.any(self.maxs / 2 - self.mins / 2 > np.finfo(float).max / 2):
            raise ValueError("bounds extent exceeds the float range")
        if np.any(self.maxs <= self.mins):
            raise InvariantViolation(f"bounds have non-positive extent: {self.mins} .. {self.maxs}")


@value_type(landmarks=(-1, 3))
class World:
    """Landmark cloud standing in for scene geometry; ids are row indices."""

    landmarks: np.ndarray
    seed: int
    bounds: Box

    def __post_init__(self):
        pts = self.landmarks
        _LANDMARK_BUDGET(len(pts), "landmarks")
        if np.any(pts < self.bounds.mins) or np.any(pts > self.bounds.maxs):
            raise InvariantViolation("landmarks outside world bounds")


@value_type(focal=POSITIVE_FINITE, max_range=POSITIVE)  # max_range inf: unlimited range
class Intrinsics:
    """A pinhole camera whose principal point (cx, cy) is the image centre."""

    focal: float
    width: int
    height: int
    max_range: float

    cx = property(lambda self: self.width / 2.0)
    cy = property(lambda self: self.height / 2.0)

    def __post_init__(self):
        # Tested on the principal point, so that a dimension too large for a float raises here.
        if not (self.cx > 0 and self.cy > 0):
            raise ValueError("image dimensions must be positive")


def default_intrinsics(max_range: float = 100.0) -> Intrinsics:
    """1920x1080 with a 60 degree horizontal field of view."""
    width, height = 1920, 1080
    focal = (width / 2.0) / math.tan(math.radians(30.0))
    return Intrinsics(focal=focal, width=width, height=height, max_range=max_range)


class FrameObservations(NamedTuple):
    """The landmark projections seen in one frame: views into an ObservationSet."""

    frame: int
    ids: np.ndarray   # (K,) landmark ids
    uv: np.ndarray    # (K, 2) pixel coordinates


@value_type("frame", "ids", "uv", frame=((-1,), np.int64), ids=((-1,), np.int64), uv=(-1, 2),
            n_frames=(int, at_most(MAX_FRAMES, "frames")))
class ObservationSet:
    """Every landmark projection of a capture, as flat columns sorted by frame.

    Row r records that landmark ``ids[r]`` was seen at pixel ``uv[r]`` in
    frame ``frame[r]``. Frames 0..n_frames-1 exist; a frame may hold no
    row. The columns are read-only int64, int64 and (K, 2) float64 arrays.
    """

    frame: np.ndarray
    ids: np.ndarray
    uv: np.ndarray
    n_frames: int

    def __post_init__(self):
        frame, n_frames = self.frame, self.n_frames
        if np.any(frame[1:] < frame[:-1]):
            raise ValueError("observations must be sorted by frame")
        if n_frames < 0 or len(frame) and not 0 <= frame[0] <= frame[-1] < n_frames:
            raise ValueError(f"frame indices must lie in 0..{n_frames - 1}")

    @property
    def frames(self) -> tuple[FrameObservations, ...]:
        """One FrameObservations per frame, built on each access."""
        cuts = np.searchsorted(self.frame, np.arange(self.n_frames + 1)).tolist()
        return tuple(
            FrameObservations(k, self.ids[a:b], self.uv[a:b])
            for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
        )

    def total_observations(self) -> int:
        return len(self.ids)


def generate_world(seed: int, count: int, bounds: Box) -> World:
    """Scatter ``count`` landmarks i.i.d. uniformly inside ``bounds``."""
    AT_LEAST_1(count, "count")
    _LANDMARK_BUDGET(count, "count")
    draws = rng.keyed_uniform(seed, rng.WORLD, np.arange(count)[:, None], np.arange(3))
    landmarks = bounds.mins + (bounds.maxs - bounds.mins) * draws
    return World(landmarks=landmarks, seed=seed, bounds=bounds)


def _camera_axes(degrees: np.ndarray) -> np.ndarray:
    """(F, 3) Euler angles in degrees -> (F, 3, 3) camera axes in world coordinates.

    Rows of each 3x3 block: image-right, image-down, view-forward. The
    rotation is ``Rz @ Rx @ Ry``, the convention stated in the
    :mod:`trajkit.trajectory` docstring; at zero rotation the view axis is
    world +x (z up, right-handed), so image-right is -y and image-down is -z.
    """
    angles = np.radians(degrees).T
    (cx, cy, cz), (sx, sy, sz) = np.cos(angles), np.sin(angles)
    one, zero = np.ones_like(cx), np.zeros_like(cx)

    def stack(*rows):
        return np.stack(rows, axis=-1).reshape(-1, 3, 3)

    r = (
        stack(cz, -sz, zero, sz, cz, zero, zero, zero, one)
        @ stack(one, zero, zero, zero, cx, -sx, zero, sx, cx)
        @ stack(cy, zero, sy, zero, one, zero, -sy, zero, cy)
    )
    return np.stack([-r[:, :, 1], -r[:, :, 2], r[:, :, 0]], axis=1)


# Frames projected per step of retrace: a chunk's product takes 4 * _CHUNK * M
# doubles, 1 MB for 500 landmarks. Camera blocks, 128 B a frame, are built, and
# observations handed out, per _GROUP.
_CHUNK = 64
_GROUP = 64 * _CHUNK


def capture_manifest(dense: DenseTrajectory, cond: ConditionSet) -> CaptureManifest:
    """The manifest of a capture: row k is frame k's pose, named ``frame_<k:06d>.png``."""
    names = [f"frame_{k:06d}.png" for k in range(len(dense))]
    return CaptureManifest(names, dense.camera, dense.rotation, cond)


def retrace(
    dense: DenseTrajectory,
    world: World,
    intr: Intrinsics,
    cond: ConditionSet,
    base_pixel_sigma: float = 1.0,
    seed: int = 0,
) -> tuple[CaptureManifest, ObservationSet]:
    """Replay a dense trajectory, capturing one synthetic frame per pose.

    Each frame k produces a manifest row named ``frame_<k:06d>.png`` carrying
    the groundtruth camera pose, plus the landmark observations visible
    from it. A landmark is visible when it lies strictly in front of the
    camera, within ``max_range``, and its pinhole projection falls inside
    the image (bounds inclusive). Observations get Gaussian pixel noise
    with sigma ``base_pixel_sigma`` times the weather noise multiplier,
    are dropped independently with the condition's dropout rate (both
    from the fixed model of :func:`conditions.degradation`), and are
    discarded if noise pushes them out of the image. The dropout and noise
    draws of an observation are keyed on (seed, frame, landmark), so they
    depend neither on what else is visible nor on how frames are batched.
    The observations are the groups of :func:`retrace_chunks`, concatenated.
    """
    groups = retrace_chunks(dense, world, intr, cond, base_pixel_sigma, seed)
    columns = [np.concatenate(column) for column in zip(*groups)]
    for column in columns:  # handed over: ObservationSet adopts them without a copy
        column.setflags(write=False)
    return capture_manifest(dense, cond), ObservationSet(*columns, len(dense))


def retrace_chunks(
    dense: DenseTrajectory,
    world: World,
    intr: Intrinsics,
    cond: ConditionSet,
    base_pixel_sigma: float = 1.0,
    seed: int = 0,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The observations of :func:`retrace`, as (frame, ids, uv) columns of 4096 frames at a time.

    The arguments are checked on this call, before the first group is made;
    each group's rows run by frame, then landmark id.
    """
    SIGMA(base_pixel_sigma, "base_pixel_sigma")
    noise, drop = degradation(cond)
    sigma = SIGMA(base_pixel_sigma * noise, "pixel sigma")  # times the weather's multiplier

    # Coordinates beyond 2**500 are scaled down by a power of two, so that the
    # squares below stay finite. That is exact, unless a coordinate underflows:
    # no decision and no pixel changes.
    extent = max(np.abs(world.landmarks).max(initial=0.0), np.abs(dense.camera).max())
    shift = max(0, math.frexp(extent)[1] - 500)
    landmarks, cameras = np.ldexp(world.landmarks, -shift), np.ldexp(dense.camera, -shift)
    max_range = math.ldexp(intr.max_range, -shift)

    # Block f maps a landmark [p, 1] to frame f's right, down and forward
    # coordinates, A (p - c) for camera axes A and position c, and to
    # |p - c|^2 - |p|^2 = -2 p.c + |c|^2. A product, not ** 2, squares the
    # range, so that 1e200 gives inf, not OverflowError.
    points = np.column_stack([landmarks, np.ones(len(landmarks))])
    reach = max_range * max_range - np.einsum("ij,ij->i", landmarks, landmarks)
    m = len(points)
    product = np.empty((4 * _CHUNK, m))  # reused by every chunk

    def in_image(u, v):  # bounds inclusive
        return (u >= 0.0) & (u <= intr.width) & (v >= 0.0) & (v <= intr.height)

    def project(group):  # the columns of frames group .. group + _GROUP - 1
        camera = cameras[group:group + _GROUP]
        blocks = np.empty((len(camera), 4, 4))
        blocks[:, :3, :3] = _camera_axes(dense.rotation[group:group + _GROUP])
        blocks[:, :3, 3] = -np.einsum("fij,fj->fi", blocks[:, :3, :3], camera)
        blocks[:, 3, :3] = -2.0 * camera
        blocks[:, 3, 3] = np.einsum("ij,ij->i", camera, camera)
        parts = []
        for start in range(0, len(camera), _CHUNK):
            chunk = blocks[start:start + _CHUNK]
            out = np.matmul(chunk.reshape(-1, 4), points.T, out=product[:4 * len(chunk)])
            _, _, depth, sq_dist = out.reshape(len(chunk), 4, -1).transpose(1, 0, 2)
            # Flat indices run frame-major, so rows come out sorted by (frame, id).
            visible = np.flatnonzero((depth > 0.0) & (sq_dist <= reach))
            at = visible + visible // m * (3 * m)  # row 0 of frame f, id i: 4 f m + i
            right, down, ahead = (out.reshape(-1).take(at + q * m) for q in range(3))
            with np.errstate(over="ignore", invalid="ignore"):  # inf or nan: not in the image
                pixels_per_unit = intr.focal / ahead
                u = right * pixels_per_unit + intr.cx
                v = down * pixels_per_unit + intr.cy
                # At a depth below focal / 1.8e308 the scale overflows, and 0 * inf is
                # nan: divide by the depth first there.
                tiny = np.flatnonzero(np.isinf(pixels_per_unit))
                if len(tiny):
                    u[tiny] = right[tiny] / ahead[tiny] * intr.focal + intr.cx
                    v[tiny] = down[tiny] / ahead[tiny] * intr.focal + intr.cy
            inside = np.flatnonzero(in_image(u, v))
            frame, ids = np.divmod(visible[inside], m)
            frame += group + start
            # Draw 0 decides dropout; draws 1 and 2 give Box-Muller noise to the
            # survivors, so only theirs are hashed.
            prefix = rng.keyed_prefix(seed, frame, ids)
            kept = np.flatnonzero(rng.draw(prefix, 0) >= drop)
            survivors = prefix[kept]
            du, dv = rng.box_muller(rng.draw(survivors, 1), rng.draw(survivors, 2), sigma)
            uv = np.column_stack([u[inside[kept]] + du, v[inside[kept]] + dv])
            keep = in_image(*uv.T)
            parts.append((frame[kept[keep]], ids[kept[keep]], uv[keep]))
        return tuple(np.concatenate(column) for column in zip(*parts))

    return map(project, range(0, len(dense), _GROUP))


def outlier_indices(n: int, outlier_fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of the floor(fraction * n) entries with the smallest keyed draws.

    These are the entries that simulate_reconstruction displaces.
    """
    return rng.keyed_subset(seed, rng.OUTLIERS, n, int(math.floor(outlier_fraction * n)))


def simulate_reconstruction(
    manifest: CaptureManifest,
    gauge: SimilarityTransform,
    noise_sigma: float = 0.0,
    outlier_fraction: float = 0.0,
    outlier_radius: float = 0.0,
    seed: int = 0,
) -> ReconstructedSet:
    """Fake an external reconstruction of the manifest's camera positions.

    Every groundtruth position is pushed through ``gauge`` and jittered
    with isotropic Gaussian noise; a floor(fraction * N)-sized uniformly
    chosen subset is additionally displaced along a direction uniform on
    the sphere by a norm drawn uniformly from [radius, 2 * radius). The
    noise and the displacement of row k are keyed by k, so the first k
    rows do not depend on the rows that follow.
    """
    SIGMA(noise_sigma, "noise_sigma")
    IN_UNIT(outlier_fraction, "outlier_fraction")
    SIGMA._replace(test=lambda r: 0 <= 2.0 * r < math.inf)(outlier_radius, "outlier_radius")

    rows = np.arange(len(manifest.camera))[:, None]
    draws = rng.keyed_uniform(seed, rng.RECON_NOISE, rows, np.arange(4))
    idx = outlier_indices(len(rows), outlier_fraction, seed)
    u, v, w = rng.keyed_uniform(seed, rng.DISPLACEMENT, idx[:, None], np.arange(3)).T
    z, phi = 2.0 * u - 1.0, 2.0 * math.pi * v
    ring = np.sqrt(1.0 - z * z)
    directions = np.column_stack([ring * np.cos(phi), ring * np.sin(phi), z])
    with np.errstate(over="ignore", invalid="ignore"):
        positions = gauge.apply(manifest.camera)
        positions += noise_sigma * np.hstack(rng.box_muller(draws[:, :2], draws[:, 2:]))[:, :3]
        positions[idx] += directions * (outlier_radius * (1.0 + w))[:, None]
    if not np.isfinite(positions).all():
        raise ValueError("simulated positions exceed the float range")
    return ReconstructedSet(manifest.names, positions)


# --------------------------------------------------------------------------
# Plain-text serialization
# --------------------------------------------------------------------------

def write_world(world: World) -> str:
    bounds = (*world.bounds.mins, *world.bounds.maxs)
    header = f"# seed %s\n# bounds {' '.join([FIXED] * 6)}\n" % (world.seed, *bounds)
    columns = (np.arange(len(world.landmarks)), *world.landmarks.T)
    return header + textio.lines(f"%d {FIXED} {FIXED} {FIXED}\n", columns)


def read_world(text: str) -> World:
    (ids, *columns), headers = textio.table(text, (int, float, float, float))
    seed = bounds = None
    for line_no, fields in headers:
        if len(fields) == 2 and fields[0] == "seed":
            # Any integer is a seed (keyed_uniform() folds it into 64 bits).
            try:
                seed = int(fields[1])
            except ValueError:
                raise textio.error(text, line_no, 1, f"invalid seed {fields[1]!r}") from None
        elif len(fields) == 7 and fields[0] == "bounds":
            values = textio.numbers(text, line_no, fields, float, start=1)
            bounds = Box(values[:3], values[3:])
    wrong = np.flatnonzero(ids != np.arange(len(ids)))
    if len(wrong):
        raise InvariantViolation(
            f"landmark ids must be dense 0..M-1 in order; got {ids[wrong[0]]} at row {wrong[0]}"
        )
    if seed is None or bounds is None:
        raise ParseError("world file must carry '# seed' and '# bounds' headers", line=1)
    return World(np.column_stack(columns), seed=seed, bounds=bounds)


def observation_text(n_frames: int, groups: Iterable[tuple]) -> Iterator[str]:
    """The text of :func:`write_observations` in pieces: the header, then each group's rows.

    A group is (frame, ids, uv) columns, as :func:`retrace_chunks` yields them.
    """
    yield f"# frames {n_frames}\n"
    for frame, ids, uv in groups:
        yield textio.lines(f"%d %d {FIXED} {FIXED}\n", (frame, ids, uv[:, 0], uv[:, 1]))


def write_observations(obs: ObservationSet) -> str:
    return "".join(observation_text(obs.n_frames, [(obs.frame, obs.ids, obs.uv)]))


def read_observations(text: str) -> ObservationSet:
    (frame, ids, u, v), headers = textio.table(text, (int, int, float, float))
    n_frames = None
    for line_no, fields in headers:
        if len(fields) == 2 and fields[0] == "frames":
            n_frames = int(textio.numbers(text, line_no, fields, int, start=1)[0])
            frames_line = line_no
            if n_frames < 0:
                raise textio.error(text, line_no, 1, f"negative frame count {n_frames}")
    for j, (column, what) in enumerate(((frame, "frame index"), (ids, "landmark id"))):
        if len(column) and column.min() < 0:
            i = int(np.argmax(column < 0))
            raise textio.error(text, textio.record_line(text, i), j, f"negative {what} {column[i]}")
    last = int(frame.max(initial=-1))
    if n_frames is None:
        n_frames = last + 1
    elif n_frames <= last:
        message = f"{n_frames} frames (line {frames_line}) do not hold frame index {last}"
        raise InvariantViolation(message)
    columns = [frame, ids, np.column_stack([u, v])]
    if np.any(frame[1:] < frame[:-1]):
        # Group the lines by frame, keeping file order within a frame.
        order = np.argsort(frame, kind="stable")
        columns = [column[order] for column in columns]
    for column in columns:  # handed over: ObservationSet adopts them without a copy
        column.setflags(write=False)
    return ObservationSet(*columns, n_frames)


def points_to_ply(points: np.ndarray) -> str:
    """ASCII PLY point cloud, for drop-in viewing with standard tools."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        "element vertex %d\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n"
    ) % len(pts)
    return header + textio.lines(f"{FIXED} {FIXED} {FIXED}\n", pts.T)
