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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .align import SimilarityTransform
from .conditions import DEFAULT_DEGRADATION, ConditionSet, DegradationTable, degradation
from . import textio
from .errors import InvariantViolation, ParseError
from .poseio import CaptureManifest, ReconstructedSet
from .rng import keyed_uniform, substream
from .textio import FIXED
from .trajectory import MAX_FRAMES, DenseTrajectory

# Landmark budget of one world, checked by generate_world before it draws;
# 10 times the largest world the tests build. retrace's chunk buffer
# takes 4 * _CHUNK doubles, 2 KB, per landmark: 2 GB at the cap.
MAX_LANDMARKS = 1_000_000


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with positive extent on every axis."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.array(self.mins, dtype=float).reshape(3)
        maxs = np.array(self.maxs, dtype=float).reshape(3)
        if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
            raise ValueError("bounds must be finite")
        if np.any(maxs <= mins):
            raise InvariantViolation(f"bounds have non-positive extent: {mins} .. {maxs}")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)


@dataclass(frozen=True)
class World:
    """Landmark cloud standing in for scene geometry; ids are row indices."""

    landmarks: np.ndarray
    seed: int
    bounds: Box

    def __post_init__(self):
        pts = np.array(self.landmarks, dtype=float).reshape(-1, 3)
        if len(pts) > MAX_LANDMARKS:
            raise InvariantViolation(f"{len(pts)} landmarks exceed the limit of {MAX_LANDMARKS}")
        if np.any(pts < self.bounds.mins) or np.any(pts > self.bounds.maxs):
            raise InvariantViolation("landmarks outside world bounds")
        pts.setflags(write=False)
        object.__setattr__(self, "landmarks", pts)


@dataclass(frozen=True)
class Intrinsics:
    focal: float
    cx: float
    cy: float
    width: int
    height: int
    max_range: float

    def __post_init__(self):
        if not 0 < self.focal < math.inf:
            raise ValueError(f"focal must be positive and finite, got {self.focal}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie within the image")
        if not self.max_range > 0:  # inf: unlimited range
            raise ValueError(f"max_range must be positive, got {self.max_range}")


def default_intrinsics(max_range: float = 100.0) -> Intrinsics:
    """1920x1080 with a 60 degree horizontal field of view."""
    width, height = 1920, 1080
    focal = (width / 2.0) / math.tan(math.radians(30.0))
    return Intrinsics(
        focal=focal, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, max_range=max_range,
    )


class FrameObservations(NamedTuple):
    """The landmark projections seen in one frame: views into an ObservationSet."""

    frame: int
    ids: np.ndarray   # (K,) landmark ids
    uv: np.ndarray    # (K, 2) pixel coordinates


@dataclass(frozen=True)
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
        frame = np.array(self.frame, dtype=np.int64).reshape(-1)
        ids = np.array(self.ids, dtype=np.int64).reshape(-1)
        uv = np.array(self.uv, dtype=float).reshape(-1, 2)
        if not len(frame) == len(ids) == len(uv):
            raise ValueError("frame, ids and uv must have equal length")
        if np.any(frame[1:] < frame[:-1]):
            raise ValueError("observations must be sorted by frame")
        if self.n_frames < 0 or len(frame) and not 0 <= frame[0] <= frame[-1] < self.n_frames:
            raise ValueError(f"frame indices must lie in 0..{self.n_frames - 1}")
        for column in (frame, ids, uv):
            column.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "uv", uv)
        object.__setattr__(self, "n_frames", int(self.n_frames))

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
    if count <= 0:
        raise ValueError(f"landmark count must be positive, got {count}")
    if count > MAX_LANDMARKS:
        raise InvariantViolation(f"{count} landmarks exceed the limit of {MAX_LANDMARKS}")
    rng = substream(seed)
    landmarks = rng.uniform(bounds.mins, bounds.maxs, size=(count, 3))
    return World(landmarks=landmarks, seed=seed, bounds=bounds)


def _camera_axes(degrees: np.ndarray) -> np.ndarray:
    """(F, 3) Euler angles in degrees -> (F, 3, 3) camera axes in world coordinates.

    Rows of each 3x3 block: image-right, image-down, view-forward. The
    rotation is ``Rz @ Rx @ Ry`` as in ``EulerRotation.matrix()``; at zero
    rotation the view axis is world +x (z up, right-handed), so
    image-right is -y and image-down is -z.
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


# Frames projected per step of retrace: the product of a chunk takes
# 4 * _CHUNK * M doubles, 1 MB for 500 landmarks.
_CHUNK = 64


def retrace(
    dense: DenseTrajectory,
    world: World,
    intr: Intrinsics,
    cond: ConditionSet,
    base_pixel_sigma: float = 1.0,
    seed: int = 0,
    table: DegradationTable = DEFAULT_DEGRADATION,
) -> tuple[CaptureManifest, ObservationSet]:
    """Replay a dense trajectory, capturing one synthetic frame per pose.

    Each frame k produces a manifest row named ``frame_<k:06d>.png`` carrying
    the groundtruth camera pose, plus the landmark observations visible
    from it. A landmark is visible when it lies strictly in front of the
    camera, within ``max_range``, and its pinhole projection falls inside
    the image (bounds inclusive). Observations get Gaussian pixel noise
    with sigma ``base_pixel_sigma`` times the weather noise multiplier,
    are dropped independently with the condition's dropout rate, and are
    discarded if noise pushes them out of the image. The dropout and noise
    draws of an observation are keyed on (seed, frame, landmark), so they
    depend neither on what else is visible nor on how frames are batched.
    """
    if not 0 <= base_pixel_sigma < math.inf:
        raise ValueError(f"base_pixel_sigma must be finite and >= 0, got {base_pixel_sigma}")
    profile = degradation(cond, table)
    sigma = base_pixel_sigma * profile.pixel_noise_multiplier
    # Draw 1 is at most 1 - 2**-53, so no noise radius exceeds sigma * sqrt(-2 ln 2**-53).
    if not math.isfinite(sigma * math.sqrt(-2.0 * math.log(2.0 ** -53))):
        raise ValueError(f"pixel sigma {sigma} makes the largest noise radius overflow")
    drop = profile.dropout_rate

    # Block f of a chunk maps a landmark [p, 1] to frame f's right, down and forward
    # coordinates, A (p - c) for camera axes A and position c, and to
    # |p - c|^2 - |p|^2 = -2 p.c + |c|^2. A product, not ** 2, squares the
    # range, so that 1e200 gives inf, not OverflowError.
    landmarks = world.landmarks
    points = np.column_stack([landmarks, np.ones(len(landmarks))])
    reach = intr.max_range * intr.max_range - np.einsum("ij,ij->i", landmarks, landmarks)
    product = np.empty((4 * _CHUNK, len(points)))  # reused by every chunk
    columns = []
    for start in range(0, len(dense), _CHUNK):
        camera = dense.camera[start:start + _CHUNK]
        blocks = np.empty((len(camera), 4, 4))
        blocks[:, :3, :3] = _camera_axes(dense.rotation[start:start + _CHUNK])
        blocks[:, :3, 3] = -np.einsum("fij,fj->fi", blocks[:, :3, :3], camera)
        blocks[:, 3, :3] = -2.0 * camera
        blocks[:, 3, 3] = np.einsum("ij,ij->i", camera, camera)
        out = np.matmul(blocks.reshape(-1, 4), points.T, out=product[:4 * len(camera)])
        right, down, depth, sq_dist = out.reshape(len(camera), 4, -1).transpose(1, 0, 2)
        # Flat indices run frame-major, so rows come out sorted by (frame, id).
        visible = np.flatnonzero((depth > 0.0) & (sq_dist <= reach))
        pixels_per_unit = intr.focal / depth.flat[visible]
        u = right.flat[visible] * pixels_per_unit + intr.cx
        v = down.flat[visible] * pixels_per_unit + intr.cy
        inside = (u >= 0.0) & (u <= intr.width) & (v >= 0.0) & (v <= intr.height)
        frame, ids = np.divmod(visible[inside], len(points))
        frame += start
        uv = np.column_stack([u[inside], v[inside]])

        # Draw 0 decides dropout; draws 1 and 2 give Box-Muller noise.
        draws = keyed_uniform(seed, frame[:, None], ids[:, None], np.arange(3))
        radius = sigma * np.sqrt(-2.0 * np.log1p(-draws[:, 1]))
        angle = 2.0 * math.pi * draws[:, 2]
        uv += radius[:, None] * np.column_stack([np.cos(angle), np.sin(angle)])
        keep = (
            (draws[:, 0] >= drop)
            & (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
            & (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
        )
        columns.append((frame[keep], ids[keep], uv[keep]))
    frame, ids, uv = (np.concatenate(column) for column in zip(*columns))
    names = [f"frame_{k:06d}.png" for k in range(len(dense))]
    return (
        CaptureManifest(names, dense.camera, dense.rotation, cond),
        ObservationSet(frame, ids, uv, len(dense)),
    )


def outlier_indices(n: int, outlier_fraction: float, seed: int) -> np.ndarray:
    """Sorted indices of the floor(fraction * n) entries picked as outliers.

    Shares the substream used by simulate_reconstruction, so callers can
    recover exactly which entries were displaced.
    """
    count = int(math.floor(outlier_fraction * n))
    if count == 0:
        return np.empty(0, dtype=int)
    return np.sort(substream(seed, 1).choice(n, size=count, replace=False))


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
    chosen subset is additionally displaced along a random direction by a
    norm drawn uniformly from [radius, 2 * radius]. Substreams: (seed, 0)
    noise, (seed, 1) outlier selection, (seed, 2) displacement.
    """
    if not 0 <= noise_sigma < math.inf:
        raise ValueError(f"noise_sigma must be non-negative and finite, got {noise_sigma}")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must lie in [0, 1]")
    if not 0 <= 2.0 * outlier_radius < math.inf:
        raise ValueError(f"outlier_radius must be >= 0, 2 * radius finite; got {outlier_radius}")

    positions = gauge.apply(manifest.camera)
    positions = positions + substream(seed, 0).normal(0.0, noise_sigma, positions.shape)

    idx = outlier_indices(len(positions), outlier_fraction, seed)
    if len(idx):
        rng = substream(seed, 2)
        directions = rng.standard_normal((len(idx), 3))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        while np.any(norms < 1e-12):  # essentially unreachable
            directions = rng.standard_normal((len(idx), 3))
            norms = np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(outlier_radius, 2.0 * outlier_radius, len(idx))
        positions[idx] += directions / norms * radii[:, None]

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
    recs, headers = textio.records(text)
    seed = bounds = None
    for h, tokens in enumerate(map(str.split, headers.texts)):
        if len(tokens) == 2 and tokens[0] == "seed":
            # Any integer is a seed (substream() folds it into 64 bits).
            try:
                seed = int(tokens[1])
            except ValueError:
                raise textio.error(headers, h, 1, f"invalid seed {tokens[1]!r}") from None
        elif len(tokens) == 7 and tokens[0] == "bounds":
            values = textio.row(headers, h, float, start=1)
            bounds = Box(values[:3], values[3:])
    ids, *columns = textio.table(recs, (int, float, float, float))
    wrong = np.flatnonzero(ids != np.arange(len(ids)))
    if len(wrong):
        raise InvariantViolation(
            f"landmark ids must be dense 0..M-1 in order; got {ids[wrong[0]]} at row {wrong[0]}"
        )
    if seed is None or bounds is None:
        raise ParseError("world file must carry '# seed' and '# bounds' headers", line=1)
    return World(np.column_stack(columns).reshape(-1, 3), seed=seed, bounds=bounds)


def write_observations(obs: ObservationSet) -> str:
    columns = (obs.frame, obs.ids, obs.uv[:, 0], obs.uv[:, 1])
    return f"# frames {obs.n_frames}\n" + textio.lines(f"%d %d {FIXED} {FIXED}\n", columns)


def read_observations(text: str) -> ObservationSet:
    recs, headers = textio.records(text)
    n_frames = 0
    for h, tokens in enumerate(map(str.split, headers.texts)):
        if len(tokens) == 2 and tokens[0] == "frames":
            n_frames = int(textio.row(headers, h, int, start=1)[0])
    frame, ids, u, v = textio.table(recs, (int, int, float, float))
    for j, (column, what) in enumerate(((frame, "frame index"), (ids, "landmark id"))):
        if len(column) and column.min() < 0:
            i = int(np.argmax(column < 0))
            raise textio.error(recs, i, j, f"negative {what} {column[i]}")
    n_frames = max(n_frames, int(frame.max(initial=-1)) + 1)
    if n_frames > MAX_FRAMES:
        raise InvariantViolation(f"{n_frames} frames exceed the limit of {MAX_FRAMES}")
    del recs  # the line texts outweigh the columns; free them before sorting
    # Group the lines by frame, keeping file order within a frame.
    order = np.argsort(frame, kind="stable")
    return ObservationSet(frame[order], ids[order], np.column_stack([u, v])[order], n_frames)


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
