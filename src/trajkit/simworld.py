"""Deterministic synthetic world: landmarks, pinhole capture, fake reconstruction.

No pixels are ever rendered. A "screenshot" is a manifest record with a
synthetic file name plus the set of landmark projections visible from
that pose; the evaluation pipeline consumes only poses and observations.
The simulated reconstruction pushes groundtruth camera positions through
a hidden similarity gauge and corrupts them with noise and radial
outliers, giving a closed loop with a known answer for the aligner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .align import SimilarityTransform
from .conditions import (
    DEFAULT_DEGRADATION,
    ConditionSet,
    DegradationTable,
    degradation,
    validate,
)
from . import textio
from .errors import DegenerateBounds, InvariantViolation, ParseError
from .poseio import CaptureManifest, CaptureRecord, ReconstructedSet
from .rng import substream
from .textio import fixed
from .trajectory import MAX_FRAMES, DenseTrajectory, EulerRotation


@dataclass(frozen=True)
class Box:
    """Axis-aligned box with positive extent on every axis."""

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.array(self.mins, dtype=float).reshape(3)
        maxs = np.array(self.maxs, dtype=float).reshape(3)
        if not (np.all(np.isfinite(mins)) and np.all(np.isfinite(maxs))):
            raise DegenerateBounds("bounds must be finite")
        if np.any(maxs <= mins):
            raise DegenerateBounds(f"bounds have non-positive extent: {mins} .. {maxs}")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def center(self) -> np.ndarray:
        return (self.mins + self.maxs) / 2.0


@dataclass(frozen=True)
class World:
    """Landmark cloud standing in for scene geometry; ids are row indices."""

    landmarks: np.ndarray
    seed: int
    bounds: Box

    def __post_init__(self):
        pts = np.array(self.landmarks, dtype=float).reshape(-1, 3)
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
        if self.focal <= 0:
            raise ValueError(f"focal must be positive, got {self.focal}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image dimensions must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie within the image")
        if self.max_range <= 0:
            raise ValueError("max_range must be positive")


def default_intrinsics(max_range: float = 100.0) -> Intrinsics:
    """1920x1080 with a 60 degree horizontal field of view."""
    width, height = 1920, 1080
    focal = (width / 2.0) / math.tan(math.radians(30.0))
    return Intrinsics(
        focal=focal, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, max_range=max_range,
    )


@dataclass(frozen=True)
class FrameObservations:
    """Landmark projections seen in one frame."""

    frame: int
    ids: np.ndarray   # (K,) landmark ids
    uv: np.ndarray    # (K, 2) pixel coordinates

    def __post_init__(self):
        ids = np.array(self.ids, dtype=int).reshape(-1)
        uv = np.array(self.uv, dtype=float).reshape(-1, 2)
        if len(ids) != len(uv):
            raise ValueError("ids and uv must have equal length")
        ids.setflags(write=False)
        uv.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "uv", uv)


@dataclass(frozen=True)
class ObservationSet:
    frames: tuple[FrameObservations, ...]

    def __post_init__(self):
        object.__setattr__(self, "frames", tuple(self.frames))

    def total_observations(self) -> int:
        return sum(len(f.ids) for f in self.frames)


def generate_world(seed: int, count: int, bounds: Box) -> World:
    """Scatter ``count`` landmarks i.i.d. uniformly inside ``bounds``."""
    if count <= 0:
        raise ValueError(f"landmark count must be positive, got {count}")
    rng = substream(seed)
    landmarks = rng.uniform(bounds.mins, bounds.maxs, size=(count, 3))
    return World(landmarks=landmarks, seed=seed, bounds=bounds)


def _camera_axes(rotation: EulerRotation) -> np.ndarray:
    """Rows: image-right, image-down, view-forward in world coordinates.

    At zero rotation the view axis is world +x (z up, right-handed), so
    image-right is -y and image-down is -z.
    """
    r = rotation.matrix()
    return np.stack([r @ [0.0, -1.0, 0.0], r @ [0.0, 0.0, -1.0], r @ [1.0, 0.0, 0.0]])


def project_frame(
    camera_pos: np.ndarray, rotation: EulerRotation, landmarks: np.ndarray, intr: Intrinsics
) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free pinhole projection of all landmarks visible from one pose.

    A landmark is visible when it lies strictly in front of the camera,
    within ``max_range``, and projects inside the image (bounds
    inclusive). Returns (ids, uv) sorted by landmark id.
    """
    axes = _camera_axes(rotation)
    delta = landmarks - camera_pos
    cam = delta @ axes.T  # columns: right, down, forward
    depth = cam[:, 2]
    in_front = depth > 0.0
    in_range = np.einsum("ij,ij->i", delta, delta) <= intr.max_range ** 2
    candidate = in_front & in_range
    ids = np.flatnonzero(candidate)
    if len(ids) == 0:
        return ids, np.empty((0, 2))
    uv = intr.focal * cam[ids, :2] / depth[ids, None]
    uv += (intr.cx, intr.cy)
    inside = (
        (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
        & (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
    )
    return ids[inside], uv[inside]


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

    Each frame k produces a record named ``frame_<k:06d>.png`` carrying
    the groundtruth camera pose, plus the landmark observations visible
    from it. Observations get Gaussian pixel noise with sigma
    ``base_pixel_sigma`` times the weather noise multiplier, are dropped
    independently with the condition's dropout rate, and are discarded if
    noise pushes them out of the image. Per-frame RNG substreams are
    keyed on (seed, frame), so captures are reproducible and frames
    could be evaluated concurrently without changing the result.
    """
    if base_pixel_sigma < 0:
        raise ValueError("base_pixel_sigma must be non-negative")
    profile = degradation(validate(cond), table)
    sigma = base_pixel_sigma * profile.pixel_noise_multiplier
    drop = profile.dropout_rate

    records = []
    frames = []
    for k in range(len(dense)):
        camera_pos = dense.camera[k]
        rotation = EulerRotation(*dense.rotation[k])
        ids, uv = project_frame(camera_pos, rotation, world.landmarks, intr)

        rng = substream(seed, k)
        kept = rng.random(len(ids)) >= drop
        noise = sigma * rng.standard_normal((len(ids), 2))
        uv = uv + noise
        inside = (
            (uv[:, 0] >= 0.0) & (uv[:, 0] <= intr.width)
            & (uv[:, 1] >= 0.0) & (uv[:, 1] <= intr.height)
        )
        keep = kept & inside
        frames.append(FrameObservations(frame=k, ids=ids[keep], uv=uv[keep]))
        records.append(
            CaptureRecord(
                image_name=f"frame_{k:06d}.png",
                camera_pos=tuple(map(float, camera_pos)),
                camera_rot=rotation,
            )
        )
    return CaptureManifest(tuple(records), cond), ObservationSet(tuple(frames))


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
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    if not 0.0 <= outlier_fraction <= 1.0:
        raise ValueError("outlier_fraction must lie in [0, 1]")
    if outlier_radius < 0:
        raise ValueError("outlier_radius must be non-negative")

    names = [r.image_name for r in manifest.records]
    truth = np.array([r.camera_pos for r in manifest.records], dtype=float).reshape(-1, 3)
    positions = gauge.apply(truth)
    positions = positions + substream(seed, 0).normal(0.0, noise_sigma, positions.shape)

    idx = outlier_indices(len(names), outlier_fraction, seed)
    if len(idx):
        rng = substream(seed, 2)
        directions = rng.standard_normal((len(idx), 3))
        norms = np.linalg.norm(directions, axis=1, keepdims=True)
        while np.any(norms < 1e-12):  # essentially unreachable
            directions = rng.standard_normal((len(idx), 3))
            norms = np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(outlier_radius, 2.0 * outlier_radius, len(idx))
        positions[idx] += directions / norms * radii[:, None]

    return ReconstructedSet(
        tuple((name, tuple(map(float, pos))) for name, pos in zip(names, positions))
    )


# --------------------------------------------------------------------------
# Plain-text serialization
# --------------------------------------------------------------------------

def write_world(world: World) -> str:
    mins, maxs = world.bounds.mins, world.bounds.maxs
    lines = [
        f"# seed {world.seed}",
        "# bounds " + " ".join(fixed(v) for v in (*mins, *maxs)),
    ]
    for i, (x, y, z) in enumerate(world.landmarks):
        lines.append(f"{i} {fixed(x)} {fixed(y)} {fixed(z)}")
    return "\n".join(lines) + "\n"


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
    lines = [f"# frames {len(obs.frames)}"]
    for fr in obs.frames:
        for i, (u, v) in zip(fr.ids, fr.uv):
            lines.append(f"{fr.frame} {i} {fixed(u)} {fixed(v)}")
    return "\n".join(lines) + "\n"


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
    # Group the lines by frame, keeping file order within a frame.
    order = np.argsort(frame, kind="stable")
    ids, uv = ids[order], np.column_stack([u, v])[order]
    cuts = np.searchsorted(frame[order], np.arange(n_frames + 1)).tolist()
    return ObservationSet(tuple(
        FrameObservations(k, ids[a:b], uv[a:b]) for k, (a, b) in enumerate(zip(cuts, cuts[1:]))
    ))


def points_to_ply(points: np.ndarray) -> str:
    """ASCII PLY point cloud, for drop-in viewing with standard tools."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    header = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {len(pts)}\n"
        "property float x\n"
        "property float y\n"
        "property float z\n"
        "end_header\n"
    )
    return header + "".join(f"{fixed(x)} {fixed(y)} {fixed(z)}\n" for x, y, z in pts)


def world_to_ply(world: World) -> str:
    return points_to_ply(world.landmarks)
