"""Sparse waypoint plans and dense fixed-rate 6DOF pose streams.

A sparse trajectory is a set of 2D map vertices plus, per vertex, the set
of steps at which it is visited. Expanding the visitation order gives a
vertex path; walking that path at constant speed and sampling at a fixed
frame rate gives a dense stream of 6DOF poses.

Angle and frame conventions used throughout the toolkit:

* the world is right-handed with z up; the map plane is x (east), y (north);
* rotations are degrees, applied intrinsically as Rz(rz) @ Rx(rx) @ Ry(ry);
* at zero rotation the view axis is +x, so the yaw rz turns the view in
  the ground plane (rz = 90 looks along +y).

All operations are pure functions of their inputs plus an explicit seed;
constructed values are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .rng import substream

# Frame budget of one dense trajectory, checked before anything is
# allocated; 34 times the 291,767 frames of the full-size large plan.
MAX_FRAMES = 10_000_000


def frozen_array(values, shape_tail: tuple[int, ...] | None = None) -> np.ndarray:
    """A read-only float64 copy of ``values``; every entry must be finite."""
    arr = np.array(values, dtype=float)
    if shape_tail is not None and arr.shape[1:] != shape_tail:
        raise ValueError(f"expected trailing shape {shape_tail}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("coordinates must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class EulerRotation:
    """Orientation as yaw/pitch/roll angles in degrees (rx, ry, rz), stored unnormalized."""

    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(a) for a in (self.rx, self.ry, self.rz)):
            raise ValueError(f"rotation angles must be finite: {self}")

    def matrix(self) -> np.ndarray:
        """World-from-body rotation matrix, Rz(rz) @ Rx(rx) @ Ry(ry)."""
        ax, ay, az = (math.radians(a) for a in (self.rx, self.ry, self.rz))
        cx, sx = math.cos(ax), math.sin(ax)
        cy, sy = math.cos(ay), math.sin(ay)
        cz, sz = math.cos(az), math.sin(az)
        rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        return rz @ rx @ ry


@dataclass(frozen=True)
class SparseTrajectory:
    """User-authored waypoints plus their visitation steps.

    ``vertices`` is an (N, 2) array of map coordinates in game units;
    ``orders[i]`` holds the 1-based steps at which vertex i is visited.
    The steps of a valid plan cover 1..S exactly once overall; that is
    checked by :func:`expand_visitation`, not at construction.
    """

    vertices: np.ndarray
    orders: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", frozen_array(self.vertices, (2,)))
        object.__setattr__(
            self, "orders", tuple(tuple(int(s) for s in steps) for steps in self.orders)
        )


@dataclass(frozen=True)
class DenseTrajectory:
    """Fixed-rate 6DOF pose stream.

    Stored as parallel (N, 3) arrays; frame k is row k. ``rotation``
    columns are rx, ry, rz in degrees.
    """

    protagonist: np.ndarray
    camera: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        prot = frozen_array(self.protagonist, (3,))
        cam = frozen_array(self.camera, (3,))
        rot = frozen_array(self.rotation, (3,))
        if not (len(prot) == len(cam) == len(rot)):
            raise ValueError("protagonist, camera and rotation must have equal length")
        if len(prot) == 0:
            raise ValueError("a dense trajectory must contain at least one sample")
        object.__setattr__(self, "protagonist", prot)
        object.__setattr__(self, "camera", cam)
        object.__setattr__(self, "rotation", rot)

    def __len__(self) -> int:
        return len(self.protagonist)


@dataclass(frozen=True)
class DensifyParams:
    """Densification controls.

    ``orientations`` of None selects forward mode (the view follows the
    local path tangent); otherwise it is an (N, 3) array of rx, ry, rz
    degrees with one row per output frame, taken verbatim.
    """

    speed: float = 1.6
    fps: float = 60.0
    eye_offset_z: float = 0.75
    ground_z: float = 0.0
    orientations: np.ndarray | None = None

    def __post_init__(self):
        for name in ("speed", "fps"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def expand_visitation(sparse: SparseTrajectory) -> list[int]:
    """Expand per-vertex visitation steps into an ordered vertex path.

    Returns a length-S list of 0-based vertex indices, where entry s is
    the vertex whose order set contains step s+1.

    Raises InvariantViolation when the step sets do not form an exact
    cover of 1..S over existing vertices.
    """
    if len(sparse.orders) > len(sparse.vertices):
        raise InvariantViolation(
            f"order sets reference vertex {len(sparse.orders)}, "
            f"but only {len(sparse.vertices)} vertices exist"
        )
    step_to_vertex: dict[int, int] = {}
    for vertex, steps in enumerate(sparse.orders):
        for step in steps:
            if step in step_to_vertex:
                raise InvariantViolation(f"visitation step {step} assigned more than once")
            step_to_vertex[step] = vertex
    total = len(step_to_vertex)
    path = []
    for step in range(1, total + 1):
        if step not in step_to_vertex:
            raise InvariantViolation(
                f"missing visitation step {step} (steps must cover 1..S without gaps)"
            )
        path.append(step_to_vertex[step])
    return path


def path_polyline(sparse: SparseTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Expand the visitation order into 2D path points with arclengths.

    Returns (points, cumlen): an (S, 2) array of path coordinates and the
    matching cumulative arclength, starting at 0 and ending at the total
    path length. Raises InvariantViolation when fewer than two distinct
    points remain.
    """
    path = expand_visitation(sparse)
    if len(path) < 2:
        raise InvariantViolation(f"path has {len(path)} point(s); need at least 2")
    points = sparse.vertices[path]
    gaps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cumlen = np.concatenate(([0.0], np.cumsum(gaps)))
    if cumlen[-1] <= 0.0:
        raise InvariantViolation("all path points coincide")
    return points, cumlen


def densify(sparse: SparseTrajectory, params: DensifyParams = DensifyParams()) -> DenseTrajectory:
    """Walk the expanded path at constant speed, sampling one pose per frame.

    Sample k sits at arclength min(k * speed/fps, L); the frame count is
    floor(L / (speed/fps)) + 1, so the terminal sample is never duplicated
    when L divides evenly. The protagonist moves in the ground plane at
    ``ground_z``; the camera rides ``eye_offset_z`` above it. In forward
    mode the yaw follows the tangent of the segment being traversed, with
    the outgoing segment taking over exactly at each joint and the final
    segment's tangent held through the last frame.
    """
    points, cumlen = path_polyline(sparse)
    total = float(cumlen[-1])
    step = params.speed / params.fps
    steps = total / step if step > 0.0 else math.inf  # step underflows for absurd rates
    if steps >= MAX_FRAMES:
        raise InvariantViolation(f"this speed and fps take more than {MAX_FRAMES} frames")
    n = math.floor(steps) + 1
    arcs = np.minimum(np.arange(n) * step, total)

    # Positive-length segments only; zero-length joints contribute nothing.
    lengths = np.diff(cumlen)
    keep = lengths > 0
    starts = points[:-1][keep]
    deltas = (points[1:] - points[:-1])[keep]
    seg_begin = cumlen[:-1][keep]
    seg_end = cumlen[1:][keep]

    # side="right" puts a sample falling exactly on a joint into the
    # outgoing segment; the terminal sample (arc == L) is clamped back
    # onto the final segment.
    seg = np.searchsorted(seg_end, arcs, side="right")
    seg[seg == len(seg_end)] = len(seg_end) - 1
    t = (arcs - seg_begin[seg]) / (seg_end[seg] - seg_begin[seg])
    xy = starts[seg] + t[:, None] * deltas[seg]

    protagonist = np.column_stack([xy, np.full(n, params.ground_z)])
    camera = protagonist + np.array([0.0, 0.0, params.eye_offset_z])

    if params.orientations is None:
        yaw = np.degrees(np.arctan2(deltas[:, 1], deltas[:, 0]))
        rotation = np.zeros((n, 3))
        rotation[:, 2] = yaw[seg]
    else:
        rotation = np.asarray(params.orientations, dtype=float)
        if rotation.ndim != 2 or rotation.shape[1] != 3:
            raise ValueError(f"orientation array must be (N, 3), got {rotation.shape}")
        if len(rotation) != n:
            raise InvariantViolation(
                f"supplied orientation list has {len(rotation)} entries, trajectory has {n} frames"
            )

    return DenseTrajectory(protagonist, camera, rotation)


def perturb(
    dense: DenseTrajectory, pos_sigma: float, yaw_sigma: float, seed: int
) -> DenseTrajectory:
    """Add i.i.d. Gaussian noise to the camera positions and yaw angles.

    The protagonist track and frame indexing are untouched; zero sigmas
    return an identical copy, and a fixed seed is fully reproducible.
    """
    if not (0 <= pos_sigma < math.inf and 0 <= yaw_sigma < math.inf):
        raise ValueError("noise sigmas must be non-negative and finite")
    rng = substream(seed)
    n = len(dense)
    camera = dense.camera + pos_sigma * rng.standard_normal((n, 3))
    rotation = np.array(dense.rotation)
    rotation[:, 2] += yaw_sigma * rng.standard_normal(n)
    return DenseTrajectory(dense.protagonist, camera, rotation)
