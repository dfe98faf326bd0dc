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

All operations are pure functions of their inputs plus an explicit seed.
Constructed values are immutable: every value type is declared through
value_type, which stores each array field through frozen_array (convert,
check shape and finiteness, copy unless the array is already a read-only
owner, make read-only), each scalar field through its Rules and each other
declared field through its converter, checks that its rows align, and
compares by value through equal_by_value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial, reduce
from typing import Any, Callable, NamedTuple

import numpy as np

from . import rng
from .errors import InvariantViolation

# Frame budget of one dense trajectory, checked before anything is
# allocated; 34 times the 291,767 frames of the full-size large plan.
MAX_FRAMES = 10_000_000


def frozen_array(values, shape: tuple[int, ...], dtype=float, *, name: str) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``, for the array field ``name`` of a value type.

    Its shape must match ``shape``, where -1 admits any length, and every
    entry must be finite; else ValueError naming the field. An ndarray that
    is read-only, owns its data and already has the dtype is adopted, not
    copied: the caller hands it over and must not make it writable again.
    """
    adopt = (type(values) is np.ndarray and values.base is None
             and not values.flags.writeable and values.dtype == dtype)
    arr = values if adopt else np.array(values, dtype=dtype)
    if arr.ndim != len(shape) or any(n not in (-1, m) for n, m in zip(shape, arr.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}".replace("-1", "N"))
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def equal_by_value(a, b) -> bool:
    """Field-wise equality of two values of one type; array fields compare by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(vars(a).values(), vars(b).values())
    )


class Rule(NamedTuple):
    """A scalar rule, one test, wording and exception class: ``rule(value, name)`` returns
    ``value`` if ``test(value)`` holds, else raises ``error`` with the wording filled in with
    ``name`` and ``value``. value_type binds a rule to its field's name."""

    test: Callable[[Any], bool]
    wording: str
    error: type[Exception] = ValueError

    def __call__(self, value, name: str):
        if not self.test(value):
            raise self.error(self.wording.format(name=name, value=value))
        return value


# ValueError makes the CLI exit 1, InvariantViolation exit 2. A test that must raise either,
# as [0, 1] does, is two rules: its user makes the second with _replace(error=...).
POSITIVE_FINITE = Rule(lambda v: 0 < v < math.inf, "{name} must be positive and finite, got {value}")
FINITE = Rule(math.isfinite, "{name} must be finite, got {value}")
POSITIVE = Rule(lambda v: v > 0, "{name} must be positive, got {value}")  # inf passes
IN_OPEN_UNIT = Rule(lambda v: 0 < v < 1, "{name} must lie in (0, 1), got {value}")
IN_UNIT = Rule(lambda v: 0 <= v <= 1, "{name} must be within [0, 1], got {value}")
AT_LEAST_1 = Rule(lambda v: v >= 1, "{name} must be at least 1")

# A Gaussian sigma: no rng.box_muller draw exceeds sigma * rng.MAX_NORMAL. A spread whose
# largest draw is another multiple of it takes this rule with that test, through _replace.
SIGMA = Rule(lambda v: 0 <= v * rng.MAX_NORMAL < math.inf,
             "{name} must be >= 0 and its largest draw must not overflow, got {value}")


def at_most(limit: int, noun: str) -> Rule:
    """A budget, checked before anything is allocated: at most ``limit`` ``noun``."""
    return Rule(lambda v: v <= limit, f"{{value}} {noun} exceed the limit of {limit}",
                InvariantViolation)


def value_type(*rows: str, **fields):
    """Class decorator: a frozen dataclass compared by equal_by_value.

    Each keyword declares a field, stored in keyword order before the class's
    own ``__post_init__`` checks its domain rules, the ones that join fields:
    ``name=shape`` or ``name=(shape, dtype)`` an array field, stored through
    frozen_array; ``name=rule`` a scalar field checked by that Rule, under its
    name; ``name=convert`` any other field, stored as ``convert(value)``; and
    a tuple of rules and converters, applied in turn. Last, the fields named
    in ``rows`` must have equal length.
    """
    def converter(name, spec):
        if isinstance(spec, Rule):
            return partial(spec, name=name)
        if callable(spec):
            return spec
        if callable(spec[0]):
            steps = [converter(name, step) for step in spec]
            return lambda value: reduce(lambda v, step: step(v), steps, value)
        shape, dtype = spec if isinstance(spec[0], tuple) else (spec, float)
        return partial(frozen_array, shape=shape, dtype=dtype, name=name)

    converters = {name: converter(name, spec) for name, spec in fields.items()}

    def declare(cls):
        domain_rules = cls.__dict__.get("__post_init__", lambda self: None)

        def __post_init__(self):
            for name, convert in converters.items():
                object.__setattr__(self, name, convert(getattr(self, name)))
            domain_rules(self)
            if len({len(getattr(self, name)) for name in rows}) > 1:
                raise ValueError(f"{', '.join(rows[:-1])} and {rows[-1]} must have equal length")

        cls.__post_init__, cls.__eq__ = __post_init__, equal_by_value
        return dataclass(frozen=True)(cls)

    return declare


@value_type(vertices=(-1, 2), orders=lambda orders: tuple(tuple(map(int, s)) for s in orders))
class SparseTrajectory:
    """User-authored waypoints plus their visitation steps.

    ``vertices`` is an (N, 2) array of map coordinates in game units;
    ``orders[i]`` holds the 1-based steps at which vertex i is visited.
    The steps of a valid plan cover 1..S exactly once overall; that is
    checked by :func:`expand_visitation`, not at construction.
    """

    vertices: np.ndarray
    orders: tuple[tuple[int, ...], ...]


@value_type("protagonist", "camera", "rotation",
            protagonist=(-1, 3), camera=(-1, 3), rotation=(-1, 3))
class DenseTrajectory:
    """Fixed-rate 6DOF pose stream.

    Stored as parallel (N, 3) arrays; frame k is row k. ``rotation``
    columns are rx, ry, rz in degrees.
    """

    protagonist: np.ndarray
    camera: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        if len(self.protagonist) == 0:
            raise ValueError("a dense trajectory must contain at least one sample")

    def __len__(self) -> int:
        return len(self.protagonist)


@value_type(speed=POSITIVE_FINITE, fps=POSITIVE_FINITE)
class DensifyParams:
    """Densification controls."""

    speed: float = 1.6
    fps: float = 60.0
    eye_offset_z: float = 0.75
    ground_z: float = 0.0

    def __post_init__(self):
        FINITE(self.speed / self.fps, "step length speed / fps")
        if not math.isfinite(self.ground_z + self.eye_offset_z):
            raise ValueError("camera height ground_z + eye_offset_z must be finite")


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
    points remain, and ValueError when the length overflows.
    """
    path = expand_visitation(sparse)
    if len(path) < 2:
        raise InvariantViolation(f"path has {len(path)} point(s); need at least 2")
    points = sparse.vertices[path]
    with np.errstate(over="ignore"):
        gaps = np.linalg.norm(np.diff(points, axis=0), axis=1)
        cumlen = np.concatenate(([0.0], np.cumsum(gaps)))
    if not np.isfinite(cumlen[-1]):
        raise ValueError("path length overflows the float range")
    if cumlen[-1] <= 0.0:
        raise InvariantViolation("all path points coincide")
    return points, cumlen


def densify(sparse: SparseTrajectory, params: DensifyParams = DensifyParams()) -> DenseTrajectory:
    """Walk the expanded path at constant speed, sampling one pose per frame.

    Sample k sits at arclength min(k * speed/fps, L); the frame count is
    floor(L / (speed/fps)) + 1, so the terminal sample is never duplicated
    when L divides evenly. The protagonist moves in the ground plane at
    ``ground_z``; the camera rides ``eye_offset_z`` above it. The yaw
    follows the tangent of the segment being traversed, with the outgoing
    segment taking over exactly at each joint and the final segment's
    tangent held through the last frame.
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

    yaw = np.degrees(np.arctan2(deltas[:, 1], deltas[:, 0]))
    rotation = np.zeros((n, 3))
    rotation[:, 2] = yaw[seg]
    return DenseTrajectory(protagonist, camera, rotation)


def perturb(
    dense: DenseTrajectory, pos_sigma: float, yaw_sigma: float, seed: int
) -> DenseTrajectory:
    """Add i.i.d. Gaussian noise to the camera positions and yaw angles.

    The protagonist track and frame indexing are untouched; zero sigmas
    return an identical copy, and a fixed seed is fully reproducible.
    """
    SIGMA(pos_sigma, "pos_sigma")
    SIGMA(yaw_sigma, "yaw_sigma")
    draws = rng.keyed_uniform(seed, rng.PERTURB, np.arange(len(dense))[:, None], np.arange(4))
    normal = np.hstack(rng.box_muller(draws[:, :2], draws[:, 2:]))
    camera = dense.camera + pos_sigma * normal[:, :3]
    rotation = np.array(dense.rotation)
    rotation[:, 2] += yaw_sigma * normal[:, 3]
    return DenseTrajectory(dense.protagonist, camera, rotation)
