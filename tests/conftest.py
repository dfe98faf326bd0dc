"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

import trajkit as tk

# Seven vertices on a unit grid forming a city-block loop, visited in
# nine steps: vertex 1 at steps {1, 8}, vertex 2 at {2, 7}, then one
# step each for 3..6, and vertex 7 last.
WORKED_VERTICES = np.array(
    [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 1)], dtype=float
)
WORKED_ORDERS = ((1, 8), (2, 7), (3,), (4,), (5,), (6,), (9,))
WORKED_PATH = [0, 1, 2, 3, 4, 5, 1, 0, 6]

WORKED_VERTEX_TEXT = "".join(f"{x:g} {y:g}\n" for x, y in WORKED_VERTICES)
WORKED_ORDER_TEXT = "".join(" ".join(str(s) for s in steps) + "\n" for steps in WORKED_ORDERS)


def exactly(message: str) -> str:
    """A ``pytest.raises`` pattern that matches ``message`` and nothing else."""
    return f"^{re.escape(message)}$"


@pytest.fixture
def worked_sparse() -> tk.SparseTrajectory:
    return tk.SparseTrajectory(WORKED_VERTICES.copy(), WORKED_ORDERS)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random element of SO(3) via QR with sign fixes."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def euler_matrix(rx: float, ry: float, rz: float) -> np.ndarray:
    """World-from-body rotation matrix for degrees (rx, ry, rz), Rz(rz) @ Rx(rx) @ Ry(ry).

    Scalar reference for the vectorised camera axes of ``simworld.retrace``.
    """
    ax, ay, az = (math.radians(a) for a in (rx, ry, rz))
    cx, sx = math.cos(ax), math.sin(ax)
    cy, sy = math.cos(ay), math.sin(ay)
    cz, sz = math.cos(az), math.sin(az)
    rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return rz @ rx @ ry


def random_similarity(
    rng: np.random.Generator,
    scale_range: tuple[float, float] = (0.1, 10.0),
    translation_span: float = 100.0,
) -> tk.SimilarityTransform:
    return tk.SimilarityTransform(
        float(rng.uniform(*scale_range)),
        random_rotation(rng),
        rng.uniform(-translation_span, translation_span, 3),
    )


def brute_force_walk(
    points: np.ndarray, speed: float, fps: float
) -> list[tuple[float, float]]:
    """Independent arclength walker: sample positions at multiples of
    speed/fps until the next multiple would exceed the total length.

    Pure-Python segment scan, deliberately sharing no code with the
    densifier it checks.
    """
    segments = []
    total = 0.0
    for (x0, y0), (x1, y1) in zip(points[:-1], points[1:]):
        length = math.hypot(x1 - x0, y1 - y0)
        if length > 0.0:
            segments.append((x0, y0, x1, y1, total, length))
        total += length

    def position(s: float) -> tuple[float, float]:
        for x0, y0, x1, y1, start, length in segments:
            if s < start + length:
                t = (s - start) / length
                return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))
        x0, y0, x1, y1, start, length = segments[-1]
        t = (s - start) / length
        return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))

    step = speed / fps
    out = []
    k = 0
    while k * step <= total:
        out.append(position(k * step))
        k += 1
    return out


def random_polyline_sparse(rng: np.random.Generator) -> tk.SparseTrajectory:
    """Random 2..8-vertex plan visited in vertex order."""
    n = int(rng.integers(2, 9))
    vertices = rng.uniform(-10.0, 10.0, (n, 2))
    orders = tuple((i + 1,) for i in range(n))
    return tk.SparseTrajectory(vertices, orders)
