"""Static top-down SVG rendering of sparse plans and dense trajectories.

Hand-rolled SVG keeps the output dependency-free and predictable: each
vertex gets a ``vertex-label`` text element (Roman numeral, matching how
the CLI prints vertex paths) and each visitation step one ``order-arrow``
line. Step 1 is drawn as a short lead-in arrow into the first vertex;
steps 2..S connect consecutive path vertices.
"""

from __future__ import annotations

import math

import numpy as np

from .trajectory import DenseTrajectory, SparseTrajectory, expand_visitation

_ROMAN = (
    (1000, "M"), (900, "CM"), (500, "D"), (400, "CD"), (100, "C"), (90, "XC"),
    (50, "L"), (40, "XL"), (10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I"),
)
# Canvas size and the margin kept clear around the plot, in SVG pixels.
WIDTH = 800
HEIGHT = 600
MARGIN = 40.0
# Largest coordinate _Mapper takes; padded spans then stay within the float range.
_MAX_COORD = np.finfo(float).max / 4


def roman_numeral(value: int) -> str:
    """Roman numeral for a positive integer (vertex display labels)."""
    if value < 1:
        raise ValueError(f"roman numerals start at 1, got {value}")
    out = []
    for base, glyph in _ROMAN:
        while value >= base:
            out.append(glyph)
            value -= base
    return "".join(out)


class _Mapper:
    """World (x east, y north) to SVG pixel coordinates, north up."""

    def __init__(self, points: np.ndarray):
        if np.abs(points).max() > _MAX_COORD:
            raise ValueError("plot extent exceeds the float range")
        lo = points.min(axis=0)
        hi = points.max(axis=0)
        span = np.maximum(hi - lo, 1e-9)
        pad = 0.05 * span.max()
        lo, hi = lo - pad, hi + pad
        # Far from the origin the pad can round away and leave an axis with
        # no span; such an axis does not set the scale.
        canvas = (WIDTH - 2 * MARGIN, HEIGHT - 2 * MARGIN)
        self._scale = min((c / s for c, s in zip(canvas, hi - lo) if s > 0), default=1.0)
        self._lo = lo

    def __call__(self, p) -> tuple[float, float]:
        x = MARGIN + (p[0] - self._lo[0]) * self._scale
        y = HEIGHT - MARGIN - (p[1] - self._lo[1]) * self._scale
        return x, y


def plot_svg(
    sparse: SparseTrajectory | None = None, dense: DenseTrajectory | None = None
) -> str:
    """Render the plan and/or trajectory as an SVG string."""
    if sparse is None and dense is None:
        raise ValueError("nothing to plot: provide a sparse plan and/or a dense trajectory")

    stacks = []
    if sparse is not None:
        stacks.append(np.asarray(sparse.vertices))
    if dense is not None:
        stacks.append(np.asarray(dense.protagonist[:, :2]))
    mapper = _Mapper(np.vstack(stacks))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<defs>"
        '<marker id="arrowhead" markerWidth="8" markerHeight="8" refX="7" refY="3" orient="auto">'
        '<path d="M0,0 L7,3 L0,6 z" fill="#c0392b"/>'
        "</marker>"
        "</defs>",
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]

    if dense is not None:
        pts = " ".join(
            f"{x:.2f},{y:.2f}" for x, y in (mapper(p) for p in dense.protagonist[:, :2])
        )
        parts.append(
            f'<polyline class="dense-path" points="{pts}" '
            'fill="none" stroke="#2980b9" stroke-width="1.5"/>'
        )

    if sparse is not None:
        path = expand_visitation(sparse)
        coords = [mapper(sparse.vertices[i]) for i in path]
        parts.append('<g class="order-arrows" stroke="#c0392b" stroke-width="1.5">')
        if coords:
            lead = _lead_in(coords, 0.05 * max(WIDTH, HEIGHT))
            parts.append(_arrow(lead, coords[0], step=1))
            for s in range(1, len(coords)):
                parts.append(_arrow(coords[s - 1], coords[s], step=s + 1))
        parts.append("</g>")

        parts.append('<g class="vertices">')
        for i, vertex in enumerate(sparse.vertices):
            x, y = mapper(vertex)
            label = roman_numeral(i + 1)
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="#2c3e50"/>')
            parts.append(
                f'<text class="vertex-label" x="{x + 7:.2f}" y="{y - 7:.2f}" '
                f'font-family="sans-serif" font-size="14">{label}</text>'
            )
        parts.append("</g>")

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _lead_in(coords: list[tuple[float, float]], length: float) -> tuple[float, float]:
    """Start point of the step-1 arrow: short approach into the first vertex."""
    x0, y0 = coords[0]
    for x1, y1 in coords[1:]:
        dx, dy = x1 - x0, y1 - y0
        norm = math.hypot(dx, dy)
        if norm > 1e-9:
            return (x0 - dx / norm * length, y0 - dy / norm * length)
    return (x0 - length * math.sqrt(0.5), y0 + length * math.sqrt(0.5))


def _arrow(a: tuple[float, float], b: tuple[float, float], step: int) -> str:
    return (
        f'<line class="order-arrow" data-step="{step}" '
        f'x1="{a[0]:.2f}" y1="{a[1]:.2f}" x2="{b[0]:.2f}" y2="{b[1]:.2f}" '
        'marker-end="url(#arrowhead)"/>'
    )
