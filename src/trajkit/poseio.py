"""Readers and writers for the plain-text pose file formats.

Formats (all UTF-8, whitespace-separated tokens, floats written with six
fractional digits, one trailing newline per record):

* vertex file: one ``x y`` pair per non-empty line, line i = vertex i;
* vertex order file: line i lists the visitation steps of vertex i;
* dense trajectory: nine floats per line, protagonist XYZ, camera XYZ,
  rotation XYZ;
* capture manifest: ``<image name> <camera XYZ> <rotation XYZ>`` data
  lines, preceded by ``# key value`` header lines carrying the capture
  conditions (plain comments to third-party readers);
* reconstruction: ``<image name> <position XYZ>`` per line;
* alignment report: ``key value`` lines followed by per-point
  ``residual <name> <meters> <inlier 0|1>`` lines.

Readers follow the grammar shared through :mod:`trajkit.textio`; writers
emit single spaces and LF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import textio
from .align import AlignmentReport, SimilarityTransform
from .conditions import ConditionSet, TimeOfDay, Weather
from .errors import InvariantViolation, ParseError
from .textio import FIXED
from .trajectory import DenseTrajectory, SparseTrajectory, expand_visitation, frozen_array

# --------------------------------------------------------------------------
# Sparse trajectory (vertex + visitation order files)
# --------------------------------------------------------------------------

def read_sparse(vertex_text: str, order_text: str) -> SparseTrajectory:
    """Parse vertex and visitation-order files into a sparse trajectory.

    The result is validated: its steps must cover 1..S exactly once over
    existing vertices, otherwise InvariantViolation is raised.
    """
    recs, _ = textio.records(vertex_text)
    if not recs.texts:
        raise ParseError("vertex file contains no vertices", line=1)
    vertices = np.column_stack(textio.table(recs, (float, float)))

    # The order file is positional: line i holds the steps of vertex i; a
    # blank or '#' line leaves that vertex unvisited.
    recs, _ = textio.records(order_text)
    steps = {n: tuple(textio.row(recs, i, int).tolist()) for i, n in enumerate(recs.line_nos)}
    count = max([len(vertices), *steps])
    sparse = SparseTrajectory(vertices, [steps.get(n, ()) for n in range(1, count + 1)])
    expand_visitation(sparse)  # validates the vertex references and the step cover
    return sparse


# --------------------------------------------------------------------------
# Dense trajectory
# --------------------------------------------------------------------------

def write_dense(dense: DenseTrajectory) -> str:
    columns = (*dense.protagonist.T, *dense.camera.T, *dense.rotation.T)
    return textio.lines(" ".join([FIXED] * 9) + "\n", columns)


def read_dense(text: str) -> DenseTrajectory:
    recs, _ = textio.records(text)
    if not recs.texts:
        raise ParseError("trajectory file contains no pose lines", line=1)
    data = np.column_stack(textio.table(recs, (float,) * 9))
    return DenseTrajectory(data[:, 0:3], data[:, 3:6], data[:, 6:9])


# --------------------------------------------------------------------------
# Capture manifest
# --------------------------------------------------------------------------

def _check_names(names: Sequence[str], line_nos: Sequence[int] = ()) -> tuple[str, ...]:
    """``names`` as a tuple; each must be one token not starting with ``#``.

    Else ValueError, as no file could hold it; a repeat raises
    InvariantViolation, at its line when ``line_nos`` is given.
    """
    names = tuple(names)
    seen: set[str] = set()
    for k, name in enumerate(names):
        if name.split() != [name] or name.startswith("#"):
            raise ValueError(f"image name must be one token, not a comment: {name!r}")
        if name in seen:
            loc = f" (line {line_nos[k]})" if line_nos else ""
            raise InvariantViolation(f"duplicate image name {name!r}{loc}")
        seen.add(name)
    return names


def _equal(a, b) -> bool:
    """Field-wise equality of two pose tables; arrays compare by value."""
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(vars(a).values(), vars(b).values())
    )


@dataclass(frozen=True)
class CaptureManifest:
    """Frame-ordered camera poses tagged with their condition set.

    Row k of the (N, 3) ``camera`` and ``rotation`` arrays is the pose of
    image ``names[k]``; ``rotation`` columns are rx, ry, rz in degrees.
    """

    names: tuple[str, ...]
    camera: np.ndarray
    rotation: np.ndarray
    conditions: ConditionSet = field(default_factory=ConditionSet)

    __eq__ = _equal

    def __post_init__(self):
        object.__setattr__(self, "names", _check_names(self.names))
        object.__setattr__(self, "camera", frozen_array(self.camera, (3,)))
        object.__setattr__(self, "rotation", frozen_array(self.rotation, (3,)))
        if not len(self.names) == len(self.camera) == len(self.rotation):
            raise ValueError("names, camera and rotation must have equal length")


def write_manifest(manifest: CaptureManifest) -> str:
    cond = manifest.conditions
    header = (
        "# weather %s\n# time_of_day %s\n"
        f"# vehicle_density {FIXED}\n# pedestrian_density {FIXED}\n"
    ) % (cond.weather.value, cond.time_of_day.value, cond.vehicle_density, cond.pedestrian_density)
    columns = (manifest.names, *manifest.camera.T, *manifest.rotation.T)
    return header + textio.lines(" ".join(["%s"] + [FIXED] * 6) + "\n", columns)


def read_manifest(text: str) -> CaptureManifest:
    recs, headers = textio.records(text)
    enums = {"weather": Weather, "time_of_day": TimeOfDay}
    cond = {}
    for h, tokens in enumerate(map(str.split, headers.texts)):
        if len(tokens) != 2:
            continue  # plain comment
        key, value = tokens
        if key in enums:
            try:
                cond[key] = enums[key](value)
            except ValueError:
                raise textio.error(headers, h, 1, f"unknown {key} {value!r}") from None
        elif key in ("vehicle_density", "pedestrian_density"):
            cond[key] = float(textio.row(headers, h, float, start=1)[0])
    names, *columns = textio.table(recs, (str,) + (float,) * 6)
    data = np.column_stack(columns)
    return CaptureManifest(
        _check_names(names, recs.line_nos), data[:, :3], data[:, 3:], ConditionSet(**cond)
    )


# --------------------------------------------------------------------------
# Reconstructed camera positions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReconstructedSet:
    """Externally reconstructed camera positions, in reconstruction-frame units.

    Row k of the (N, 3) ``positions`` array belongs to image ``names[k]``.
    """

    names: tuple[str, ...]
    positions: np.ndarray

    __eq__ = _equal

    def __post_init__(self):
        object.__setattr__(self, "names", _check_names(self.names))
        object.__setattr__(self, "positions", frozen_array(self.positions, (3,)))
        if len(self.names) != len(self.positions):
            raise ValueError("names and positions must have equal length")


def read_reconstruction(text: str) -> ReconstructedSet:
    """Parse ``name x y z`` lines; an empty file is a valid empty set."""
    recs, _ = textio.records(text)
    names, *columns = textio.table(recs, (str, float, float, float))
    return ReconstructedSet(_check_names(names, recs.line_nos), np.column_stack(columns))


def write_reconstruction(recon: ReconstructedSet) -> str:
    return textio.lines(" ".join(["%s"] + [FIXED] * 3) + "\n", (recon.names, *recon.positions.T))


# --------------------------------------------------------------------------
# Alignment report
# --------------------------------------------------------------------------

def write_report(report: AlignmentReport) -> str:
    t, g = report.transform, "%.12g"  # the report writes twelve significant digits
    header = (
        f"scale {g}\nrotation{f' {g}' * 9}\ntranslation{f' {g}' * 3}\n"
        f"meters_per_unit {g}\naverage_error_m {g}\nmedian_error_m {g}\n"
        "inlier_count %d\ntotal_count %d\n"
    ) % (
        t.scale, *t.rotation.ravel(), *t.translation, report.meters_per_unit,
        report.average_error_m, report.median_error_m, report.inlier_mask.sum(),
        len(report.residuals_m),
    )
    columns = (report.names, report.residuals_m, report.inlier_mask)
    return header + textio.lines(f"residual %s {g} %d\n", columns)


def read_report(text: str) -> AlignmentReport:
    recs, _ = textio.records(text)
    keys = [line.split(None, 1)[0] for line in recs.texts]
    key_lines = {key: i for i, key in enumerate(keys)}
    residual = textio.take(recs, [i for i, key in enumerate(keys) if key == "residual"])
    _, names, meters, flags = textio.table(residual, (str, str, float, str))
    for i, flag in enumerate(flags):
        if flag not in ("0", "1"):
            raise textio.error(residual, i, 3, f"inlier flag must be 0 or 1, got {flag!r}")

    def value(key: str, count: int = 1) -> np.ndarray:
        if key not in key_lines:
            raise ParseError(f"report has no {key!r} line")
        _, *values = textio.table(textio.take(recs, [key_lines[key]]), (str,) + (float,) * count)
        return np.concatenate(values)

    return AlignmentReport(
        transform=SimilarityTransform(
            value("scale")[0], value("rotation", 9).reshape(3, 3), value("translation", 3)
        ),
        inlier_mask=np.array(flags, dtype=str) == "1",
        residuals_m=meters,
        average_error_m=float(value("average_error_m")[0]),
        median_error_m=float(value("median_error_m")[0]),
        meters_per_unit=float(value("meters_per_unit")[0]),
        names=names,
    )
