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

from typing import Sequence

import numpy as np

from . import textio
from .align import AlignmentReport, SimilarityTransform
from .conditions import ConditionSet, TimeOfDay, Weather
from .errors import InvariantViolation, ParseError
from .textio import FIXED
from .trajectory import DenseTrajectory, SparseTrajectory, expand_visitation, value_type

def _fields(columns: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Each three ``columns`` as one read-only (N, 3) array, which a value type adopts
    without a copy (see trajectory.frozen_array)."""
    fields = [np.column_stack(columns[k:k + 3]) for k in range(0, len(columns), 3)]
    for array in fields:
        array.setflags(write=False)
    return fields


# --------------------------------------------------------------------------
# Sparse trajectory (vertex + visitation order files)
# --------------------------------------------------------------------------

def read_sparse(vertex_text: str, order_text: str) -> SparseTrajectory:
    """Parse vertex and visitation-order files into a sparse trajectory.

    The result is validated: its steps must cover 1..S exactly once over
    existing vertices, otherwise InvariantViolation is raised.
    """
    columns, _ = textio.table(vertex_text, (float, float))
    if not len(columns[0]):
        raise ParseError("vertex file contains no vertices", line=1)
    vertices = np.column_stack(columns)

    # The order file is positional: line i holds the steps of vertex i; a
    # blank or '#' line leaves that vertex unvisited.
    steps = {n: tuple(textio.numbers(order_text, n, fields, int).tolist())
             for n, fields in textio.record_fields(order_text)}
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
    columns, _ = textio.table(text, (float,) * 9)
    if not len(columns[0]):
        raise ParseError("trajectory file contains no pose lines", line=1)
    return DenseTrajectory(*_fields(columns))


# --------------------------------------------------------------------------
# Capture manifest
# --------------------------------------------------------------------------

def _check_names(names: Sequence[str], text: str | None = None) -> tuple[str, ...]:
    """``names`` as a tuple; each must be one token not starting with ``#``.

    Else ValueError, as no file could hold it; a repeat raises
    InvariantViolation, at its line when the names are the records of ``text``.
    """
    names = tuple(names)
    if _single_tokens(names) and len(unique := set(names)) == len(names) and "" not in unique:
        return names
    seen: set[str] = set()
    for k, name in enumerate(names):
        if name.split() != [name] or name.startswith("#"):
            raise ValueError(f"image name must be one token, not a comment: {name!r}")
        if name in seen:
            loc = f" (line {textio.record_line(text, k)})" if text is not None else ""
            raise InvariantViolation(f"duplicate image name {name!r}{loc}")
        seen.add(name)
    return names


def _single_tokens(names: tuple[str, ...]) -> bool:
    """Whether one pass over the joined names shows none holds whitespace or a leading ``#``.

    Then the only whitespace is the len - 1 separators, and a name starts
    with ``#`` where the joined names or a " #" do. Only " " of all
    whitespace is printable, so an unprintable name is not shown here (nor
    a non-str one): the caller's loop judges it. An empty name passes.
    ASCII names take one bytes.translate pass for ``str.isprintable``.
    """
    try:
        joined = " ".join(names)
    except TypeError:
        return False
    printable = (not joined.encode("ascii").translate(None, _PRINTABLE_ASCII)
                 if joined.isascii() else joined.isprintable())
    return (joined.count(" ") == len(names) - 1 and printable
            and not joined.startswith("#") and " #" not in joined)


# The ASCII characters that str.isprintable accepts: " " to "~".
_PRINTABLE_ASCII = bytes(range(0x20, 0x7F))


@value_type("names", "camera", "rotation", camera=(-1, 3), rotation=(-1, 3), names=_check_names)
class CaptureManifest:
    """Frame-ordered camera poses tagged with their condition set.

    Row k of the (N, 3) ``camera`` and ``rotation`` arrays is the pose of
    image ``names[k]``; ``rotation`` columns are rx, ry, rz in degrees.
    """

    names: tuple[str, ...]
    camera: np.ndarray
    rotation: np.ndarray
    conditions: ConditionSet = ConditionSet()


def write_manifest(manifest: CaptureManifest) -> str:
    cond = manifest.conditions
    header = (
        "# weather %s\n# time_of_day %s\n"
        f"# vehicle_density {FIXED}\n# pedestrian_density {FIXED}\n"
    ) % (cond.weather.value, cond.time_of_day.value, cond.vehicle_density, cond.pedestrian_density)
    columns = (manifest.names, *manifest.camera.T, *manifest.rotation.T)
    return header + textio.lines(" ".join(["%s"] + [FIXED] * 6) + "\n", columns)


def read_manifest(text: str) -> CaptureManifest:
    (names, *columns), headers = textio.table(text, (str,) + (float,) * 6)
    enums = {"weather": Weather, "time_of_day": TimeOfDay}
    cond = {}
    for line_no, fields in headers:
        if len(fields) != 2:
            continue  # plain comment
        key, value = fields
        if key in enums:
            try:
                cond[key] = enums[key](value)
            except ValueError:
                raise textio.error(text, line_no, 1, f"unknown {key} {value!r}") from None
        elif key in ("vehicle_density", "pedestrian_density"):
            cond[key] = float(textio.numbers(text, line_no, fields, float, start=1)[0])
    try:
        return CaptureManifest(names, *_fields(columns), ConditionSet(**cond))
    except (ValueError, InvariantViolation):
        _check_names(names, text)  # a repeated name is the first fault, named at its line
        raise


# --------------------------------------------------------------------------
# Reconstructed camera positions
# --------------------------------------------------------------------------

@value_type("names", "positions", positions=(-1, 3), names=_check_names)
class ReconstructedSet:
    """Externally reconstructed camera positions, in reconstruction-frame units.

    Row k of the (N, 3) ``positions`` array belongs to image ``names[k]``.
    """

    names: tuple[str, ...]
    positions: np.ndarray


def read_reconstruction(text: str) -> ReconstructedSet:
    """Parse ``name x y z`` lines; an empty file is a valid empty set."""
    (names, *columns), _ = textio.table(text, (str, float, float, float))
    try:
        return ReconstructedSet(names, *_fields(columns))
    except (ValueError, InvariantViolation):
        _check_names(names, text)  # a repeated name is the first fault, named at its line
        raise


def write_reconstruction(recon: ReconstructedSet) -> str:
    return textio.lines(" ".join(["%s"] + [FIXED] * 3) + "\n", (recon.names, *recon.positions.T))


# --------------------------------------------------------------------------
# Alignment report
# --------------------------------------------------------------------------

def write_report(report: AlignmentReport) -> str:
    t, g = report.transform, "%.12g"  # twelve significant digits; int64 flags take "%d"
    header = (
        f"scale {g}\nrotation{f' {g}' * 9}\ntranslation{f' {g}' * 3}\n"
        f"meters_per_unit {g}\naverage_error_m {g}\nmedian_error_m {g}\n"
        "inlier_count %d\ntotal_count %d\n"
    ) % (
        t.scale, *t.rotation.ravel(), *t.translation, report.meters_per_unit,
        report.average_error_m, report.median_error_m, report.inlier_mask.sum(),
        len(report.residuals_m),
    )
    columns = (report.names, report.residuals_m, report.inlier_mask.astype(np.int64))
    return header + textio.lines(f"residual %s {g} %d\n", columns)


def read_report(text: str) -> AlignmentReport:
    keyed, tokens, line_nos, fault = {}, [], [], None
    for line_no, fields in textio.record_fields(text):
        if fields[0] != "residual":
            keyed[fields[0]] = line_no, fields
        elif len(fields) != 4:
            fault = ParseError(f"expected 4 fields, got {len(fields)}", line=line_no)
            break
        elif fields[3] not in ("0", "1"):
            fault = textio.error(text, line_no, 3, f"inlier flag must be 0 or 1, got {fields[3]!r}")
            break
        else:
            tokens += fields
            line_nos.append(line_no)
    # The distances go in one call, before a fault: a bad distance above it comes first.
    _, names, meters, flags = textio.to_columns(text, tokens, line_nos, (str, str, float, int))
    if fault is not None:
        raise fault

    def value(key: str, count: int = 1, kind: type = float) -> np.ndarray:
        if key not in keyed:
            raise ParseError(f"report has no {key!r} line")
        line_no, fields = keyed[key]
        if len(fields) != count + 1:
            raise ParseError(f"expected {count + 1} fields, got {len(fields)}", line=line_no)
        return textio.numbers(text, line_no, fields, kind, start=1)

    report = AlignmentReport(
        transform=SimilarityTransform(
            value("scale")[0], value("rotation", 9).reshape(3, 3), value("translation", 3)
        ),
        inlier_mask=flags == 1,
        residuals_m=meters,
        average_error_m=float(value("average_error_m")[0]),
        median_error_m=float(value("median_error_m")[0]),
        meters_per_unit=float(value("meters_per_unit")[0]),
        names=names,
    )
    # A count line is optional, but must match the residual lines.
    for key, counted, what in (("inlier_count", np.count_nonzero(flags), "inlier residual"),
                               ("total_count", len(names), "residual")):
        if key in keyed and (stated := value(key, kind=int)[0]) != counted:
            raise InvariantViolation(f"{key} {stated} (line {keyed[key][0]}) does not match "
                                     f"the {counted} {what} lines")
    return report
