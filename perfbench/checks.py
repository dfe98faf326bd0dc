"""Output checks that judge results by meaning, not by bytes.

A legitimate change to the bytes a seeded run produces (a new RNG, say)
must not count as a failure, so the checks test what the outputs mean:

* the recovered scale matches the inverse gauge within a tolerance set
  from the reconstruction noise and the extent of the trajectory;
* no displaced (outlier) entry is admitted as an inlier, and at least
  99.9% of the true inliers are kept;
* the manifest poses equal the dense poses;
* the world holds the landmarks asked for, and the observation file
  holds every observation retrace made, each of a known frame and
  landmark and inside the image;
* writing back what was read gives identical bytes.

Each check belongs to a pipeline stage; a failed check fails that stage's
operation in the pass. Every function returns ``{stage: [message, ...]}``
holding only the failures.
"""

from __future__ import annotations

import math

import numpy as np

from trajkit import poseio, simworld

MIN_INLIERS_KEPT = 0.999

# kind -> (reader, writer, stage that produced the file)
ROUND_TRIPS = {
    "dense": (poseio.read_dense, poseio.write_dense, "densify"),
    "manifest": (poseio.read_manifest, poseio.write_manifest, "capture"),
    "observations": (simworld.read_observations, simworld.write_observations, "capture"),
    "world": (simworld.read_world, simworld.write_world, "capture"),
    "recon": (poseio.read_reconstruction, poseio.write_reconstruction, "simrecon"),
}


def data_rows(text: str) -> list[list[str]]:
    """Whitespace-split fields of every non-blank line that is not a '#' header."""
    return [line.split() for line in text.splitlines() if line.strip() and not line.startswith("#")]


def manifest_names(manifest_text: str) -> list[str]:
    return [row[0] for row in data_rows(manifest_text)]


def round_trip(kind: str, text: str, parsed=None) -> tuple[dict[str, list[str]], object]:
    """Writing back what was read (``parsed``, else read here) gives ``text``.

    Returns the failures and the parsed object (None if reading failed).
    """
    reader, writer, stage = ROUND_TRIPS[kind]
    try:
        if parsed is None:
            parsed = reader(text)
        same = writer(parsed) == text
    except Exception as exc:  # a reader failing on the program's own output is a failed check
        return {stage: [f"{kind}: read back failed: {type(exc).__name__}: {exc}"]}, None
    return ({} if same else {stage: [f"{kind}: writing back what was read changes the bytes"]}), parsed


def poses_match(dense_text: str, manifest_text: str) -> dict[str, list[str]]:
    """Manifest camera position and rotation equal the dense trajectory's, frame by frame."""
    dense = [row[3:9] for row in data_rows(dense_text)]
    manifest = [row[1:7] for row in data_rows(manifest_text)]
    if dense != manifest:
        return {"capture": [f"manifest poses differ from dense poses ({len(manifest)} vs {len(dense)} frames)"]}
    return {}


def capture(
    observations: simworld.ObservationSet,
    world: simworld.World,
    frames: int,
    landmarks: int,
    image_size: tuple[int, int],
    expected_observations: int | None,
) -> dict[str, list[str]]:
    """Check the capture's observations and world, as read back, by what they hold.

    The world holds ``landmarks`` landmarks. The observations cover the
    manifest's ``frames`` frames and number what retrace made
    (``expected_observations``); each names a landmark below
    ``landmarks`` and a pixel inside the ``image_size`` (width, height)
    image. The round trip has already tied these objects to the files.
    """
    failures = []
    if len(world.landmarks) != landmarks:
        failures.append(f"world: {len(world.landmarks)} landmarks, not {landmarks}")
    if len(observations.frames) != frames:
        failures.append(f"observations: {len(observations.frames)} frames, not the manifest's {frames}")
    total = observations.total_observations()
    if total != expected_observations:
        failures.append(f"observations: {total} in the file, but retrace made {expected_observations}")
    if total:
        ids = np.concatenate([f.ids for f in observations.frames])
        uv = np.concatenate([f.uv for f in observations.frames])
        width, height = image_size
        if not ((ids >= 0) & (ids < landmarks)).all():
            failures.append(f"observations: a landmark id outside 0..{landmarks - 1}")
        if not ((uv >= 0) & (uv <= (width, height))).all():
            failures.append(f"observations: a pixel outside the {width}x{height} image")
    return {"capture": failures} if failures else {}


def scale_tolerance(truth: np.ndarray, gauge_scale: float, noise_sigma: float) -> float:
    """Bound on |recovered scale - 1/gauge_scale| for a noisy reconstruction.

    ``truth`` holds the N true-inlier positions. Isotropic noise of
    ``noise_sigma`` in the reconstruction (the source side of the fit)
    biases the least-squares scale low by the share 3 sigma^2 / (var +
    3 sigma^2) of the source variance (errors in variables); on top of
    that allow six standard errors of the estimate, sigma / sqrt(N var).
    """
    centered = truth - truth.mean(axis=0)
    var = gauge_scale ** 2 * float((centered ** 2).sum(axis=1).mean())
    noise_var = 3.0 * noise_sigma ** 2
    relative = noise_var / (var + noise_var) + 6.0 * noise_sigma / math.sqrt(len(truth) * var)
    return relative / gauge_scale


def alignment(
    report_text: str,
    manifest_text: str,
    outlier_names: set[str],
    gauge_scale: float,
    noise_sigma: float,
) -> tuple[dict[str, list[str]], dict]:
    """Check an alignment report against the known gauge and outlier set.

    Returns the failures and the facts checked (recovered scale, its
    tolerance, inlier counts), for the run record.
    """
    fields = {}
    residual_flags = {}
    for row in data_rows(report_text):
        if row[0] == "residual" and len(row) == 4:
            residual_flags[row[1]] = row[3] == "1"
        else:
            fields[row[0]] = row[1:]
    try:
        scale = float(fields["scale"][0])
        counts = int(fields["inlier_count"][0]), int(fields["total_count"][0])
    except (KeyError, IndexError, ValueError) as exc:
        return {"align": [f"malformed report: {type(exc).__name__}: {exc}"]}, {}
    rows = data_rows(manifest_text)
    true_inliers = [row for row in rows if row[0] not in outlier_names]
    truth = np.array([[float(v) for v in row[1:4]] for row in true_inliers]).reshape(-1, 3)
    tolerance = scale_tolerance(truth, gauge_scale, noise_sigma)
    admitted = sorted(n for n in outlier_names if residual_flags.get(n))
    kept = sum(1 for row in true_inliers if residual_flags.get(row[0]))
    failures = []
    if not abs(scale - 1.0 / gauge_scale) <= tolerance:
        failures.append(f"recovered scale {scale!r} is not {1.0 / gauge_scale} within {tolerance:.3g}")
    if admitted:
        failures.append(f"{len(admitted)} outlier(s) admitted as inliers, e.g. {admitted[0]}")
    if kept < MIN_INLIERS_KEPT * len(true_inliers):
        failures.append(f"only {kept} of {len(true_inliers)} true inliers kept")
    if len(residual_flags) != len(rows):
        failures.append(f"report covers {len(residual_flags)} of {len(rows)} frames")
    facts = {
        "scale": scale,
        "scale_tolerance": tolerance,
        "true_inliers": len(true_inliers),
        "inliers_kept": kept,
        "outliers_admitted": len(admitted),
        "inlier_count": counts[0],
        "total_count": counts[1],
    }
    return ({"align": failures} if failures else {}), facts


def merge(*results: dict[str, list[str]]) -> dict[str, list[str]]:
    merged: dict[str, list[str]] = {}
    for result in results:
        for stage, messages in result.items():
            merged.setdefault(stage, []).extend(messages)
    return merged
