"""Command-line surface of the toolkit.

One binary, one subcommand per pipeline stage; trajectory-shaping flags
and condition flags are kept in separate namespaces so that captures of
the same trajectory under different conditions share an identical pose
set. Every subcommand is fully reproducible; the four that draw random
numbers (``perturb``, ``capture``, ``simrecon`` and ``align``) take
``--seed``, and identical inputs and seed give byte-identical outputs.

Exit codes: 0 success, 1 input error (unreadable or malformed files,
or a usage error), 2 invariant violation (well-formed data breaking a
domain rule).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from . import align, conditions, plotting, poseio, simworld, textio, trajectory
from .errors import InputError, InvariantViolation


def _write_text(path: Path, text: str | Iterable[str]) -> None:
    """Atomic write of ``text``, or of its str pieces in order: on any failure
    no partial output file remains."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_sparse(args) -> trajectory.SparseTrajectory:
    return poseio.read_sparse(_read_text(args.vertices), _read_text(args.orders))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_expand(args) -> None:
    sparse = _load_sparse(args)
    path = trajectory.expand_visitation(sparse)
    print(" ".join(plotting.roman_numeral(i + 1) for i in path))


def cmd_densify(args) -> None:
    sparse = _load_sparse(args)
    orientations = None
    if args.orientations:
        columns, _ = textio.table(_read_text(args.orientations), (float,) * 3)
        orientations = np.column_stack(columns)
    params = trajectory.DensifyParams(
        speed=args.speed,
        fps=args.fps,
        eye_offset_z=args.eye_offset_z,
        ground_z=args.ground_z,
    )
    dense = trajectory.densify(sparse, params)
    if orientations is not None:
        if len(orientations) != len(dense):
            raise InvariantViolation(f"supplied orientation list has {len(orientations)} entries, "
                                     f"trajectory has {len(dense)} frames")
        dense = trajectory.DenseTrajectory(dense.protagonist, dense.camera, orientations)
    _write_text(args.out, poseio.write_dense(dense))
    print(f"wrote {len(dense)} frames to {args.out}")


def cmd_perturb(args) -> None:
    dense = poseio.read_dense(_read_text(args.trajectory))
    noisy = trajectory.perturb(dense, args.pos_sigma, args.yaw_sigma, args.seed)
    _write_text(args.out, poseio.write_dense(noisy))
    print(f"wrote {len(noisy)} perturbed frames to {args.out}")


def cmd_capture(args) -> None:
    dense = poseio.read_dense(_read_text(args.trajectory))

    if args.world:
        world = simworld.read_world(_read_text(args.world))
    else:
        if args.bounds is not None:
            box = simworld.Box(args.bounds[:3], args.bounds[3:])
        else:
            # Default: the trajectory's xy footprint padded sideways, with
            # landmarks between ground level and facade height.
            xy = dense.protagonist[:, :2]
            lo = xy.min(axis=0) - 25.0
            hi = xy.max(axis=0) + 25.0
            box = simworld.Box((lo[0], lo[1], 0.0), (hi[0], hi[1], 15.0))
        world = simworld.generate_world(args.seed, args.landmark_count, box)

    intr = simworld.Intrinsics(args.focal, args.width, args.height, args.max_range)
    cond = conditions.ConditionSet(conditions.Weather(args.weather), conditions.TimeOfDay(args.time),
                                   args.vehicle_density, args.pedestrian_density)
    groups = simworld.retrace_chunks(
        dense, world, intr, cond, base_pixel_sigma=args.pixel_sigma, seed=args.seed
    )
    observed = 0

    def counted():  # one group at a time: the observations never exist all at once
        nonlocal observed
        for group in groups:
            observed += len(group[0])
            yield group

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "observations.txt", simworld.observation_text(len(dense), counted()))
    manifest = simworld.capture_manifest(dense, cond)
    _write_text(out_dir / "6dpose_list.txt", poseio.write_manifest(manifest))
    _write_text(out_dir / "world.txt", simworld.write_world(world))
    print(f"captured {len(manifest.names)} frames, {observed} observations -> {out_dir}")


def cmd_simrecon(args) -> None:
    manifest = poseio.read_manifest(_read_text(args.manifest))
    gauge = align.SimilarityTransform.from_z_rotation(
        args.gauge_scale, args.gauge_yaw, args.gauge_translate
    )
    recon = simworld.simulate_reconstruction(
        manifest, gauge, noise_sigma=args.noise_sigma, outlier_fraction=args.outlier_fraction,
        outlier_radius=args.outlier_radius, seed=args.seed,
    )
    _write_text(args.out, poseio.write_reconstruction(recon))
    print(f"wrote {len(recon.names)} reconstructed positions to {args.out}")


def cmd_align(args) -> None:
    recon = poseio.read_reconstruction(_read_text(args.recon))
    manifest = poseio.read_manifest(_read_text(args.manifest))
    params = align.RansacParams(threshold=args.threshold, max_iterations=args.max_iterations,
                                confidence=args.confidence, seed=args.seed)
    report = align.evaluate(recon, manifest, params, meters_per_unit=args.meters_per_unit)
    _write_text(args.out, poseio.write_report(report))
    print(f"average_error {report.average_error_m:.6f} m")
    print(f"median_error {report.median_error_m:.6f} m")
    print(f"inliers {int(report.inlier_mask.sum())}/{len(report.residuals_m)}")


def cmd_calibrate(args) -> None:
    (x, y, z, steps), _ = textio.table(_read_text(args.samples), (float, float, float, int))
    samples = list(zip(np.column_stack([x, y, z]).tolist(), steps.tolist()))
    value = align.calibrate_unit_scale(samples, stride_m=args.stride_m)
    print(f"{value:.6f}")


def cmd_subsample(args) -> None:
    trajectory.AT_LEAST_1(args.stride, "stride")
    manifest = poseio.read_manifest(_read_text(args.manifest))
    s = slice(None, None, args.stride)
    reduced = poseio.CaptureManifest(
        manifest.names[s], manifest.camera[s], manifest.rotation[s], manifest.conditions
    )
    _write_text(args.out, poseio.write_manifest(reduced))
    print(f"kept {len(reduced.names)} of {len(manifest.names)} records")


def cmd_plot(args) -> None:
    if bool(args.vertices) != bool(args.orders):
        raise InputError("--vertices and --orders must be given together")
    sparse = _load_sparse(args) if args.vertices else None
    dense = poseio.read_dense(_read_text(args.trajectory)) if args.trajectory else None
    if sparse is None and dense is None:
        raise InputError("plot needs --vertices/--orders and/or --trajectory")
    _write_text(args.out, plotting.plot_svg(sparse=sparse, dense=dense))
    print(f"wrote {args.out}")


def cmd_export_ply(args) -> None:
    if args.world:
        cloud = simworld.points_to_ply(simworld.read_world(_read_text(args.world)).landmarks)
    else:
        recon = poseio.read_reconstruction(_read_text(args.recon))
        cloud = simworld.points_to_ply(recon.positions)
    _write_text(args.out, cloud)
    print(f"wrote {args.out}")


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajkit",
        description="Synthesize camera trajectories, capture simulated observations, "
        "and evaluate reconstructed camera positions against groundtruth.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sparse_in = argparse.ArgumentParser(add_help=False)
    sparse_in.add_argument("--vertices", required=True, help="vertex file (x y per line)")
    sparse_in.add_argument("--orders", required=True, help="visitation order file")

    p = sub.add_parser("expand", parents=[sparse_in],
                       help="print the expanded visitation path")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("densify", parents=[sparse_in],
                       help="generate a dense fixed-rate trajectory")
    p.add_argument("--out", required=True)
    p.add_argument("--speed", type=float, default=trajectory.DensifyParams.speed,
                   help="game units per second")
    p.add_argument("--fps", type=float, default=trajectory.DensifyParams.fps)
    p.add_argument("--eye-offset-z", type=float, default=trajectory.DensifyParams.eye_offset_z)
    p.add_argument("--ground-z", type=float, default=trajectory.DensifyParams.ground_z)
    p.add_argument("--orientations", help="per-frame 'rx ry rz' file (default: forward mode)")
    p.set_defaults(func=cmd_densify)

    p = sub.add_parser("perturb", parents=[seeded], help="add Gaussian noise to a trajectory")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pos-sigma", type=float, default=0.0, help="camera position noise, units")
    p.add_argument("--yaw-sigma", type=float, default=0.0, help="yaw noise, degrees")
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("capture", parents=[seeded],
                       help="retrace a trajectory through the synthetic world")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--world", help="load a world file instead of generating one")
    p.add_argument("--landmark-count", type=int, default=500)
    p.add_argument("--bounds", type=float, nargs=6, metavar=("X0", "Y0", "Z0", "X1", "Y1", "Z1"),
                   help="world box (default: trajectory footprint padded)")
    intrinsics = simworld.default_intrinsics()
    p.add_argument("--focal", type=float, default=intrinsics.focal)
    p.add_argument("--width", type=int, default=intrinsics.width)
    p.add_argument("--height", type=int, default=intrinsics.height)
    p.add_argument("--max-range", type=float, default=intrinsics.max_range)
    p.add_argument("--pixel-sigma", type=float, default=1.0, help="base observation noise, pixels")
    cond = conditions.ConditionSet()
    p.add_argument("--weather", choices=[w.value for w in conditions.Weather],
                   default=cond.weather.value)
    p.add_argument("--time", choices=[t.value for t in conditions.TimeOfDay],
                   default=cond.time_of_day.value)
    p.add_argument("--vehicle-density", type=float, default=cond.vehicle_density)
    p.add_argument("--pedestrian-density", type=float, default=cond.pedestrian_density)
    p.set_defaults(func=cmd_capture)

    p = sub.add_parser("simrecon", parents=[seeded],
                       help="simulate an external reconstruction of a capture")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--gauge-scale", type=float, default=1.0)
    p.add_argument("--gauge-yaw", type=float, default=0.0, help="gauge rotation about z, degrees")
    p.add_argument("--gauge-translate", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                   metavar=("TX", "TY", "TZ"))
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--outlier-fraction", type=float, default=0.0)
    p.add_argument("--outlier-radius", type=float, default=0.0)
    p.set_defaults(func=cmd_simrecon)

    p = sub.add_parser("align", parents=[seeded],
                       help="align reconstructed positions to manifest groundtruth")
    p.add_argument("--recon", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="alignment report file")
    p.add_argument("--threshold", type=float, default=align.RansacParams.threshold,
                   help="inlier bound, game units")
    p.add_argument("--max-iterations", type=int, default=align.RansacParams.max_iterations)
    p.add_argument("--confidence", type=float, default=align.RansacParams.confidence)
    p.add_argument("--meters-per-unit", type=float, default=align.DEFAULT_METERS_PER_UNIT)
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("calibrate", help="meters-per-unit from walked 'x y z steps' samples")
    p.add_argument("--samples", required=True)
    p.add_argument("--stride-m", type=float, default=align.DEFAULT_STRIDE_M)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("subsample", help="keep every stride-th manifest record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stride", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_subsample)

    p = sub.add_parser("plot", help="top-down SVG plot")
    p.add_argument("--vertices")
    p.add_argument("--orders")
    p.add_argument("--trajectory")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("export-ply", help="export a point cloud as ASCII PLY")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--world")
    group.add_argument("--recon")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_ply)

    # argparse takes "-5" for a value, but "-inf" and, before Python 3.13, "-1e5" for options.
    for command in sub.choices.values():
        command._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, but 2 means an invariant violation here.
        if exc.code == 0:
            raise
        return 1
    try:
        args.func(args)
    except InvariantViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InputError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
