"""trajkit benchmark: run one workload from a seed, check it, print its metrics.

Usage, from the root of a source checkout (trajkit need not be installed;
it is imported from ``src/``):

    python3 perfbench/run.py --workload capture_large --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``walkthrough_cli``, ``capture_large``,
``align_outliers``; ``all.py`` runs them all. A run generates the
workload's inputs from the seed, then runs passes back to back for
``--seconds`` and checks every pass's outputs. With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs traced passes
for half the seconds and untraced ones for the other half, and reports
per-layer metrics derived from the spans plus the tracing overhead as
the ratio of the fastest traced to the fastest untraced pass. Every
per-layer metric is reported for every workload; one that the workload
never calls is 0.

``wall_s`` is the wall time of the fastest untraced pass, and
``frames_per_s`` the manifest frames of one pass divided by it. On a
shared host, slow spells of seconds to minutes stretch every pass by up
to 1.6 times (measured on a 2-vCPU Xeon VM); there, over ten seeds, the
fastest pass of a run spread about half as much as the median pass.
Every pass time is kept in the run record.

``setup_s`` is the median of fresh-process import times, one taken after
each untraced pass (and more at the end, up to ``SETUP_SAMPLES``), so
that import and passes sample the same stretches of machine load.
``peak_rss_mb`` is the high-water resident set size of this process
through its first pass, read before the checks (in-process workloads),
or the median over passes of the largest CLI child of the pass
(``walkthrough_cli``), read from each child with ``wait4`` in
``spawn.py``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An operation is one
pipeline stage of one pass (one CLI process in ``walkthrough_cli``);
it fails on an exception, a non-zero exit or a failed output check.
The run record (environment, inputs and output digests, pass times,
check facts) goes to ``perfbench/results/``, and the spans of a traced
run beside it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"
WORK = ROOT / "perfbench" / "work"

SETUP_SAMPLES = 15  # at least; one after each untraced pass, the rest at the end

END_TO_END = {
    "wall_s": "s",
    "frames_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# <module>.<function>.<suffix>; the suffix sets unit and derivation (tracing.py).
PER_LAYER = [
    *(f"simworld.retrace.{m}" for m in ("s", "cpu_s", "frames_per_s", "obs_per_frame", "rss_growth_mb")),
    *(f"simworld.{io}_observations.{m}" for io in ("write", "read") for m in ("s", "mb_per_s")),
    *(f"poseio.{io}_{kind}.{m}" for kind in ("dense", "manifest", "reconstruction")
      for io in ("write", "read") for m in ("s", "mb_per_s")),
    "poseio.write_report.s",
    "simworld.write_world.s",
    "simworld.read_world.s",
    *(f"align.evaluate.{m}" for m in ("s", "cpu_s", "points_per_s", "inlier_ratio")),
    "simworld.generate_world.s",
    "simworld.simulate_reconstruction.s",
    "trajectory.densify.s",
    "trajectory.densify.frames_per_s",
    *(f"cli.{step}.s" for step in ("densify", "capture", "simrecon", "align")),
]
TRACE_OVERHEAD = "bench.trace_overhead.ratio"  # fastest traced / fastest untraced pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_time(module: str) -> float:
    """Import time of ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def run_record() -> dict:
    """Where and on what the run happened."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )

    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    in_git = git("rev-parse", "--show-toplevel") == str(ROOT)
    status = git("status", "--porcelain") if in_git else None
    return {
        "python": sys.version,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_commit": git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": None if status is None else bool(status),
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_passes(workload, seconds: float, tracer: tracing.Tracer | None, first_id: int,
               setup: list[float] | None = None) -> dict:
    """Passes back to back until ``seconds`` have elapsed; check each one.

    With ``setup``, one fresh-process import time is appended to it after
    each pass, outside the pass's timing.
    """
    out = {"walls": [], "attempted": 0, "failed": 0, "failures": [], "counts": {}, "facts": None,
           "digests": None, "rss_mb": []}
    start = time.perf_counter()
    pass_id = first_id
    while not out["walls"] or time.perf_counter() - start < seconds:
        workload.clear_outputs()
        gc.collect()
        p = tracing.Pass(pass_id, tracer)
        state = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                state = workload.run_pass(p)
            else:
                with tracer.span("pass", pass_id):
                    state = workload.run_pass(p)
        except Exception as exc:  # the run goes on; the failure is counted and reported
            failed = {p.stage} | {s for s in workload.stages if s not in p.started}
            failures = {s: [f"{type(exc).__name__}: {exc}"] for s in failed}
        out["walls"].append(time.perf_counter() - t0)
        if workload.in_process:
            # Peak RSS through the first pass, read before the checks add their own.
            if not out["rss_mb"]:
                out["rss_mb"].append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        elif workload.child_rss_mb:
            out["rss_mb"].append(max(workload.child_rss_mb))
        if state is not None:
            try:
                failures, counts, facts = workload.check(state)
            except Exception as exc:
                failures = {p.stage: [f"output check raised {type(exc).__name__}: {exc}"]}
            else:
                out["counts"][pass_id] = counts
                out["facts"] = facts
            del state
            if out["digests"] is None:
                out["digests"] = {path.name: sha256(path) for path in workload.output_files()
                                  if path.exists()}
        out["attempted"] += len(workload.stages)
        out["failed"] += len(failures)
        out["failures"] += [f"pass {pass_id} {s}: {m}" for s, ms in failures.items() for m in ms]
        pass_id += 1
        if setup is not None:
            setup.append(setup_time(workload.setup_module))
    return out


def benchmark(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate inputs, measure and check; returns (result line, run record)."""
    try:
        return _benchmark(workload, seconds, trace)
    finally:
        workload.close()


def _benchmark(workload, seconds: float, trace: bool) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    workload.make_inputs()
    input_s = time.perf_counter() - t0
    inputs = {path.name: sha256(path) for path in workload.input_files()}
    setup_time(workload.setup_module)  # warm-up: file cache and bytecode, not counted
    setup: list[float] = []

    # Traced passes run first, so that the first one sees the memory a
    # fresh process must grow; untraced passes follow for the overhead.
    traced = tracer = None
    if trace:
        tracer = tracing.Tracer()
        traced = run_passes(workload, seconds / 2, tracer, 0)
    plain = run_passes(workload, seconds / 2 if trace else seconds, None,
                       len(traced["walls"]) if traced else 0, setup)
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(workload.setup_module))

    frames = next(iter(plain["counts"].values()), {}).get("frames", 0)
    wall = min(plain["walls"])
    end_to_end = {
        "wall_s": wall,
        "frames_per_s": frames / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median((traced or plain)["rss_mb"]),
    }
    runs = [plain] if traced is None else [traced, plain]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)

    if traced is None:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        layers = tracing.layer_metrics(PER_LAYER, tracer.spans, traced["counts"])
        metrics = {name: {"value": value, "unit": tracing.SUFFIX_UNITS[name.rsplit(".", 1)[1]]}
                   for name, value in layers.items()}
        metrics[TRACE_OVERHEAD] = {"value": min(traced["walls"]) / wall, "unit": "ratio"}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": workload.name,
        "seed": workload.seed,
        "seconds": seconds,
        "sizes": workload.size,
        "environment": run_record(),
        "input_generation_s": input_s,
        "input_sha256": inputs,
        "setup_s_samples": setup,
        "passes": {"untraced": len(plain["walls"]), "traced": len(traced["walls"]) if traced else 0},
        "pass_walls_s": {"untraced": plain["walls"], "traced": traced["walls"] if traced else []},
        "end_to_end": end_to_end,
        "fail_ratio": failed / attempted,
        "failures": [f for r in runs for f in r["failures"]],
        "counts": next(iter(plain["counts"].values()), None),
        "checked": plain["facts"],
        "output_sha256": plain["digests"],
        "metrics": metrics,
        "spans": tracer.with_self_times() if tracer else None,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "trajkit" / "__init__.py").is_file():
        print(f"error: no trajkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "capture").mkdir(parents=True)
    try:
        result, record = benchmark(WORKLOADS[args.workload](args.seed, work), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans) + "\n")

    passes = record["passes"]
    print(f"{args.workload} seed {args.seed}: {passes['untraced']} passes"
          + (f" + {passes['traced']} traced" if args.trace else ""))
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {record['end_to_end'][name]:.6g} {unit}")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']} operations)")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    if args.trace:
        for name, m in result["metrics"].items():
            print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  record: {stem.with_suffix('.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
