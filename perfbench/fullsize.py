"""One-off check that the scaled workloads behave like the full-size ones.

    python3 perfbench/fullsize.py [--seed 1]

Not part of a benchmark run: it takes minutes and over 1 GB of memory.
It runs one traced pass of ``capture_large`` at the ROADMAP's full
large-plan size (291,767 frames) and of ``align_outliers`` on that many
correspondences, then the same at the benchmark's scaled sizes, and
prints the per-frame, per-observation and per-correspondence costs of
retrace, observation I/O and evaluate, plus each layer's share of the
pass. Scaling is sound when the costs per item and the ranking of the
layers agree.

It also runs ``evaluate`` at 90% outliers on 16,622 correspondences
and counts the similarity fits RANSAC made, to show whether the loop
stopped by the confidence rule or spent its iteration budget.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import run

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
from trajkit import align  # noqa: E402
from workloads import AlignOutliers, CaptureLarge  # noqa: E402

FULL_FRAMES = 291_767
LAYERS = ("simworld.retrace", "simworld.write_observations", "simworld.read_observations", "align.evaluate")


def traced_pass(workload) -> dict:
    """One traced, checked pass: per-item costs and shares of the pass."""
    workload.make_inputs()
    tracer = tracing.Tracer()
    with tracer.span("pass", 0):
        state = workload.run_pass(tracing.Pass(0, tracer))
    failures, counts, _ = workload.check(state)
    del state
    pass_s = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    layers = {}
    for layer in LAYERS:
        s = sum(sp["end"] - sp["start"] for sp in tracer.spans if sp["name"] == layer)
        if s:
            layers[layer] = {"s": s, "share": s / pass_s}
    return {"pass_s": pass_s, "counts": counts, "failures": failures, "layers": layers}


def per_item(result: dict) -> dict:
    c, layers = result["counts"], result["layers"]
    items = {
        "simworld.retrace": ("frame", c["frames"]),
        "simworld.write_observations": ("observation", c["observations"]),
        "simworld.read_observations": ("observation", c["observations"]),
        "align.evaluate": ("correspondence", c["correspondences"]),
    }
    return {
        layer: {"us_per_" + items[layer][0]: 1e6 * v["s"] / items[layer][1], "share": v["share"]}
        for layer, v in layers.items()
    }


def ransac_budget(seed: int, directory) -> dict:
    """evaluate at 90% outliers: fits made, consensus found, true inliers."""
    w = AlignOutliers(seed, directory)
    w.size = {**w.size, "correspondences": 16_622, "outlier_fraction": 0.9}
    w.make_inputs()
    fits = 0
    umeyama = align.umeyama

    def counting(*args, **kwargs):
        nonlocal fits
        fits += 1
        return umeyama(*args, **kwargs)

    align.umeyama = counting
    try:
        state = w.run_pass(tracing.Pass(0, None))
    finally:
        align.umeyama = umeyama
    failures, counts, facts = w.check(state)
    return {
        "correspondences": counts["correspondences"],
        "true_inliers": facts.get("true_inliers"),
        "inliers_reported": counts["inliers"],
        "similarity_fits": fits,  # one per iteration plus the final refit
        "max_iterations": align.RansacParams().max_iterations,
        "recovered_scale": facts.get("scale"),
        "failures": failures,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = run.WORK / "fullsize"
    shutil.rmtree(work, ignore_errors=True)
    (work / "capture").mkdir(parents=True)
    report = {}
    try:
        for label, frames, points in (("scaled", None, None), ("full", FULL_FRAMES, FULL_FRAMES)):
            capture = CaptureLarge(args.seed, work)
            aligner = AlignOutliers(args.seed, work)
            if frames:
                capture.size = {**capture.size, "frames": frames}
                aligner.size = {**aligner.size, "correspondences": points}
            t0 = time.perf_counter()
            report[label] = {name: traced_pass(w) for name, w in
                             (("capture_large", capture), ("align_outliers", aligner))}
            for name, result in report[label].items():
                result["per_item"] = per_item(result)
                print(f"{label} {name}: {result['counts']} pass {result['pass_s']:.2f} s "
                      f"failures {result['failures']}")
                for layer, v in result["per_item"].items():
                    print(f"    {layer:<30} " + "  ".join(f"{k} {x:.4g}" for k, x in v.items()))
            print(f"{label} done in {time.perf_counter() - t0:.0f} s", flush=True)
        report["ransac_90pct_outliers"] = ransac_budget(args.seed, work)
        print("90% outliers:", report["ransac_90pct_outliers"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    (run.RESULTS / "fullsize.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
