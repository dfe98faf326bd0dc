"""Spans recorded from the benchmark's own code around each call into trajkit.

A span is one public call (or one CLI process) inside one workload pass:
its name, start and end, CPU time, the parent span, the pass id, and the
bytes of text the call read or wrote. Spans are kept in memory and
written out as JSON when the run ends. Per-layer metrics and each span's
self time are derived from them.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 1e6


def current_rss_mb() -> float:
    """Resident set size of this process now (not the peak)."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MB


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, pass_id: int):
        record = {
            "name": name,
            "pass": pass_id,
            "parent": self._open[-1] if self._open else None,
            "bytes": 0,
        }
        index = len(self.spans)
        self.spans.append(record)
        self._open.append(index)
        rss0 = current_rss_mb()
        cpu0 = time.process_time()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            record["cpu_s"] = time.process_time() - cpu0
            record["rss_growth_mb"] = current_rss_mb() - rss0
            self._open.pop()

    def with_self_times(self) -> list[dict]:
        """Spans with ``self_s``: duration minus the time covered by children."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [
            {**span, "self_s": span["end"] - span["start"] - child_time[i]}
            for i, span in enumerate(self.spans)
        ]


class Pass:
    """Runs the calls of one workload pass, in order, tracing each when asked.

    ``stage`` is the pipeline stage (densify, capture, simrecon, align)
    of the call running now; when a call raises, that stage and every
    stage not yet started count as failed operations.
    """

    def __init__(self, pass_id: int, tracer: Tracer | None):
        self.pass_id = pass_id
        self.tracer = tracer
        self.stage: str | None = None
        self.started: list[str] = []

    def call(self, stage: str, name: str, fn, *args):
        self.stage = stage
        if stage not in self.started:
            self.started.append(stage)
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(name, self.pass_id) as record:
            result = fn(*args)
            texts = [result] if isinstance(result, str) else [a for a in args if isinstance(a, str)]
            record["bytes"] = sum(len(t) for t in texts)  # ASCII formats: chars == bytes
        return result


# --------------------------------------------------------------------------
# Per-layer metrics
# --------------------------------------------------------------------------

# Unit of each metric suffix; the suffix also selects how it is computed.
SUFFIX_UNITS = {
    "s": "s",
    "cpu_s": "s",
    "mb_per_s": "MB/s",
    "frames_per_s": "1/s",
    "points_per_s": "1/s",
    "obs_per_frame": "obs/frame",
    "rss_growth_mb": "MB",
    "inlier_ratio": "ratio",
}


def _per_pass(spans: list[dict], call: str) -> dict[int, dict]:
    """Summed duration, CPU, bytes and RSS growth of ``call`` in each pass."""
    totals: dict[int, dict] = {}
    for span in spans:
        if span["name"] != call:
            continue
        t = totals.setdefault(span["pass"], {"s": 0.0, "cpu_s": 0.0, "bytes": 0, "rss": 0.0})
        t["s"] += span["end"] - span["start"]
        t["cpu_s"] += span["cpu_s"]
        t["bytes"] += span["bytes"]
        t["rss"] += span["rss_growth_mb"]
    return totals


def _value(suffix: str, t: dict, counts: dict) -> float:
    if suffix in ("s", "cpu_s"):
        return t[suffix]
    if suffix == "mb_per_s":
        return t["bytes"] / 1e6 / t["s"]
    if suffix == "frames_per_s":
        return counts["frames"] / t["s"]
    if suffix == "points_per_s":
        return counts["correspondences"] / t["s"]
    if suffix == "obs_per_frame":
        return counts["observations"] / counts["frames"]
    if suffix == "rss_growth_mb":
        return t["rss"]
    if suffix == "inlier_ratio":
        return counts["inliers"] / counts["correspondences"]
    raise KeyError(suffix)


def layer_metrics(names: list[str], spans: list[dict], counts: dict[int, dict]) -> dict:
    """Median over checked traced passes of each ``<module>.<function>.<suffix>`` metric.

    ``counts`` maps pass id to the exact frame, observation,
    correspondence and inlier counts of that pass. A layer the workload
    never calls reports 0.
    """
    metrics = {}
    for name in names:
        module, function, suffix = name.split(".", 2)
        per_pass = _per_pass(spans, f"{module}.{function}")
        values = [_value(suffix, t, counts[p]) for p, t in per_pass.items() if p in counts]
        if not values:
            metrics[name] = 0.0
        elif suffix == "rss_growth_mb":
            # Later passes reuse memory the allocator kept from the first, so
            # growth shows on the first traced pass of the process only.
            metrics[name] = max(values)
        else:
            metrics[name] = statistics.median(values)
    return metrics
