"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks three things and exits non-zero if any fails:

1. the metric names and units a run emits are exactly those in
   ``BENCHMARK.json`` (end-to-end untraced, per-layer traced);
2. every output check fails when given a deliberately corrupted output;
3. two seeds give different inputs, and one seed run twice gives
   identical inputs.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import tracing  # noqa: E402
from trajkit import simworld  # noqa: E402
from workloads import PROGRAM_SEED, WORKLOADS, gauge  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok   " if condition else "FAIL ") + what)
    if not condition:
        failures.append(what)


def make(name: str, seed: int, directory: Path):
    (directory / "capture").mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](seed, directory, size="tiny")


def metric_names(tmp: Path) -> None:
    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    expect({w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS),
           "workloads in BENCHMARK.json are the workloads run.py knows")
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run.benchmark(make(name, 1, tmp / f"{name}-{trace}"), 0.0, bool(trace))
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(emitted == declared[trace], f"{name} --trace {trace} emits the declared metric names and units")
            expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                   f"{name} --trace {trace} passes its own output checks")
            values = [v["value"] for v in result["metrics"].values()]
            expect(all(isinstance(v, float) for v in values), f"{name} --trace {trace} values are floats")


def corrupted_outputs(tmp: Path) -> None:
    w = make("capture_large", 1, tmp / "corrupt")
    w.make_inputs()
    state = w.run_pass(tracing.Pass(0, None))
    failures0, _, _ = w.check(state)
    expect(failures0 == {}, "an untouched capture_large pass passes every check")
    originals = {kind: path.read_text() for kind, path in w.files.items()}

    def caught(kind: str, corrupt, message: str) -> bool:  # message: a regular expression
        """Check the pass as if the program had written ``corrupt(original)``
        and read it back, so the checks see the corrupted file's contents."""
        w.files[kind].write_text(corrupt(originals[kind]))
        try:
            found, _, _ = w.check({k: v for k, v in state.items() if k != kind})
        finally:
            w.files[kind].write_text(originals[kind])
        return any(re.search(message, m) for ms in found.values() for m in ms)

    def first_half_lines(text: str) -> str:
        lines = text.splitlines(keepends=True)
        return "".join(lines[: len(lines) // 2])

    def edit_first_row(text: str, column: int, value: str) -> str:
        lines = text.splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        fields = lines[i].split()
        fields[column] = value
        lines[i] = " ".join(fields) + "\n"
        return "".join(lines)

    expect(caught("observations", lambda t: t[: len(t) // 2], "observations: (read back failed|writing back)"),
           "an observation file cut mid-line fails the round trip")
    expect(caught("observations", first_half_lines, "but retrace made"),
           "an observation file cut at a line boundary fails the observation count")
    expect(caught("world", first_half_lines, "world: "),
           "a world file cut at a line boundary fails the landmark count")
    expect(caught("observations", lambda t: edit_first_row(t, 1, str(w.landmarks)), "landmark id outside"),
           "an observation of a landmark that does not exist fails")
    expect(caught("observations", lambda t: edit_first_row(t, 2, "-1.000000"), "pixel outside"),
           "an observation outside the image fails")
    for kind in checks.ROUND_TRIPS:
        # Readers accept runs of spaces; writers emit one. The bytes change, the values do not.
        expect(caught(kind, lambda t: t.replace(" ", "  ", 1), f"{kind}: writing back"),
               f"{kind}: a file the writer would not produce fails the round trip")

    def move_pose(text: str) -> str:
        x = next(row[1] for row in checks.data_rows(text))
        return edit_first_row(text, 1, f"{float(x) + 1.0:.6f}")

    expect(caught("manifest", move_pose, "manifest poses differ"),
           "a manifest pose that differs from the dense pose fails")
    expect(caught("report", lambda t: re.sub(r"^scale .*$", "scale 2.5", t, count=1, flags=re.M),
                  "recovered scale"),
           "a wrong recovered scale fails")

    def flip(text: str, admit: bool) -> str:
        names = checks.manifest_names(originals["manifest"])
        fraction = w.size["outlier_fraction"]
        outliers = {names[i] for i in simworld.outlier_indices(len(names), fraction, PROGRAM_SEED)}
        out = []
        done = False
        for line in text.splitlines(keepends=True):
            f = line.split()
            if not done and f[0] == "residual" and (f[1] in outliers) == admit:
                line = f"residual {f[1]} {f[2]} {1 if admit else 0}\n"
                done = True
            out.append(line)
        return "".join(out)

    expect(caught("report", lambda t: flip(t, True), "admitted as inliers"),
           "a report admitting one outlier fails")
    expect(caught("report", lambda t: flip(t, False), "true inliers kept"),
           "a report dropping one true inlier fails")

    # Through the program: move one outlier of the reconstruction onto its
    # true position, inside the threshold; alignment must then admit it.
    a = make("align_outliers", 1, tmp / "moved")
    a.make_inputs()
    name = sorted(a.outlier_names)[0]
    truth = {f[0]: [float(v) for v in f[1:4]] for f in checks.data_rows(a.manifest_path.read_text())}
    x, y, z = gauge().apply(truth[name])
    lines = [f"{name} {x:.6f} {y:.6f} {z:.6f}\n" if line.split()[0] == name else line
             for line in a.recon_path.read_text().splitlines(keepends=True)]
    a.recon_path.write_text("".join(lines))
    found, _, _ = a.check(a.run_pass(tracing.Pass(0, None)))
    expect(any("admitted as inliers" in m for m in found.get("align", [])),
           "a reconstruction with one outlier moved inside the threshold fails")


def seeded_inputs(tmp: Path) -> None:
    for name in WORKLOADS:
        digests = []
        for i, seed in enumerate((1, 2, 1)):
            w = make(name, seed, tmp / f"{name}-seed-{i}")
            w.make_inputs()
            digests.append([run.sha256(p) for p in w.input_files()])
        expect(digests[0] == digests[2], f"{name}: one seed twice gives identical inputs")
        expect(digests[0] != digests[1], f"{name}: two seeds give different inputs")


def main() -> int:
    run.WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        seeded_inputs(Path(tmp))
        corrupted_outputs(Path(tmp))
        metric_names(Path(tmp))
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
