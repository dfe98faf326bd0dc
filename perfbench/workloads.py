"""The benchmark's workloads: seeded inputs, one pass each, and its checks.

Every workload is a closed loop: one pass after another in one process,
with no threads or processes beyond the CLI subprocesses, which run one
at a time. Inputs are generated from the benchmark seed and written to
files before timing starts; the program receives only those files (plus
the fixed arguments of the README walkthrough).

Sizes are scaled down from the ROADMAP shapes so that a run of a few
tens of seconds holds several passes; ``SIZES`` records the scale.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import checks
from trajkit import align, conditions, poseio, simworld, trajectory

# The README walkthrough's reconstruction gauge and corruption. The
# recovered scale must come out as the inverse gauge scale, 2.0.
GAUGE_SCALE, GAUGE_YAW, GAUGE_TRANSLATE = 0.5, 45.0, (10.0, -3.0, 2.0)
NOISE_SIGMA = 0.05
OUTLIER_RADIUS = 5.0
PROGRAM_SEED = 7  # the walkthrough's --seed for capture and simrecon

README_VERTICES = [(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
README_ORDERS = ["1 8", "2 7", "3", "4", "5", "6", "9"]

CLI_TIMEOUT_S = 120
CLI_LANDMARKS = 500  # trajkit capture's default --landmark-count

# Input sizes. "full" is what the benchmark runs; "tiny" serves the
# self-test. capture_large walks the ROADMAP 40-vertex plan in 4000
# frames, 1/73 of the ROADMAP's 292k at speed 1.6; the speed is set per
# seed so that every seed gives the same frame count. align_outliers
# holds half of the 41.5k correspondences first proposed.
SIZES = {
    "full": {
        "walkthrough_cli": {"jitter": 0.05, "outlier_fraction": 0.2},
        "capture_large": {
            "vertices": 40, "extent": 100.0, "frames": 4000, "landmarks": 500,
            "weather": "rain", "time_of_day": "night", "vehicle_density": 0.5,
            "outlier_fraction": 0.2,
        },
        "align_outliers": {
            "vertices": 40, "extent": 100.0, "correspondences": 20750, "outlier_fraction": 0.8,
        },
    },
    "tiny": {
        "walkthrough_cli": {"jitter": 0.05, "outlier_fraction": 0.2},
        "capture_large": {
            "vertices": 5, "extent": 10.0, "frames": 300, "landmarks": 100,
            "weather": "rain", "time_of_day": "night", "vehicle_density": 0.5,
            "outlier_fraction": 0.2,
        },
        "align_outliers": {
            "vertices": 5, "extent": 10.0, "correspondences": 400, "outlier_fraction": 0.8,
        },
    },
}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="\n")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def gauge() -> align.SimilarityTransform:
    return align.SimilarityTransform.from_z_rotation(GAUGE_SCALE, GAUGE_YAW, GAUGE_TRANSLATE)


def _random_plan(rng: np.random.Generator, vertices: int, extent: float) -> np.ndarray:
    """Seeded vertices in +-extent, visited once each, in order."""
    return rng.uniform(-extent, extent, size=(vertices, 2))


def _write_plan(directory: Path, vertices: np.ndarray, orders: list[str]) -> None:
    _write(directory / "vertex.txt", "".join(f"{x:.6f} {y:.6f}\n" for x, y in vertices))
    _write(directory / "vertex_order.txt", "".join(f"{o}\n" for o in orders))


class Workload:
    """A workload bound to a seed and a working directory.

    Subclasses provide ``make_inputs()``, ``input_files()``,
    ``output_files()``, ``run_pass(p)``, which runs one pass through the
    ``tracing.Pass`` ``p`` and returns the parsed objects the checks
    need, and ``check(state)``, which returns (failures by stage, exact
    counts, checked facts) for one finished pass. ``stages`` are the
    operations of one pass, in order. A workload that runs child
    processes leaves their peak RSS for the last pass in
    ``child_rss_mb``.
    """

    stages: tuple[str, ...] = ("densify", "capture", "simrecon", "align")
    in_process = True
    setup_module = "trajkit"

    def __init__(self, seed: int, directory: Path, size: str = "full"):
        self.seed = seed
        self.dir = directory
        self.size = SIZES[size][self.name]
        self.rng = np.random.default_rng([seed, 0x7EA1])
        self.child_rss_mb: list[float] = []

    def clear_outputs(self) -> None:
        for path in self.output_files():
            path.unlink(missing_ok=True)

    def close(self) -> None:
        """Stop any helper process the workload started."""


class _Pipeline(Workload):
    """A workload that runs the whole plan-to-score pipeline from a plan file pair.

    Outputs are laid out as in the README walkthrough.
    """

    landmarks = CLI_LANDMARKS  # landmarks in the world the capture makes

    def __init__(self, seed: int, directory: Path, size: str = "full"):
        super().__init__(seed, directory, size)
        d = directory
        self.files = {
            "dense": d / "trajectory_dense.txt",
            "manifest": d / "capture" / "6dpose_list.txt",
            "observations": d / "capture" / "observations.txt",
            "world": d / "capture" / "world.txt",
            "recon": d / "recon.txt",
            "report": d / "report.txt",
        }

    def input_files(self):
        return [self.dir / "vertex.txt", self.dir / "vertex_order.txt"]

    def output_files(self):
        return list(self.files.values())

    def check(self, state):
        """``state`` holds the parsed outputs a pass kept (if any) and
        ``observation_count``, the number of observations retrace made."""
        texts = {kind: _read(path) for kind, path in self.files.items()}
        names = checks.manifest_names(texts["manifest"])
        outliers = simworld.outlier_indices(len(names), self.size["outlier_fraction"], PROGRAM_SEED)
        aligned, facts = checks.alignment(
            texts["report"], texts["manifest"], {names[i] for i in outliers},
            GAUGE_SCALE, NOISE_SIGMA,
        )
        trips = {kind: checks.round_trip(kind, texts[kind], state.get(kind)) for kind in checks.ROUND_TRIPS}
        obs, world = trips["observations"][1], trips["world"][1]
        intr = simworld.default_intrinsics()
        captured = {} if obs is None or world is None else checks.capture(
            obs, world, len(names), self.landmarks, (intr.width, intr.height), state["observation_count"],
        )
        failures = checks.merge(
            *(failed for failed, _ in trips.values()),
            checks.poses_match(texts["dense"], texts["manifest"]),
            captured,
            aligned,
        )
        counts = {
            "frames": len(names),
            "observations": obs.total_observations() if obs is not None else 0,
            "correspondences": facts.get("total_count", 0),
            "inliers": facts.get("inlier_count", 0),
        }
        return failures, counts, facts


class WalkthroughCli(_Pipeline):
    """The README walkthrough as four ``python -m trajkit.cli`` processes."""

    name = "walkthrough_cli"
    in_process = False
    setup_module = "trajkit.cli"

    def __init__(self, seed: int, directory: Path, size: str = "full"):
        super().__init__(seed, directory, size)
        d = directory
        self.steps = [
            ("densify", ["densify", "--vertices", str(d / "vertex.txt"),
                         "--orders", str(d / "vertex_order.txt"), "--out", str(self.files["dense"])]),
            ("capture", ["capture", "--trajectory", str(self.files["dense"]),
                         "--out-dir", str(d / "capture"), "--seed", str(PROGRAM_SEED)]),
            ("simrecon", ["simrecon", "--manifest", str(self.files["manifest"]),
                          "--out", str(self.files["recon"]),
                          "--gauge-scale", str(GAUGE_SCALE), "--gauge-yaw", str(GAUGE_YAW),
                          "--gauge-translate", *map(str, GAUGE_TRANSLATE),
                          "--noise-sigma", str(NOISE_SIGMA),
                          "--outlier-fraction", str(self.size["outlier_fraction"]),
                          "--outlier-radius", str(OUTLIER_RADIUS), "--seed", str(PROGRAM_SEED)]),
            ("align", ["align", "--recon", str(self.files["recon"]),
                       "--manifest", str(self.files["manifest"]), "--out", str(self.files["report"])]),
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        self.env = {**os.environ, "PYTHONPATH": str(src)}
        self.spawner = None

    def make_inputs(self):
        # The README plan, each vertex moved by a seeded jitter.
        jitter = self.rng.uniform(-self.size["jitter"], self.size["jitter"], (len(README_VERTICES), 2))
        _write_plan(self.dir, np.array(README_VERTICES, dtype=float) + jitter, README_ORDERS)

    def _cli(self, argv: list[str]) -> str:
        """Run one subcommand through ``spawn.py``; return its output and record its peak RSS."""
        if self.spawner is None:
            self.spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawn.py"))],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        request = {"argv": [sys.executable, "-m", "trajkit.cli", *argv], "env": self.env,
                   "timeout": CLI_TIMEOUT_S}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn.py helper exited")
        reply = json.loads(reply)
        self.child_rss_mb.append(reply["maxrss_kb"] / 1024.0)
        if reply["returncode"] != 0:
            raise RuntimeError(f"trajkit {argv[0]} exited {reply['returncode']}: {reply['output'].strip()}")
        return reply["output"]

    def close(self):
        if self.spawner is not None:
            self.spawner.stdin.close()
            self.spawner.wait()
            self.spawner.stdout.close()
            self.spawner = None

    def run_pass(self, p):
        self.child_rss_mb = []
        outputs = {stage: p.call(stage, f"cli.{stage}", self._cli, argv) for stage, argv in self.steps}
        # "captured N frames, M observations -> DIR"
        found = re.search(r"captured \d+ frames, (\d+) observations", outputs["capture"])
        return {"observation_count": int(found.group(1)) if found else None}


class CaptureLarge(_Pipeline):
    """The CLI pipeline's calls on a large plan, in one process."""

    name = "capture_large"

    def __init__(self, seed: int, directory: Path, size: str = "full"):
        super().__init__(seed, directory, size)
        s = self.size
        self.landmarks = s["landmarks"]
        self.cond = conditions.ConditionSet(
            weather=conditions.Weather(s["weather"]),
            time_of_day=conditions.TimeOfDay(s["time_of_day"]),
            vehicle_density=s["vehicle_density"],
        )
        self.intr = simworld.default_intrinsics()

    def make_inputs(self):
        s = self.size
        vertices = _random_plan(self.rng, s["vertices"], s["extent"])
        _write_plan(self.dir, vertices, [str(i + 1) for i in range(len(vertices))])
        # Walk the path at the speed that gives s["frames"] frames; the
        # world box is the footprint of any plan padded by 25 units, so
        # landmark density does not depend on the seed either.
        length = float(np.linalg.norm(np.diff(vertices, axis=0), axis=1).sum())
        fps = trajectory.DensifyParams().fps
        self.params = trajectory.DensifyParams(speed=length * fps / (s["frames"] - 0.5))
        pad = s["extent"] + 25.0
        self.box = simworld.Box((-pad, -pad, 0.0), (pad, pad, 15.0))

    def run_pass(self, p):
        f = self.files
        sparse = p.call("densify", "poseio.read_sparse", poseio.read_sparse,
                        _read(self.dir / "vertex.txt"), _read(self.dir / "vertex_order.txt"))
        dense = p.call("densify", "trajectory.densify", trajectory.densify, sparse, self.params)
        _write(f["dense"], p.call("densify", "poseio.write_dense", poseio.write_dense, dense))
        dense = p.call("densify", "poseio.read_dense", poseio.read_dense, _read(f["dense"]))

        world = p.call("capture", "simworld.generate_world", simworld.generate_world,
                       PROGRAM_SEED, self.size["landmarks"], self.box)
        manifest, obs = p.call("capture", "simworld.retrace", simworld.retrace,
                               dense, world, self.intr, self.cond, 1.0, PROGRAM_SEED)
        observation_count = obs.total_observations()
        _write(f["manifest"], p.call("capture", "poseio.write_manifest", poseio.write_manifest, manifest))
        _write(f["observations"], p.call("capture", "simworld.write_observations",
                                         simworld.write_observations, obs))
        _write(f["world"], p.call("capture", "simworld.write_world", simworld.write_world, world))
        del manifest, obs

        manifest = p.call("simrecon", "poseio.read_manifest", poseio.read_manifest, _read(f["manifest"]))
        recon = p.call("simrecon", "simworld.simulate_reconstruction", simworld.simulate_reconstruction,
                       manifest, gauge(), NOISE_SIGMA, self.size["outlier_fraction"],
                       OUTLIER_RADIUS, PROGRAM_SEED)
        _write(f["recon"], p.call("simrecon", "poseio.write_reconstruction",
                                  poseio.write_reconstruction, recon))
        recon = p.call("simrecon", "poseio.read_reconstruction", poseio.read_reconstruction,
                       _read(f["recon"]))

        report = p.call("align", "align.evaluate", align.evaluate, recon, manifest)
        _write(f["report"], p.call("align", "poseio.write_report", poseio.write_report, report))

        # A consumer of the capture reads the observations and the world back.
        obs = p.call("capture", "simworld.read_observations", simworld.read_observations,
                     _read(f["observations"]))
        world = p.call("capture", "simworld.read_world", simworld.read_world, _read(f["world"]))
        return {"dense": dense, "manifest": manifest, "observations": obs, "world": world, "recon": recon,
                "observation_count": observation_count}


class AlignOutliers(Workload):
    """The ``trajkit align`` call path on a reconstruction with 80% outliers."""

    name = "align_outliers"
    stages = ("align",)

    def __init__(self, seed: int, directory: Path, size: str = "full"):
        super().__init__(seed, directory, size)
        self.manifest_path = directory / "6dpose_list.txt"
        self.recon_path = directory / "recon.txt"
        self.report_path = directory / "report.txt"

    def input_files(self):
        return [self.manifest_path, self.recon_path]

    def output_files(self):
        return [self.report_path]

    def make_inputs(self):
        """A manifest along a seeded plan and its corrupted reconstruction.

        Written by the benchmark itself, in the documented text formats, so
        the inputs do not depend on the program under test.
        """
        s, rng = self.size, self.rng
        n = s["correspondences"]
        vertices = _random_plan(rng, s["vertices"], s["extent"])
        seg = np.diff(vertices, axis=0)
        cum = np.concatenate(([0.0], np.cumsum(np.linalg.norm(seg, axis=1))))
        arcs = np.linspace(0.0, cum[-1], n)
        k = np.minimum(np.searchsorted(cum, arcs, side="right") - 1, len(seg) - 1)
        xy = vertices[k] + ((arcs - cum[k]) / (cum[k + 1] - cum[k]))[:, None] * seg[k]
        truth = np.column_stack([xy, np.full(n, 0.75)])
        yaw = np.degrees(np.arctan2(seg[k, 1], seg[k, 0]))
        names = [f"frame_{i:06d}.png" for i in range(n)]
        header = (
            "# weather clear\n# time_of_day day\n"
            "# vehicle_density 0.000000\n# pedestrian_density 0.000000\n"
        )
        _write(self.manifest_path, header + "".join(
            f"{name} {x:.6f} {y:.6f} {z:.6f} 0.000000 0.000000 {rz:.6f}\n"
            for name, (x, y, z), rz in zip(names, truth, yaw)
        ))

        recon = gauge().apply(truth) + rng.normal(0.0, NOISE_SIGMA, (n, 3))
        outliers = rng.choice(n, size=int(s["outlier_fraction"] * n), replace=False)
        directions = rng.standard_normal((len(outliers), 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        recon[outliers] += directions * rng.uniform(OUTLIER_RADIUS, 2 * OUTLIER_RADIUS, len(outliers))[:, None]
        _write(self.recon_path, "".join(
            f"{name} {x:.6f} {y:.6f} {z:.6f}\n" for name, (x, y, z) in zip(names, recon)
        ))
        self.outlier_names = {names[i] for i in outliers}

    def run_pass(self, p):
        recon = p.call("align", "poseio.read_reconstruction", poseio.read_reconstruction,
                       _read(self.recon_path))
        manifest = p.call("align", "poseio.read_manifest", poseio.read_manifest, _read(self.manifest_path))
        report = p.call("align", "align.evaluate", align.evaluate, recon, manifest)
        _write(self.report_path, p.call("align", "poseio.write_report", poseio.write_report, report))
        return {"manifest": manifest, "recon": recon}

    def check(self, state):
        manifest_text = _read(self.manifest_path)
        aligned, facts = checks.alignment(
            _read(self.report_path), manifest_text, self.outlier_names, GAUGE_SCALE, NOISE_SIGMA
        )
        failures = checks.merge(
            checks.round_trip("manifest", manifest_text, state["manifest"])[0],
            checks.round_trip("recon", _read(self.recon_path), state["recon"])[0],
            aligned,
        )
        counts = {
            "frames": len(checks.manifest_names(manifest_text)),
            "observations": 0,
            "correspondences": facts.get("total_count", 0),
            "inliers": facts.get("inlier_count", 0),
        }
        # One operation per pass: every failure is the align call path's.
        return {"align": sum(failures.values(), [])} if failures else {}, counts, facts


WORKLOADS = {w.name: w for w in (WalkthroughCli, CaptureLarge, AlignOutliers)}
