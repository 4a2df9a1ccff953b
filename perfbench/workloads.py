"""The benchmark's workloads: seeded input streams, calls into dpspesa, checks.

Each workload is a closed loop with one client: the next call starts when
the previous one returns.  The inputs of call ``i`` are a pure function of
the seed and ``i``, and the mc-sweep and cli-scenarios streams repeat with a
fixed period so every call on the default seed can be compared with a
committed golden digest (``golden.json``).

- ``mc-sweep``: `run_monte_carlo` in the criterion-3 configuration, a
  block of trials per call.  Nearly all time is the quantizer; the steering
  matrix is cached after warm-up.
- ``cli-scenarios``: `cli.main` over pattern/single/clutter with generated
  scenarios.  Argument parsing, CSV formatting and uncached steering builds
  dominate; quantization is one small call per run.
- ``oracle-check``: `cli.main oracle-check` with bits cycling 1..4.  The
  quantizer runs its full-grid branch and the exhaustive oracle.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from dpspesa import cli, experiments
from dpspesa.array_model import ArrayConfig
from dpspesa.experiments import ScenarioSpec

MC_BITS = tuple(range(2, 13))
MC_NORMS = (1.0, 1.5, 2.0)
MC_HEADER = "bits,norm_target,mean_rms_dps_db,mean_rms_pesa_db,trials"

CLI_KINDS = ("pattern:steering", "pattern:mvdr", "pattern:dps",
             "pattern:pesa-quantized", "single", "clutter")
# (antennas, grid step in degrees); a batch of CLI_KINDS shares one geometry.
CLI_GEOMETRIES = ((16, 0.1), (8, 0.1), (24, 0.1), (16, 0.2))
TRACE_HEADER = "angle_deg,power_linear,power_db"
FLOOR_DB = -80.0


class OutputMismatch(Exception):
    """A call's output failed the workload's check."""


def _fmt(x) -> str:
    return format(float(x), ".9g")


def run_cli(argv) -> tuple[int, str]:
    """Exit code and captured stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, out.getvalue()


class McSweep:
    """Monte-Carlo sweep, criterion-3 configuration, a block of trials per call.

    A period of calls is 200 trials, the size of the criterion-3 sweep.
    """

    name = "mc-sweep"
    trials = 10
    # Calls are long: more kernel runs between two calls sample more of
    # the host's speed while a call runs.
    ref_reps = 15
    period = 20
    trace_calls = 10
    units_name = "(trial, bits, norm) evaluations"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.counters = Counter()

    def prepare(self, index: int) -> ScenarioSpec:
        # The target draw is per trial, so the one angle is a placeholder.
        return ScenarioSpec(
            config=ArrayConfig(16, 0.5), target_angles_deg=(0.0,), gamma=0.1,
            candidates_l=3, seed=self.seed * self.period + index % self.period,
        )

    def call(self, spec):
        return experiments.run_monte_carlo(spec, MC_BITS, MC_NORMS,
                                           self.trials, workers=1)

    def check(self, spec, result) -> tuple[int, str]:
        rows = result.rows
        want = [(b, n) for b in MC_BITS for n in MC_NORMS]
        if [(r.bits, r.norm_target) for r in rows] != want:
            raise OutputMismatch("sweep rows do not cover bits x norms in order")
        for r in rows:
            if r.trials != self.trials:
                raise OutputMismatch(f"row reports {r.trials} trials")
            for v in (r.mean_rms_dps_db, r.mean_rms_pesa_db):
                if not (math.isfinite(v) and v >= 0):
                    raise OutputMismatch(f"bad RMS value {v!r}")
        lines = [MC_HEADER] + [
            f"{r.bits},{_fmt(r.norm_target)},{_fmt(r.mean_rms_dps_db)},"
            f"{_fmt(r.mean_rms_pesa_db)},{r.trials}"
            for r in rows
        ]
        text = "".join(line + "\n" for line in lines)
        return len(rows) * self.trials, hashlib.sha256(text.encode()).hexdigest()

    def warm_up(self) -> None:
        # One trial fills the steering cache and scipy's lazy imports.
        experiments.run_monte_carlo(self.prepare(self.period), MC_BITS,
                                    MC_NORMS, 1, workers=1)

    def sizes(self) -> dict:
        return {"antennas": 16, "bits": list(MC_BITS), "norms": list(MC_NORMS),
                "candidates": 3, "gamma": 0.1, "trials_per_call": self.trials,
                "grid_points": 1801, "period": self.period}


class CliCall(NamedTuple):
    kind: str
    antennas: int
    grid_step: float
    argv: list


def _draw_angles(rng, count: int) -> list[str]:
    """Distinct half-degree target angles in [-85, 85], 3 degrees apart."""
    while True:
        angles = np.sort(rng.integers(-170, 171, size=count)) / 2
        if count == 1 or np.diff(angles).min() >= 3:
            return [f"{a:g}" for a in angles]


def _check_trace_csv(data: bytes, points: int) -> None:
    lines = data.decode().split("\n")
    if lines[0] != TRACE_HEADER or lines[-1] != "" or len(lines) != points + 2:
        raise OutputMismatch(f"trace CSV has {len(lines) - 2} rows, want {points}")
    body = lines[1:-1]
    if sum(line.count(",") for line in body) != 2 * points:
        raise OutputMismatch("trace CSV rows must have three columns")
    values = np.array(",".join(body).split(","), dtype=float).reshape(points, 3)
    angle, linear, db = values.T
    if not np.all(np.isfinite(values)):
        raise OutputMismatch("trace CSV holds a non-finite value")
    if not np.allclose(angle, np.linspace(-90, 90, points), rtol=0, atol=1e-6):
        raise OutputMismatch("trace CSV angles are not the requested grid")
    if linear.min() < 0 or db.max() != 0 or db.min() < FLOOR_DB:
        raise OutputMismatch("trace CSV powers out of range")


def _check_summary(data: bytes) -> None:
    items = dict(line.split("=", 1) for line in data.decode().splitlines())
    for key in ("rms_dps_db", "rms_pesa_db"):
        value = float(items.get(key, "nan"))
        if not (math.isfinite(value) and value >= 0):
            raise OutputMismatch(f"summary {key}={items.get(key)!r}")


class CliScenarios:
    """In-process CLI calls; each writes its CSVs into a scratch directory.

    Calls come in batches holding each of `CLI_KINDS` once, in seeded order,
    on one of `CLI_GEOMETRIES`, so every run has the same mix whatever the
    seed.
    """

    name = "cli-scenarios"
    ref_reps = 1
    period = 240
    trace_calls = 240
    units_name = "CLI calls"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.out = Path(workdir) / "cli-out"
        self.out.mkdir(parents=True, exist_ok=True)
        self.counters = Counter()
        self._seen = set()

    def prepare(self, index: int) -> CliCall:
        batch, pos = divmod(index % self.period, len(CLI_KINDS))
        order = np.random.default_rng([self.seed, batch]).permutation(len(CLI_KINDS))
        kind = CLI_KINDS[order[pos]]
        antennas, step = CLI_GEOMETRIES[batch % len(CLI_GEOMETRIES)]
        rng = np.random.default_rng([self.seed, batch, pos])

        command, _, beamformer = kind.partition(":")
        many = kind in ("pattern:mvdr", "pattern:dps", "clutter")
        targets = _draw_angles(rng, int(rng.integers(2, 5)) if many else 1)
        argv = [command, f"--antennas={antennas}", f"--grid-step={step:g}",
                f"--bits={rng.integers(3, 7)}", "--targets=" + ",".join(targets)]
        if command != "single":
            argv.append(f"--desired={targets[rng.integers(len(targets))]}")
        if many:
            argv.append(f"--gamma={10 ** rng.uniform(-2, 0):.4g}")
        if beamformer:
            argv.append(f"--beamformer={beamformer}")
        argv.append(f"--out={self.out}")

        geometry = (antennas, step)
        self.counters["calls"] += 1
        self.counters["geometry_repeats"] += geometry in self._seen
        self._seen.add(geometry)
        return CliCall(kind, antennas, step, argv)

    def call(self, call: CliCall):
        return run_cli(call.argv)[0]

    def check(self, call: CliCall, code) -> tuple[int, str]:
        names = sorted(os.listdir(self.out))
        try:
            if code != 0:
                raise OutputMismatch(f"exit code {code} for {call.argv}")
            want = (["pattern.csv"] if call.kind.startswith("pattern") else
                    ["dps.csv", "pesa.csv", "reference.csv", "summary.txt"])
            if names != want:
                raise OutputMismatch(f"wrote {names}, want {want}")
            points = round(180 / call.grid_step) + 1
            digest = hashlib.sha256()
            for name in names:
                data = (self.out / name).read_bytes()
                if name.endswith(".csv"):
                    _check_trace_csv(data, points)
                else:
                    _check_summary(data)
                digest.update(name.encode() + b"\0" + data + b"\0")
                self.counters["files_written"] += 1
                self.counters["bytes_written"] += len(data)
        finally:
            for name in names:
                os.remove(self.out / name)
        return 1, digest.hexdigest()

    def warm_up(self) -> None:
        call = CliCall("clutter", 16, 0.1, [
            "clutter", "--targets=-47,30,49", "--desired=49", "--gamma=0.1",
            f"--out={self.out}"])
        self.check(call, self.call(call))

    def sizes(self) -> dict:
        return {"kinds": list(CLI_KINDS),
                "geometries": [list(g) for g in CLI_GEOMETRIES],
                "period": self.period}


class OracleCheck:
    """`oracle-check` calls: full-grid candidate search against brute force."""

    name = "oracle-check"
    bits = (1, 2, 3, 4)  # the CLI's limit
    ref_reps = 1
    weights = 64
    trace_calls = 200
    units_name = "weights checked"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.counters = Counter()

    def prepare(self, index: int) -> list:
        return ["oracle-check", f"--bits={self.bits[index % len(self.bits)]}",
                f"--trials={self.weights}", f"--seed={self.seed * 1_000_000 + index}"]

    def call(self, argv):
        return run_cli(argv)

    def check(self, argv, result) -> tuple[int, None]:
        code, out = result
        if code != 0 or f"oracle check passed: {self.weights} weights" not in out:
            raise OutputMismatch(f"{argv} exited {code}: {out[-300:]!r}")
        return self.weights, None

    def warm_up(self) -> None:
        self.check(None, self.call(["oracle-check", "--bits=4",
                                    f"--trials={self.weights}", "--seed=0"]))

    def sizes(self) -> dict:
        return {"bits": list(self.bits), "weights_per_call": self.weights}


WORKLOADS = {w.name: w for w in (McSweep, CliScenarios, OracleCheck)}


def record_golden(seed: int, workdir: Path) -> dict:
    """Output digests of one period of each periodic workload on ``seed``."""
    digests = {}
    for cls in WORKLOADS.values():
        wl = cls(seed, workdir)
        if hasattr(wl, "period"):
            digests[wl.name] = [wl.check(x, wl.call(x))[1]
                                for x in map(wl.prepare, range(wl.period))]
    return {"seed": seed, "digests": digests}
