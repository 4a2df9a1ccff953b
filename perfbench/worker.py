"""One benchmark process: import dpspesa, warm up, measure, print JSON.

perfbench/run.py starts this script in a fresh interpreter for every
measurement, with BLAS pinned to one thread and ``src`` on PYTHONPATH.
The last stdout line is a JSON object for run.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy
import scipy

import dpspesa
import hostspeed
import workloads
from spans import SpanRecorder, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_REPORTED_FAILURES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, p: float) -> float:
    """Nearest-rank ``p``-th percentile: always one of the measured values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Phase:
    """Outcome of one measured stretch of calls.

    ``ref_s`` holds the reference kernel's time between calls, one sample
    before the first call and one after each call; a traced phase has none.
    """

    def __init__(self):
        self.times: list[float] = []
        self.units: list[int] = []
        self.ref_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0

    def totals(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "units": sum(self.units), "busy_s": sum(self.times),
                "wall_s": self.wall_s}

    def summary(self) -> dict:
        """Throughput and call latency over the whole run, at nominal host speed.

        Each call's time is divided by the host's slowdown around it (see
        `hostspeed`), so every call counts and a stretch of the run on a
        slow host does not.  ``work_per_s`` is all units over all scaled
        call time; the latencies are percentiles of the scaled call times.
        The same figures from the raw times are kept as ``raw_*``.
        """
        slow = hostspeed.slowdowns(self.ref_s, len(self.times))
        scaled = [t / s for t, s in zip(self.times, slow)]
        units = sum(self.units)
        return {
            **self.totals(),
            "work_per_s": units / sum(scaled),
            "call_p50_ms": 1000 * percentile(scaled, 50),
            "call_p95_ms": 1000 * percentile(scaled, 95),
            "raw_work_per_s": units / sum(self.times),
            "raw_call_p50_ms": 1000 * percentile(self.times, 50),
            "raw_call_p95_ms": 1000 * percentile(self.times, 95),
            "slowdown_p5": percentile(slow, 5),
            "slowdown_p50": percentile(slow, 50),
            "slowdown_p95": percentile(slow, 95),
        }


def step(workload, index: int, phase: Phase, golden=None) -> None:
    """Make call ``index`` of the workload's stream and check its output.

    Only the call into the package is timed.  ``golden`` is the list of
    expected digests for this seed, if any.
    """
    inputs = workload.prepare(index)
    t0 = time.perf_counter()
    try:
        result = workload.call(inputs)
    except Exception as exc:  # a call that raises is a failed call
        result = exc
    phase.times.append(time.perf_counter() - t0)
    try:
        if isinstance(result, Exception):
            raise result
        units, digest = workload.check(inputs, result)
        if golden is not None and digest != golden[index % len(golden)]:
            raise workloads.OutputMismatch("digest differs from golden")
    except Exception:  # every failure counts; the loop keeps measuring
        units = 0
        phase.failed += 1
        if phase.failed <= MAX_REPORTED_FAILURES:
            print(f"{workload.name} call {index} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
    phase.units.append(units)
    phase.attempted += 1


def measure(workload, *, seconds=math.inf, calls=math.inf, golden=None) -> Phase:
    """Closed loop over the stream from call 0 for ``seconds`` or ``calls``.

    The reference kernel runs before the first call and after each call.
    At least one call is made, so a run always has figures.
    """
    phase = Phase()
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    phase.ref_s.append(hostspeed.kernel_s(workload.ref_reps))
    while index < calls and (index == 0 or time.perf_counter() < deadline):
        step(workload, index, phase, golden)
        phase.ref_s.append(hostspeed.kernel_s(workload.ref_reps))
        index += 1
    phase.wall_s = time.perf_counter() - start
    return phase


def load_golden(name: str, seed: int):
    golden = json.loads((HERE / "golden.json").read_text())
    return golden["digests"].get(name) if seed == golden["seed"] else None


def versions() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "dpspesa": dpspesa.__version__}


def traced_run(workload, args, golden) -> dict:
    """Per-layer metrics over a fixed stretch of the stream.

    Every call is made twice in a row, untraced and then traced, so the
    tracing overhead is measured under the same host conditions, and the
    traced counts repeat exactly for a given seed.
    """
    recorder = SpanRecorder()
    plain, marked = Phase(), Phase()
    written = Counter()
    for index in range(workload.trace_calls):
        step(workload, index, plain, golden)
        before = workload.counters.copy()
        recorder.request = index
        with instrument(recorder):
            step(workload, index, marked, golden)
        written.update(workload.counters - before)
    spans_dir = args.out / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{workload.name}-seed{args.seed}.csv"
    recorder.write_csv(spans_file)

    plain, marked = plain.totals(), marked.totals()
    layers = layer_metrics(recorder.spans, recorder.counts, {
        "cli.bytes_written": written["bytes_written"],
        "cli.files_written": written["files_written"],
        "trace.overhead": marked["busy_s"] / plain["busy_s"],
    })
    return {"untraced": plain, "traced": marked, "layers": layers,
            "spans": len(recorder.spans), "spans_file": str(spans_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    source = Path(dpspesa.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"perfbench: dpspesa imported from {source}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.out)
    workload.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    workload.counters.clear()
    result = {"setup_s": setup_s}

    if not args.setup_only:
        golden = load_golden(workload.name, args.seed)
        result["golden_checked"] = golden is not None
        if args.trace:
            result.update(traced_run(workload, args, golden))
        else:
            result["untraced"] = measure(workload, seconds=args.seconds,
                                         golden=golden).summary()
        result["counters"] = dict(workload.counters)
        result["sizes"] = workload.sizes()
        result["units_name"] = workload.units_name
        result["versions"] = versions()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
