"""Benchmark of the dpspesa pipeline: solve, quantize, trace, score, write.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``.  Every measurement runs in a fresh Python process with
BLAS pinned to one thread.  With ``--trace 0`` the end-to-end metrics are
measured with tracing off; with ``--trace 1`` a separate run times the
calls into each module's public functions and reports per-layer metrics.
Times are scaled to a nominal host speed: call times by a reference
kernel run between calls (see ``hostspeed.py``), set-up times by a
reference interpreter start-up run before each set-up.  The raw figures
are in the notes and the result file.
The summary goes to stdout, a result file with the run's provenance goes
to ``perfbench/out/results``, and the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--write-golden`` re-records the default seed's output digests; do that
only for an intended, explained change of the program's output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("mc-sweep", "cli-scenarios", "oracle-check")
DEFAULT_SEED = 2204
DEFAULT_SECONDS = 25
# Fresh processes timed from start to end of warm-up, half of them before
# the measuring process and half after it; setup_s is their median.
SETUP_RUNS = 9
# Start-up and imports do not follow the reference kernel's speed, so each
# set-up is scaled by a fresh interpreter that imports the program's
# dependencies, but not the program, started just before it: setup_s reads
# as on a host where that takes REF_STARTUP_NOMINAL_S.
REF_STARTUP = ("import numpy, scipy.linalg",)
REF_STARTUP_NOMINAL_S = 0.55
# Every run must end within 180 s; leave room for the last result.
RUN_BUDGET_S = 170
# What a workload costs beyond --seconds: its setup processes and warm-up.
SETUP_COST_S = 20
# threadpoolctl is not available, so BLAS threads are pinned by environment.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit() -> str:
    """HEAD of the checkout, read without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_python(args: list, deadline: float) -> str:
    """Stdout of a fresh interpreter with BLAS pinned and ``src`` on its path."""
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
    )
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"python {args[:2]} ran out of time") from None
    if proc.returncode != 0:
        raise BenchError(f"python {args[:2]} exited with {proc.returncode}")
    return out


def run_worker(args: list, deadline: float) -> dict:
    spawned_at = time.monotonic()
    out = run_python([str(HERE / "worker.py"), *args,
                      f"--spawned-at={spawned_at!r}", f"--out={OUT}"], deadline)
    if not out.strip():
        raise BenchError(f"worker {args} printed nothing")
    return json.loads(out.strip().splitlines()[-1])


def ref_startup_s(deadline: float) -> float:
    t0 = time.monotonic()
    run_python(["-c", *REF_STARTUP], deadline)
    return time.monotonic() - t0


def write_golden() -> None:
    """Re-record golden.json in this process, BLAS pinned as in the workers."""
    os.environ.update(BLAS_ENV)  # numpy is not loaded yet
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    golden = workloads.record_golden(DEFAULT_SEED, OUT)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")


def provenance(seed: int, worker: dict) -> dict:
    return {
        "workload_seed": seed,
        "git_commit": git_commit(),
        "versions": worker.get("versions"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "input_sizes": worker.get("sizes"),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    common = [f"--workload={name}", f"--seed={seed}", f"--seconds={seconds}"]
    details = {}
    if trace:
        worker = run_worker(common + ["--trace=1"], deadline)
        metrics = worker["layers"]
        details.update(untraced=worker["untraced"], traced=worker["traced"],
                       spans=worker["spans"], spans_file=worker["spans_file"])
        phases = (worker["untraced"], worker["traced"])
    else:
        def scaled_setup(args):
            ref = ref_startup_s(deadline)
            worker = run_worker(args, deadline)
            raw_setups.append(worker["setup_s"])
            setups.append(worker["setup_s"] * REF_STARTUP_NOMINAL_S / ref)
            return worker

        setups, raw_setups = [], []
        for _ in range(SETUP_RUNS // 2):
            scaled_setup(common + ["--setup-only"])
        worker = scaled_setup(common)
        while len(setups) < SETUP_RUNS:
            scaled_setup(common + ["--setup-only"])
        phase = worker["untraced"]
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "work_per_s": metric(phase["work_per_s"], "1/s"),
            "call_p50_ms": metric(phase["call_p50_ms"], "ms"),
            "call_p95_ms": metric(phase["call_p95_ms"], "ms"),
            "peak_rss_mb": metric(worker["peak_rss_mb"], "MB"),
        }
        details.update(setup_samples_s=setups, setup_raw_samples_s=raw_setups,
                       untraced=phase)
        phases = (phase,)
        counters = worker["counters"]
        if "geometry_repeats" in counters:
            details["geometry_repeat_share"] = (
                counters["geometry_repeats"] / max(1, counters["calls"]))

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    details.update(units_name=worker["units_name"],
                   golden_checked=worker["golden_checked"],
                   counters=worker["counters"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "metrics": metrics, "details": details,
        "provenance": provenance(seed, worker),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def print_record(record: dict) -> None:
    details = record["details"]
    print(f"{record['workload']}  seed={record['seed']}  trace={record['trace']}"
          f"  golden={'yes' if details['golden_checked'] else 'no'}")
    notes = {}
    if not record["trace"]:
        phase = details["untraced"]
        notes = {
            "setup_s": f"median of {SETUP_RUNS} processes; raw "
                       f"{statistics.median(details['setup_raw_samples_s']):.6g}",
            "work_per_s": f"{details['units_name']}; raw "
                          f"{phase['raw_work_per_s']:.6g}",
            "call_p50_ms": f"raw {phase['raw_call_p50_ms']:.6g}",
            "call_p95_ms": f"raw {phase['raw_call_p95_ms']:.6g}; "
                           f"n={phase['attempted']} calls",
        }
    for name, m in record["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
    print(f"  {'error_rate':<40} {record['error_rate']:.6g}"
          f"  ({record['failed']}/{record['attempted']} calls failed)")
    if not record["trace"]:
        print(f"  {'host_slowdown':<40} p5 {phase['slowdown_p5']:.3g}, p50 "
              f"{phase['slowdown_p50']:.3g}, p95 {phase['slowdown_p95']:.3g}"
              f"  (reference kernel time over its nominal)")
    if "geometry_repeat_share" in details:
        print(f"  {'geometry_repeat_share':<40} "
              f"{details['geometry_repeat_share']:.6g}")
    print(f"  result file: {record['path'].relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if not args.trace and len(names) * (args.seconds + SETUP_COST_S) > RUN_BUDGET_S:
        parser.error(f"{len(names)} workloads of --seconds={args.seconds:g} do not "
                     f"fit in {RUN_BUDGET_S} s with setup; give fewer seconds")
    if not (ROOT / "src" / "dpspesa" / "__init__.py").is_file():
        print(f"perfbench: no dpspesa source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden()
        return 0

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace, deadline)
                   for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for record in records:
        print_record(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": m
                   for r in records for k, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
