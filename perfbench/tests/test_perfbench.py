"""Tests of the benchmark itself: span arithmetic, instrumentation, workloads.

Run with ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import hostspeed
import run
import spans
import worker
import workloads
from spans import Span, SpanRecorder, instrument, layer_metrics, self_times

BENCHMARK_JSON = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXTRA = {"cli.bytes_written": 0, "cli.files_written": 0, "trace.overhead": 1.0}


def test_self_time_subtracts_child_coverage():
    tree = [
        Span(0, -1, "cli.main", 0.0, 10.0, 0),
        Span(1, 0, "experiments.run_mvdr_clutter", 1.0, 4.0, 0),
        Span(2, 1, "dps_quantize.approximate", 2.0, 3.0, 0),
        Span(3, 0, "array_model.rms_diff_db", 5.0, 6.0, 0),
        # Overlaps its sibling: covered time counts once.
        Span(4, 0, "array_model.trace_from_powers", 5.5, 7.0, 0),
    ]
    own = self_times(tree)
    assert own == pytest.approx({0: 10 - 3 - 2, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.5})

    # Calls on one thread nest, so drop the overlapping sibling.
    layers = layer_metrics(tree[:4], {}, EXTRA)
    value = {name: m["value"] for name, m in layers.items()}
    assert value["trace.wall_s"] == 10.0
    assert value["cli.self_s"] == pytest.approx(6.0)
    assert value["array_model.self_s"] == pytest.approx(1.0)
    assert value["cli.share"] == pytest.approx(0.6)
    assert value["stage.score.self_s"] == pytest.approx(1.0)
    assert value["stage.trace.self_s"] == pytest.approx(2.0)
    module_self = sum(value[f"{m}.self_s"] for m in spans.MODULES)
    assert module_self == pytest.approx(value["trace.wall_s"])


def _bindings():
    modules = [importlib.import_module("dpspesa")] + [
        importlib.import_module(f"dpspesa.{m}") for m in spans.MODULES]
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()
            if callable(v)}


def test_instrument_wraps_every_binding_and_restores_by_identity():
    import dpspesa.cli
    import dpspesa.dps_quantize
    import dpspesa.experiments

    before = _bindings()
    original = dpspesa.dps_quantize.approximate
    decompose = dpspesa.dps_quantize.decompose
    with pytest.raises(RuntimeError):
        with instrument(SpanRecorder()):
            wrapper = dpspesa.dps_quantize.approximate
            assert wrapper is not original
            assert dpspesa.experiments.approximate is wrapper
            assert dpspesa.cli.approximate is wrapper
            assert dpspesa.dps_quantize.decompose is decompose
            raise RuntimeError("restore on the way out too")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK_JSON["per_layer"]}
    assert declared == spans.per_layer_names()
    assert [w["name"] for w in BENCHMARK_JSON["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def _phase(times, ref_s):
    phase = worker.Phase()
    phase.times = list(times)
    phase.units = [1] * len(times)
    phase.ref_s = list(ref_s)
    return phase


def test_summary_scales_out_a_slow_host_and_keeps_slow_calls():
    nominal = hostspeed.NOMINAL_S
    # 120 calls of 1 ms; in the last 40 the host, and so the kernel, is
    # twice as slow.
    times = [0.001] * 80 + [0.002] * 40
    ref_s = [nominal] * 81 + [2 * nominal] * 40
    base = _phase(times, ref_s).summary()
    assert base["raw_work_per_s"] == pytest.approx(120 / 0.160)
    assert base["work_per_s"] == pytest.approx(1000, rel=0.02)
    assert base["call_p50_ms"] == pytest.approx(1.0)
    assert base["slowdown_p50"] == 1.0 and base["slowdown_p95"] == 2.0

    # One call in four takes five times as long on a steady host: it counts.
    periodic = _phase([0.005 if i % 4 == 3 else 0.001 for i in range(120)],
                      [nominal] * 121).summary()
    assert periodic["work_per_s"] == pytest.approx(4 / 0.008)
    assert periodic["call_p50_ms"] == pytest.approx(1.0)
    assert periodic["call_p95_ms"] == pytest.approx(5.0)


def test_slowdowns_average_the_samples_around_each_call():
    n = hostspeed.NOMINAL_S
    slow = hostspeed.slowdowns([n, n, n, n, 7 * n, n, n, n], 7)
    # Samples 0..3 surround call 0, samples 1..6 call 3, samples 4..7 call 6.
    assert slow == pytest.approx([1, 2.2, 2, 2, 2, 2.2, 2.5])
    with pytest.raises(ValueError):
        hostspeed.slowdowns([n] * 3, 3)


TINY_CALLS = {"mc-sweep": 2, "cli-scenarios": 48, "oracle-check": 20}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_on_default_seed_matches_golden(name, tmp_path):
    wl = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    golden = worker.load_golden(name, run.DEFAULT_SEED)
    assert (golden is not None) == hasattr(wl, "period")
    phase = worker.measure(wl, calls=TINY_CALLS[name], golden=golden)
    summary = phase.summary()
    assert summary["attempted"] == TINY_CALLS[name]
    assert summary["failed"] == 0
    assert summary["work_per_s"] > 0


def test_tiny_traced_run_reports_every_layer(tmp_path):
    wl = workloads.CliScenarios(run.DEFAULT_SEED, tmp_path)
    wl.trace_calls = 6
    args = SimpleNamespace(out=tmp_path, seed=run.DEFAULT_SEED)
    result = worker.traced_run(wl, args, worker.load_golden(wl.name, args.seed))
    assert result["untraced"]["failed"] == result["traced"]["failed"] == 0
    value = {name: m["value"] for name, m in result["layers"].items()}
    assert value.keys() == spans.per_layer_names().keys()
    assert value["cli.main.calls"] == 6
    # One group of kinds: four pattern.csv, then 4 files each from single
    # and clutter; the untraced repeats are not counted.
    assert value["cli.files_written"] == 4 + 2 * 4
    assert value["cli.share"] == max(value[f"{m}.share"] for m in spans.MODULES)
    assert sum(value[f"{m}.self_s"] for m in spans.MODULES) <= value["trace.wall_s"]
    assert value["trace.overhead"] > 0


def test_golden_digests_reject_a_changed_output(tmp_path):
    wl = workloads.McSweep(run.DEFAULT_SEED, tmp_path)
    golden = worker.load_golden(wl.name, run.DEFAULT_SEED)
    wrong = [golden[1]] + golden[1:]
    assert worker.measure(wl, calls=1, golden=wrong).failed == 1


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_the_inputs(name, tmp_path):
    a = workloads.WORKLOADS[name](run.DEFAULT_SEED, tmp_path)
    b = workloads.WORKLOADS[name](run.DEFAULT_SEED + 1, tmp_path)
    assert worker.load_golden(name, run.DEFAULT_SEED + 1) is None
    for index in range(3):
        assert repr(a.prepare(index)) == repr(a.prepare(index))
        assert repr(a.prepare(index)) != repr(b.prepare(index))


def test_rejects_seconds_that_do_not_fit_the_run_budget(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload=all", "--seconds=60"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload=mc-sweep", "--seed=1",
         "--seconds=1", "--trace=0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
