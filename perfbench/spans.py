"""Span recorder for the traced benchmark run.

`instrument` replaces each listed public function of the dpspesa modules
with a recording wrapper at every module binding (the defining module and
each importer, e.g. ``dpspesa.experiments.approximate`` and
``dpspesa.cli.approximate``) and puts the originals back on exit.  Spans
stay in memory; `layer_metrics` turns them into per-function, per-module
and per-stage self times.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

PACKAGE = "dpspesa"
MODULES = ("array_model", "beamformers", "dps_quantize", "experiments", "cli")

# The wrapped functions and the metrics reported for each.  The per-element
# helpers (decompose, nearest_phases, _best_pair) stay unwrapped: wrapping
# them would cost more than they do, and their time belongs to approximate.
FUNCTIONS = {
    "array_model.steering_vector": ("calls",),
    "array_model.steering_matrix": ("calls", "self_s", "rows"),
    "array_model.beampattern_trace": ("calls", "self_s"),
    "array_model.trace_from_powers": ("calls", "self_s"),
    "array_model.rms_diff_db": ("calls", "self_s"),
    "array_model.angle_grid_deg": ("calls",),
    "beamformers.mvdr_beamformer": ("calls", "self_s"),
    "beamformers.steering_beamformer": ("calls", "self_s"),
    "dps_quantize.approximate": ("calls", "self_s", "elements"),
    "dps_quantize.quantize_pesa": ("calls", "self_s", "elements"),
    "dps_quantize.exhaustive_oracle": ("calls", "self_s"),
    "dps_quantize.normalize_to_max": ("calls", "self_s"),
    "experiments.run_monte_carlo": ("self_s",),
    "experiments.run_mvdr_clutter": ("self_s",),
    "experiments.run_single_target": ("self_s",),
    "experiments.draw_target_angles": ("calls",),
    "cli.main": ("calls", "self_s"),
}

# Work counters: metric suffix, positional index and name of the argument
# whose element count is added on every call.
COUNTERS = {
    "dps_quantize.approximate": ("elements", 0, "w"),
    "dps_quantize.quantize_pesa": ("elements", 0, "w"),
    "array_model.steering_matrix": ("rows", 1, "thetas"),
}

# ROADMAP item 5's stage names in terms of traced self time.  An entry is a
# whole module or one function; a later `--timings` flag should report the
# same split.
STAGES = {
    "solve": ("beamformers",),
    "quantize": ("dps_quantize",),
    "trace": (
        "array_model.steering_vector",
        "array_model.steering_matrix",
        "array_model.beampattern_trace",
        "array_model.trace_from_powers",
        "array_model.angle_grid_deg",
        "experiments",
    ),
    "score": ("array_model.rms_diff_db",),
    "write": ("cli",),
}

UNITS = {"calls": "count", "self_s": "s", "elements": "count", "rows": "count"}

# Metrics the traced run adds from outside the spans: files the CLI wrote,
# and traced against untraced throughput.
EXTRA_METRICS = {
    "cli.bytes_written": "B",
    "cli.files_written": "count",
    "trace.overhead": "ratio",
    "trace.wall_s": "s",
}


class Span(NamedTuple):
    id: int
    parent: int  # -1 for a span with no traced caller
    name: str
    start: float
    end: float
    request: int  # index of the benchmark call that caused it


class SpanRecorder:
    """Collects spans and work counters in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            if counter is not None:
                suffix, pos, key = counter
                arg = args[pos] if len(args) > pos else kwargs[key]
                self.counts[f"{name}.{suffix}"] += int(np.size(arg))
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, parent, name, start, end, self.request))

        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(Span._fields)
            out.writerows(self.spans)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap every binding of the `FUNCTIONS` while the block runs.

    A function missing from the package is skipped, so its metrics read 0.
    """
    modules = [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
    ]
    patched = {}  # (module, attribute) -> original
    try:
        for name in FUNCTIONS:
            module_name, fn_name = name.split(".")
            original = getattr(
                importlib.import_module(f"{PACKAGE}.{module_name}"), fn_name, None
            )
            if original is None:
                continue
            wrapper = recorder.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original and (module, attr) not in patched:
                        patched[module, attr] = original
                        setattr(module, attr, wrapper)
        yield recorder
    finally:
        for (module, attr), original in patched.items():
            setattr(module, attr, original)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo = max(c.start, reach)
            hi = min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    names = {}
    for fn, metrics in FUNCTIONS.items():
        for metric in metrics:
            names[f"{fn}.{metric}"] = UNITS[metric]
    for module in MODULES:
        names[f"{module}.self_s"] = "s"
        names[f"{module}.share"] = "ratio"
    for stage in STAGES:
        names[f"stage.{stage}.self_s"] = "s"
    names.update(EXTRA_METRICS)
    return names


def layer_metrics(spans, counts, extra) -> dict[str, dict]:
    """Per-layer metrics from recorded spans, counters and `extra` values.

    ``extra`` supplies the `EXTRA_METRICS` other than ``trace.wall_s``,
    which is the summed duration of the root spans: the time spent inside
    the package.
    """
    own = self_times(spans)
    calls = defaultdict(int)
    fn_self = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        fn_self[s.name] += own[s.id]
    wall = sum(s.end - s.start for s in spans if s.parent == -1)

    values = {}
    for fn, metrics in FUNCTIONS.items():
        for metric in metrics:
            if metric == "calls":
                values[f"{fn}.calls"] = calls[fn]
            elif metric == "self_s":
                values[f"{fn}.self_s"] = fn_self[fn]
            else:
                values[f"{fn}.{metric}"] = counts.get(f"{fn}.{metric}", 0)
    for module in MODULES:
        module_self = sum(t for fn, t in fn_self.items()
                          if fn.split(".")[0] == module)
        values[f"{module}.self_s"] = module_self
        values[f"{module}.share"] = module_self / wall if wall > 0 else 0.0
    for stage, members in STAGES.items():
        values[f"stage.{stage}.self_s"] = sum(
            t for fn, t in fn_self.items()
            if fn in members or fn.split(".")[0] in members
        )
    values.update(extra)
    values["trace.wall_s"] = wall

    units = per_layer_names()
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}
