"""Command-line front end.

Subcommands: ``pattern`` (one beampattern CSV), ``single`` (single-target
experiment), ``clutter`` (multi-target clutter-reduction experiment),
``sweep`` (Monte-Carlo sweep CSV), ``oracle-check`` (validates the
candidate search against the exhaustive oracle).

Angles are degrees, as everywhere in the package; one that is not finite
or lies outside [-90, 90] is a usage error.  Scenario values may come
from a ``key=value`` config file (``--config``) whose keys name flags;
inline flags win on conflict, and ``DPS_SEED`` overrides the built-in
default seed.  Exit codes: 0 success, 1 I/O failure, 2 usage, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
from numpy.linalg import LinAlgError

from .array_model import (
    DEFAULT_FLOOR_DB,
    DEFAULT_GRID_STEP_DEG,
    ArrayConfig,
    BeampatternTrace,
    _grid_points,
    beampattern_trace,
    steering_vector,
)
from .beamformers import TargetScenario, mvdr_beamformer
from .dps_quantize import PhaseGrid, approximate, oracle_mismatches, quantize_pesa
from .experiments import (
    DEFAULT_GAMMA,
    ScenarioSpec,
    draw_target_angles,
    run_monte_carlo,
    run_mvdr_clutter,
    run_single_target,
    trial_rng,
)

MAX_ORACLE_CHECK_BITS = 4
# The CSV files of `single` and `clutter`, one per row of `TrialResult.traces`.
TRIAL_TRACE_FILES = ("reference.csv", "dps.csv", "pesa.csv")

# One entry per flag and config-file key; None means "not given".
DEFAULTS = {
    "antennas": 16,
    "spacing": 0.5,
    "targets": None,
    "desired": None,
    "gamma": None,
    "bits": "4",
    "candidates": 3,
    "norm": 2.0,
    "norms": "1,1.5,2",
    "grid_step": DEFAULT_GRID_STEP_DEG,
    "floor_db": DEFAULT_FLOOR_DB,
    "trials": None,
    "seed": 0,
    "workers": 1,
    "out": ".",
    "beamformer": "steering",
}
# Per-subcommand overrides of `DEFAULTS`.  Pattern keeps gamma None: it
# picks the steering vector or the MVDR reference for ``dps``.
COMMAND_DEFAULTS = {
    "sweep": {"bits": "2:12", "trials": 200, "gamma": DEFAULT_GAMMA},
    "clutter": {"gamma": DEFAULT_GAMMA},
    "oracle-check": {"trials": 1000},
}


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_bits_sweep(text: str) -> tuple:
    text = str(text)
    try:
        if ":" in text:
            lo, hi = (int(v) for v in text.split(":"))
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(
            f"expected bits as LO:HI or a comma-separated list, got {text!r}"
        ) from exc


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            name = key.replace("-", "_")
            if name not in DEFAULTS:
                raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
            values[name] = value
    return values


def _resolve(args, key, cast=None):
    """Inline flag, then config file, then DPS_SEED (seed only), then the
    subcommand's `COMMAND_DEFAULTS`, then `DEFAULTS`."""
    value = getattr(args, key, None)
    if value is None:
        value = args._config_values.get(key)
    if value is None and key == "seed":
        value = os.environ.get("DPS_SEED")
    if value is None:
        value = COMMAND_DEFAULTS.get(args.command, {}).get(key, DEFAULTS[key])
    if value is None or cast is None:
        return value
    if isinstance(value, str):
        try:
            return cast(value)
        except ValueError as exc:
            raise UsageError(f"invalid value for --{key.replace('_', '-')}: "
                             f"{value!r}") from exc
    return cast(value)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _write_lines(path: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_traces(out: str, trace: BeampatternTrace, names) -> None:
    """Write row i of ``trace`` (a single pattern is one row) to the CSV
    file ``names[i]`` in ``out``."""
    angles = trace.angles_deg.tolist()
    rows = zip(names, np.atleast_2d(trace.power_linear).tolist(),
               np.atleast_2d(trace.power_db).tolist(), strict=True)
    for name, linear, db in rows:
        # "%.9g" prints a Python float as `_fmt` does, with one call per row.
        lines = ["%.9g,%.9g,%.9g" % row for row in zip(angles, linear, db)]
        _write_lines(os.path.join(out, name),
                     ["angle_deg,power_linear,power_db", *lines])


def _write_summary(path: str, items) -> None:
    lines = [f"{key}={value}" for key, value in items]
    _write_lines(path, lines)
    for line in lines:
        print(line)


def _out_dir(args) -> str:
    out = str(_resolve(args, "out"))
    os.makedirs(out, exist_ok=True)
    return out


def _scenario_common(args, with_bits: bool = True) -> dict:
    common = {
        "config": ArrayConfig(_resolve(args, "antennas", int),
                              _resolve(args, "spacing", float)),
        "candidates_l": _resolve(args, "candidates", int),
        "norm_target": _resolve(args, "norm", float),
        "grid_step_deg": _resolve(args, "grid_step", float),
        "floor_db": _resolve(args, "floor_db", float),
        "seed": _resolve(args, "seed", int),
    }
    if with_bits:
        common["bits"] = _resolve(args, "bits", int)
    # The grid bound, checked before any steering vector or O(N^2) solve.
    _grid_points(common["grid_step_deg"], common["config"].n_antennas)
    return common


def _desired_index(targets: tuple, desired) -> int:
    if desired is None:
        if len(targets) == 1:
            return 0
        raise UsageError("--desired is required when several targets are given")
    desired = float(desired)
    for i, t in enumerate(targets):
        if t == desired:
            return i
    raise UsageError(f"--desired={desired:g} is not one of the target angles")


def cmd_pattern(args) -> int:
    common = _scenario_common(args)
    config = common["config"]
    kind = str(_resolve(args, "beamformer"))
    targets = _resolve(args, "targets", _parse_float_list)
    desired = _resolve(args, "desired", float)
    gamma = _resolve(args, "gamma", float)

    if targets is None:
        targets = (desired,) if desired is not None else (0.0,)
    idx = _desired_index(targets, desired)

    def mvdr_weights():
        return mvdr_beamformer(config, TargetScenario(targets, idx),
                               gamma if gamma is not None else DEFAULT_GAMMA)

    if kind == "steering":
        w = steering_vector(config, targets[idx])
    elif kind == "mvdr":
        w = mvdr_weights()
    elif kind == "dps":
        w = mvdr_weights() if (len(targets) > 1 or gamma is not None) \
            else steering_vector(config, targets[idx])
        w = approximate(w, PhaseGrid(common["bits"]), common["candidates_l"],
                        common["norm_target"]).realized
    elif kind == "pesa-quantized":
        w = quantize_pesa(steering_vector(config, targets[idx]),
                          PhaseGrid(common["bits"]))
    else:
        raise UsageError(f"unknown beamformer {kind!r}")

    trace = beampattern_trace(config, w, common["grid_step_deg"],
                              common["floor_db"])
    out = _out_dir(args)
    _write_traces(out, trace, ["pattern.csv"])
    print(f"wrote {os.path.join(out, 'pattern.csv')} ({trace.angles_deg.size} rows)")
    return 0


def cmd_single(args) -> int:
    common = _scenario_common(args)
    targets = _resolve(args, "targets", _parse_float_list)
    if targets is None:
        rng = trial_rng(common["seed"], 0)
        targets = tuple(draw_target_angles(rng, count=1))
    if len(targets) != 1:
        raise UsageError("single takes exactly one target angle")

    spec = ScenarioSpec(target_angles_deg=targets, **common)
    result = run_single_target(spec)
    out = _out_dir(args)
    _write_traces(out, result.traces, TRIAL_TRACE_FILES)
    _write_summary(os.path.join(out, "summary.txt"), [
        ("target_deg", _fmt(targets[0])),
        ("bits", spec.bits),
        ("candidates", spec.candidates_l),
        ("norm_target", _fmt(spec.norm_target)),
        ("seed", spec.seed),
        ("rms_dps_db", _fmt(result.rms_dps_db)),
        ("rms_pesa_db", _fmt(result.rms_pesa_db)),
    ])
    return 0


def cmd_clutter(args) -> int:
    common = _scenario_common(args)
    targets = _resolve(args, "targets", _parse_float_list)
    if targets is None or len(targets) < 2:
        raise UsageError("clutter requires --targets with at least two angles")
    idx = _desired_index(targets, _resolve(args, "desired", float))
    spec = ScenarioSpec(target_angles_deg=targets, desired_index=idx,
                        gamma=_resolve(args, "gamma", float), **common)
    result = run_mvdr_clutter(spec)

    items = [
        ("targets_deg", ",".join(_fmt(t) for t in targets)),
        ("desired_deg", _fmt(targets[idx])),
        ("gamma", _fmt(spec.gamma)),
        ("bits", spec.bits),
        ("candidates", spec.candidates_l),
        ("norm_target", _fmt(spec.norm_target)),
        ("rms_dps_db", _fmt(result.rms_dps_db)),
        ("rms_pesa_db", _fmt(result.rms_pesa_db)),
    ]
    for angle, levels in result.levels_at_targets_db.items():
        tag = f"{angle:g}"
        items.append((f"reference_db_at_{tag}", _fmt(levels.reference)))
        items.append((f"dps_db_at_{tag}", _fmt(levels.dps)))
        items.append((f"pesa_db_at_{tag}", _fmt(levels.pesa)))
    out = _out_dir(args)
    _write_traces(out, result.traces, TRIAL_TRACE_FILES)
    _write_summary(os.path.join(out, "summary.txt"), items)
    return 0


def cmd_sweep(args) -> int:
    common = _scenario_common(args, with_bits=False)
    bits_sweep = _resolve(args, "bits", _parse_bits_sweep)
    norm_sweep = _resolve(args, "norms", _parse_float_list)
    trials = _resolve(args, "trials", int)
    workers = _resolve(args, "workers", int)

    # Targets are drawn per trial.
    spec = ScenarioSpec(gamma=_resolve(args, "gamma", float), **common)
    result = run_monte_carlo(spec, bits_sweep, norm_sweep, trials,
                             workers=workers)

    out = _out_dir(args)
    path = os.path.join(out, "sweep.csv")
    lines = ["bits,norm_target,mean_rms_dps_db,mean_rms_pesa_db,trials"]
    lines.extend(
        f"{row.bits},{_fmt(row.norm_target)},{_fmt(row.mean_rms_dps_db)},"
        f"{_fmt(row.mean_rms_pesa_db)},{row.trials}"
        for row in result.rows
    )
    _write_lines(path, lines)
    print(f"wrote {path} ({len(result.rows)} rows, {trials} trials)")
    return 0


def cmd_oracle_check(args) -> int:
    bits = _resolve(args, "bits", int)
    if not 1 <= bits <= MAX_ORACLE_CHECK_BITS:
        raise UsageError(
            f"oracle-check requires 1 <= bits <= {MAX_ORACLE_CHECK_BITS}"
        )
    count = _resolve(args, "trials", int)
    if count < 1:
        raise UsageError("oracle-check requires --trials >= 1")

    grid = PhaseGrid(bits)
    rng = trial_rng(_resolve(args, "seed", int), 0)
    mismatches = 0
    checked = 0
    while checked < count:
        # Weights are drawn and normalized 16 at a time; what a seed
        # checks depends on that block size, so keep it.
        block = min(16, count - checked)
        radius = 2.0 * np.sqrt(rng.random(block))
        angle = rng.random(block) * 2.0 * np.pi
        for m in oracle_mismatches(radius * np.exp(1j * angle), grid):
            mismatches += 1
            print(f"mismatch: w={m.weight!r} search pair={m.search_pair} "
                  f"err={m.search_error!r} oracle pair={m.oracle_pair} "
                  f"err={m.oracle_error!r}")
        checked += block
    if mismatches:
        print(f"oracle check FAILED: {mismatches}/{checked} mismatches")
        return 3
    print(f"oracle check passed: {checked} weights, bits={bits}, "
          f"candidates={grid.size}")
    return 0


def _help(command: str, key: str, text: str) -> str:
    """``text`` plus the default `_resolve` falls back to for ``command``."""
    value = COMMAND_DEFAULTS.get(command, {}).get(key, DEFAULTS[key])
    if value is None:
        return text
    if isinstance(value, float):
        value = format(value, "g")
    return f"{text} (default {value})"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpspesa",
        description="Double-phase-shifter PESA beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(command, help):
        p = sub.add_parser(command, help=help)

        def add(*flags, help, **kwargs):
            # The flag's dest is its `DEFAULTS` key.
            key = flags[-1].lstrip("-").replace("-", "_")
            p.add_argument(*flags, help=_help(command, key, help), **kwargs)

        p.add_argument("--config", help="key=value scenario file; inline flags win")
        add("--antennas", type=int, help="array elements")
        add("--spacing", type=float, help="element spacing in wavelengths")
        add("--bits", help="phase shifter bits")
        add("-L", "--candidates", type=int,
            help="top-L candidate phases per shifter")
        add("--norm", type=float, help="normalization target in (0, 2]")
        add("--grid-step", type=float, help="angle grid step in degrees")
        add("--floor-db", type=float, help="dB clamp for normalized patterns")
        p.add_argument("--seed", type=int,
                       help=f"RNG seed (default $DPS_SEED or {DEFAULTS['seed']})")
        add("--out", help="output directory")
        return p, add

    p, add = add_parser("pattern", help="write one beampattern CSV")
    add("--beamformer", choices=["steering", "mvdr", "dps", "pesa-quantized"],
        help="weight source")
    add("--targets", help="comma-separated target angles in degrees")
    add("--desired", type=float, help="desired target angle in degrees")
    add("--gamma", type=float, help="null-depth regularizer")
    p.set_defaults(func=cmd_pattern)

    p, add = add_parser("single", help="single-target tracking experiment")
    p.add_argument("--targets", help="target angle in degrees (default: random)")
    p.set_defaults(func=cmd_single)

    p, add = add_parser("clutter", help="multi-target clutter-reduction experiment")
    add("--targets", help="comma-separated target angles in degrees")
    add("--desired", type=float, help="desired target angle in degrees")
    add("--gamma", type=float, help="null-depth regularizer")
    p.set_defaults(func=cmd_clutter)

    p, add = add_parser("sweep", help="Monte-Carlo sweep over bits and norms")
    add("--norms", help="comma-separated normalization targets")
    add("--trials", type=int, help="trials per combination")
    add("--gamma", type=float, help="null-depth regularizer")
    add("--workers", type=int, help="parallel trial workers, at most the CPU count")
    p.set_defaults(func=cmd_sweep)

    p, add = add_parser("oracle-check",
                        help="compare the candidate search to the exhaustive oracle")
    add("--trials", type=int, help="random weights to check")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config_path = getattr(args, "config", None)
        args._config_values = _load_config_file(config_path) if config_path else {}
        return args.func(args)
    except LinAlgError as exc:  # a ValueError subclass, so caught first
        print(f"ill-conditioned solve ({exc}); increase --gamma",
              file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
