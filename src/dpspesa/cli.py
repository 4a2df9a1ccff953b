"""Command-line front end.

Two tables define the interface: `FLAGS`, each flag's default, parser
and help, and `COMMANDS`, each subcommand's flags and handler.

Angles are degrees, as everywhere in the package; one that is not finite
or lies outside [-90, 90] is a usage error.  Each subcommand takes only
the flags its handler reads, spelled in full.  Scenario values may come
from a ``key=value`` config file (``--config``) whose keys name flags;
inline flags win on conflict, and ``DPS_SEED`` overrides the built-in
default seed.  `main` resolves the chosen subcommand's keys once, in
table order, and hands its handler the plain values: each is parsed,
whatever its source, before any is checked.  Exit codes: 0 success,
1 I/O failure, 2 usage, 3 validation failure.

Every output file (trace CSVs, ``sweep.csv``, ``summary.txt``) is ASCII,
written as bytes by `_write`, each line ended by a line feed on every
platform; floats are printed as ``%.9g``.

`build_parser` returns one parser shared by every call in the process;
callers must not mutate it or its subparsers.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError

from .array_model import (
    ArrayConfig,
    BeampatternTrace,
    beampattern_trace,
    steering_vector,
)
from .beamformers import mvdr_beamformer
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
# `oracle-check` draws and normalizes weights in blocks of this size and
# checks at most ORACLE_CHECK_MAX_BLOCKS blocks per `oracle_mismatches` call.
ORACLE_CHECK_BLOCK_SIZE = 16
ORACLE_CHECK_MAX_BLOCKS = 64
# The CSV files of `single` and `clutter`, one per row of `TrialResult.traces`.
TRIAL_TRACE_FILES = ("reference.csv", "dps.csv", "pesa.csv")


class UsageError(Exception):
    """Bad flag combination or value; maps to exit code 2."""


def _parse_float_list(text: str) -> tuple:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_bits_sweep(text: str) -> tuple:
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


class Flag(NamedTuple):
    """A flag's default (None: not given), value parser and help text."""

    default: object
    parse: Callable
    help: str


# One entry per flag and config-file key.  Scenario defaults are the
# library's own, read from its dataclasses.
FLAGS = {
    "antennas": Flag(16, int, "array elements"),
    "spacing": Flag(ArrayConfig.spacing_wavelengths, float,
                    "element spacing in wavelengths"),
    "targets": Flag(None, _parse_float_list,
                    "comma-separated target angles in degrees"),
    "desired": Flag(None, float, "desired target angle in degrees"),
    "gamma": Flag(None, float, "null-depth regularizer"),
    "bits": Flag(ScenarioSpec.bits, int, "phase shifter bits"),
    "candidates": Flag(ScenarioSpec.candidates_l, int,
                       "top-L candidate phases per shifter"),
    "norm": Flag(ScenarioSpec.norm_target, float,
                 "normalization target in (0, 2]"),
    "norms": Flag("1,1.5,2", _parse_float_list,
                  "comma-separated normalization targets"),
    "grid_step": Flag(ScenarioSpec.grid_step_deg, float,
                      "angle grid step in degrees"),
    "floor_db": Flag(ScenarioSpec.floor_db, float,
                     "dB clamp for normalized patterns"),
    "trials": Flag(None, int, "trials per combination"),
    "seed": Flag(ScenarioSpec.seed, int, "RNG seed"),
    "workers": Flag(1, int, "parallel trial workers, at most the CPU count"),
    "out": Flag(".", str, "output directory"),
    "beamformer": Flag("steering", str,
                       "weight source: steering, mvdr, dps or pesa-quantized"),
}


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
            if name not in FLAGS:
                raise UsageError(f"{path}:{lineno}: unknown key '{key}'")
            values[name] = value
    return values


def _flag(command: str, key: str) -> Flag:
    """``key``'s `FLAGS` entry with ``command``'s overrides applied."""
    return FLAGS[key]._replace(**COMMANDS[command].overrides.get(key, {}))


def _resolve(args, key):
    """Inline flag, then config file, then DPS_SEED (seed only), then the
    default, parsed by the subcommand's parser for ``key``."""
    default, parse, _ = _flag(args.command, key)
    value = getattr(args, key, None)
    if value is None:
        value = args._config_values.get(key)
    if value is None and key == "seed":
        value = os.environ.get("DPS_SEED")
    if value is None:
        value = default
    try:
        return None if value is None else parse(value)
    except ValueError as exc:  # defaults parse, so this is a given value
        raise UsageError(f"invalid value for --{key.replace('_', '-')}: "
                         f"{value!r}") from exc


def _fmt(x) -> str:
    return format(float(x), ".9g")


def _exact(x) -> str:
    """``x`` as the shortest text that reads back as the same float, without
    a trailing ``.0``, so that distinct angles never print alike."""
    return repr(float(x)).removesuffix(".0")


def _write(path: str, data) -> None:
    """Write ``data``, bytes or ASCII text, to ``path`` with one ``write``
    and no newline translation: every output file is ASCII, each line ended
    by a line feed on every platform."""
    if isinstance(data, str):
        data = data.encode("ascii")
    with open(path, "wb") as fh:
        fh.write(data)


# Keyed by the grid's float64 bytes; eight grids at most, as
# `array_model._grid_response` caches.
@functools.lru_cache(maxsize=8)
def _trace_template(angles: bytes) -> bytes:
    """Trace CSV bytes for the float64 grid ``angles``: the header, then
    each row's formatted angle and two ``%.9g`` slots, each row ended by a
    newline."""
    rows = (b"%.9g,%%.9g,%%.9g\n" % a for a in np.frombuffer(angles).tolist())
    return b"".join([b"angle_deg,power_linear,power_db\n", *rows])


def _write_traces(out: str, trace: BeampatternTrace, names) -> None:
    """Write row i of ``trace`` (a single pattern is one row) to the CSV
    file ``names[i]`` in ``out``."""
    template = _trace_template(np.asarray(trace.angles_deg, float).tobytes())
    linear = np.atleast_2d(trace.power_linear)
    db = np.atleast_2d(trace.power_db)
    # One `%` per file over the row pairs (linear, db) of Python floats:
    # bytes "%.9g" prints a Python float with the digits of `_fmt`, and the
    # angle column was printed the same way once per grid.
    rows = np.stack((linear, db), axis=-1).reshape(len(linear), -1).tolist()
    for name, row in zip(names, rows, strict=True):
        _write(os.path.join(out, name), template % tuple(row))


def _write_summary(path: str, items) -> None:
    text = "".join(f"{key}={value}\n" for key, value in items)
    _write(path, text)
    print(text, end="")


def _out_dir(values: dict) -> str:
    out = values["out"]
    os.makedirs(out, exist_ok=True)
    return out


def _spec(values: dict, **fields) -> ScenarioSpec:
    """The subcommand's scenario from its scenario flags and the handler's
    ``fields``; `ScenarioSpec` checks every value."""
    if "norm" in values:  # the sweep reads lists of bits and norms instead
        fields.update(bits=values["bits"], norm_target=values["norm"])
    return ScenarioSpec(ArrayConfig(values["antennas"], values["spacing"]),
                        candidates_l=values["candidates"],
                        grid_step_deg=values["grid_step"],
                        floor_db=values["floor_db"], **fields)


def _desired_index(targets: tuple, desired) -> int:
    if desired is None:
        if len(targets) < 2:
            return 0
        raise UsageError("--desired is required when several targets are given")
    if desired not in targets:
        raise UsageError(f"--desired={_exact(desired)} is not one of the "
                         "target angles")
    return targets.index(desired)


def cmd_pattern(values: dict) -> int:
    kind = values["beamformer"]
    if kind not in ("steering", "mvdr", "dps", "pesa-quantized"):
        raise UsageError(f"unknown beamformer {kind!r}")
    targets, desired = values["targets"], values["desired"]
    if targets is None:
        targets = (desired,) if desired is not None else (0.0,)
    # Every beamformer checks every target and gamma, also those that
    # ignore them.
    spec = _spec(values, target_angles_deg=targets,
                 desired_index=_desired_index(targets, desired),
                 gamma=values["gamma"])
    if kind == "mvdr" or (kind == "dps" and (len(targets) > 1
                                             or spec.gamma is not None)):
        w = mvdr_beamformer(spec.config, spec.target_angles_deg,
                            spec.gamma or DEFAULT_GAMMA, spec.desired_index)
    else:
        w = steering_vector(spec.config, spec.desired_angle_deg)
    if kind == "dps":
        w = approximate(w, PhaseGrid(spec.bits), spec.candidates_l,
                        spec.norm_target).realized
    elif kind == "pesa-quantized":
        w = quantize_pesa(w, PhaseGrid(spec.bits))

    trace = beampattern_trace(spec.config, w, spec.grid_step_deg, spec.floor_db)
    out = _out_dir(values)
    _write_traces(out, trace, ["pattern.csv"])
    print(f"wrote {os.path.join(out, 'pattern.csv')} ({trace.angles_deg.size} rows)")
    return 0


def cmd_single(values: dict) -> int:
    targets, seed = values["targets"], values["seed"]
    if targets is None:
        targets = tuple(draw_target_angles(trial_rng(seed, 0), count=1))
    spec = _spec(values, target_angles_deg=targets, seed=seed)
    result = run_single_target(spec)
    out = _out_dir(values)
    _write_traces(out, result.traces, TRIAL_TRACE_FILES)
    _write_summary(os.path.join(out, "summary.txt"), [
        ("target_deg", _exact(spec.target_angles_deg[0])),
        ("bits", spec.bits),
        ("candidates", spec.candidates_l),
        ("norm_target", _fmt(spec.norm_target)),
        ("seed", spec.seed),
        ("rms_dps_db", _fmt(result.rms_dps_db)),
        ("rms_pesa_db", _fmt(result.rms_pesa_db)),
    ])
    return 0


def cmd_clutter(values: dict) -> int:
    targets = values["targets"] or ()
    # Fewer than two targets leave no desired one to look up:
    # `run_mvdr_clutter` refuses the run with its own message.
    index = _desired_index(targets, values["desired"]) if len(targets) > 1 else 0
    spec = _spec(values, target_angles_deg=targets, desired_index=index,
                 gamma=values["gamma"])
    result = run_mvdr_clutter(spec)

    items = [
        ("targets_deg", ",".join(map(_exact, spec.target_angles_deg))),
        ("desired_deg", _exact(spec.desired_angle_deg)),
        ("gamma", _fmt(spec.gamma)),
        ("bits", spec.bits),
        ("candidates", spec.candidates_l),
        ("norm_target", _fmt(spec.norm_target)),
        ("rms_dps_db", _fmt(result.rms_dps_db)),
        ("rms_pesa_db", _fmt(result.rms_pesa_db)),
    ]
    for angle, levels in result.levels_at_targets_db.items():
        tag = _exact(angle)
        items.append((f"reference_db_at_{tag}", _fmt(levels.reference)))
        items.append((f"dps_db_at_{tag}", _fmt(levels.dps)))
        items.append((f"pesa_db_at_{tag}", _fmt(levels.pesa)))
    out = _out_dir(values)
    _write_traces(out, result.traces, TRIAL_TRACE_FILES)
    _write_summary(os.path.join(out, "summary.txt"), items)
    return 0


def cmd_sweep(values: dict) -> int:
    # Targets are drawn per trial.
    spec = _spec(values, gamma=values["gamma"], seed=values["seed"])
    result = run_monte_carlo(spec, values["bits"], values["norms"],
                             values["trials"], workers=values["workers"])

    out = _out_dir(values)
    path = os.path.join(out, "sweep.csv")
    rows = "".join(
        f"{row.bits},{_fmt(row.norm_target)},{_fmt(row.mean_rms_dps_db)},"
        f"{_fmt(row.mean_rms_pesa_db)},{row.trials}\n"
        for row in result.rows
    )
    _write(path, "bits,norm_target,mean_rms_dps_db,mean_rms_pesa_db,trials\n"
           + rows)
    print(f"wrote {path} ({len(result.rows)} rows, {values['trials']} trials)")
    return 0


def cmd_oracle_check(values: dict) -> int:
    bits = values["bits"]
    if not 1 <= bits <= MAX_ORACLE_CHECK_BITS:
        raise UsageError("oracle-check requires 1 <= bits <= "
                         f"{MAX_ORACLE_CHECK_BITS}")
    count = values["trials"]
    if count < 1:
        raise UsageError("oracle-check requires --trials >= 1")

    grid = PhaseGrid(bits)
    rng = trial_rng(values["seed"], 0)
    mismatches = checked = 0
    while checked < count:
        # Weights are drawn and normalized a block at a time, the block's
        # radii then its angles; what a seed checks depends on the block
        # size, so keep it.  Up to ORACLE_CHECK_MAX_BLOCKS full blocks are
        # drawn at once, stacked as rows, each normalized on its own, and
        # checked in one call, so memory stays bounded whatever --trials
        # is.  A last partial block is checked in its own call.
        full, rest = divmod(count - checked, ORACLE_CHECK_BLOCK_SIZE)
        blocks, block = ((min(full, ORACLE_CHECK_MAX_BLOCKS),
                          ORACLE_CHECK_BLOCK_SIZE) if full else (1, rest))
        draws = rng.random((blocks, 2, block))
        radius = 2.0 * np.sqrt(draws[:, 0])
        angle = draws[:, 1] * 2.0 * np.pi
        for m in oracle_mismatches(radius * np.exp(1j * angle), grid):
            mismatches += 1
            print(f"mismatch: w={m.weight!r} search pair={m.search_pair} "
                  f"err={m.search_error!r} oracle pair={m.oracle_pair} "
                  f"err={m.oracle_error!r}")
        checked += blocks * block
    if mismatches:
        print(f"oracle check FAILED: {mismatches}/{checked} mismatches")
        return 3
    print(f"oracle check passed: {checked} weights, bits={bits}, "
          f"candidates={grid.size}")
    return 0


class Command(NamedTuple):
    """A subcommand's handler, help line, the space-separated keys it reads
    (one flag each) and, per key, the `Flag` fields that differ from `FLAGS`."""

    handler: Callable
    help: str
    keys: str
    overrides: dict


_SCENARIO = "antennas spacing bits candidates grid_step floor_db"
# Pattern keeps gamma None, so that ``dps`` can pick the steering vector.
COMMANDS = {
    "pattern": Command(
        cmd_pattern, "write one beampattern CSV",
        f"{_SCENARIO} norm out beamformer targets desired gamma", {}),
    "single": Command(
        cmd_single, "single-target tracking experiment",
        f"{_SCENARIO} norm seed out targets",
        {"targets": {"help": "target angle in degrees (default: random)"}}),
    "clutter": Command(
        cmd_clutter, "multi-target clutter-reduction experiment",
        f"{_SCENARIO} norm out targets desired gamma",
        {"gamma": {"default": DEFAULT_GAMMA}}),
    "sweep": Command(
        cmd_sweep, "Monte-Carlo sweep over bits and norms",
        f"{_SCENARIO} seed out norms trials gamma workers",
        {"bits": {"default": "2:12", "parse": _parse_bits_sweep},
         "trials": {"default": 200}, "gamma": {"default": DEFAULT_GAMMA}}),
    "oracle-check": Command(
        cmd_oracle_check, "compare the candidate search to the exhaustive oracle",
        "bits seed trials",
        {"trials": {"default": 1000, "help": "random weights to check"}}),
}


def _help(command: str, key: str) -> str:
    """``key``'s help for ``command``, with the default `_resolve` uses."""
    value, _, text = _flag(command, key)
    if value is None:
        return text
    value = format(value, "g") if isinstance(value, float) else value
    if key == "seed":
        value = f"$DPS_SEED or {value}"
    return f"{text} (default {value})"


@functools.lru_cache(maxsize=1)
def _parsers() -> tuple[argparse.ArgumentParser, dict]:
    """The top parser and its map of subparsers, one per `COMMANDS` entry;
    `_resolve` parses what they collect."""
    parser = argparse.ArgumentParser(
        prog="dpspesa", allow_abbrev=False,
        description="Double-phase-shifter PESA beamforming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help, keys, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help, allow_abbrev=False)
        # What the top parser would add, so that a subparser parsing alone
        # gives the same namespace.
        p.set_defaults(parser=p, command=command)
        p.add_argument("--config", help="key=value scenario file; inline flags win")
        for key in keys.split():
            flags = ("-L",) if key == "candidates" else ()
            p.add_argument(*flags, "--" + key.replace("_", "-"),
                           help=_help(command, key))
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The top parser, with a subparser per `COMMANDS` entry."""
    return _parsers()[0]


def _print_warning(message, *_) -> None:
    """Show a warning as one ``warning: <message>`` line on stderr, without
    the source location, so stderr does not depend on where it was raised.
    The line is one write, so the lines of concurrent sweep workers stay
    whole."""
    sys.stderr.write(f"warning: {message}\n")
    sys.stderr.flush()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    # The top parser has no option but -h, so for a named subcommand it would
    # only hand every argument on to that subparser: it parses alone.  The
    # top parser prints --help and rejects a missing or unknown command.
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
    else:
        args, extras = parser.parse_known_args(argv)
    if extras:  # reported with the usage of the subcommand that was chosen
        args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    # A warning prints as it is raised, in order with the lines below.
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        try:
            args._config_values = (_load_config_file(args.config)
                                   if args.config else {})
            handler, _, keys, _ = COMMANDS[args.command]
            return handler({key: _resolve(args, key) for key in keys.split()})
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
