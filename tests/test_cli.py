import argparse
import contextlib
import hashlib
import io
import itertools
import math
import re
import shlex
import sys
import warnings
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dpspesa import array_model, beamformers, cli, dps_quantize, experiments
from dpspesa.array_model import ArrayConfig, beampattern_trace, steering_vector
from dpspesa.experiments import DEFAULT_GAMMA

GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_golden.csv"


def run_cli(args):
    try:
        return cli.main(args)
    except SystemExit as exc:  # argparse usage failures
        return exc.code


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines():
        key, value = line.split("=", 1)
        out[key] = value
    return out


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == len(header) for r in rows)
    return header, rows


def test_pattern_steering(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["pattern", "--beamformer=steering", "--desired=0",
                    f"--out={out}"]) == 0
    header, rows = read_csv(out / "pattern.csv")
    assert header == ["angle_deg", "power_linear", "power_db"]
    assert len(rows) == 1801
    db = np.array([float(r[2]) for r in rows])
    assert db.max() == 0.0 and db.min() >= -80.0
    angles = np.array([float(r[0]) for r in rows])
    assert abs(angles[np.argmax(db)]) <= 0.1
    assert (out / "pattern.csv").read_text().endswith("\n")


def test_pattern_other_sources(tmp_path):
    for i, flags in enumerate((
        ["--beamformer=mvdr", "--targets=-47,30,49", "--desired=49",
         "--gamma=0.1"],
        ["--beamformer=dps", "--targets=-47,30,49", "--desired=49"],
        ["--beamformer=pesa-quantized", "--desired=49"],
    )):
        out = tmp_path / f"p{i}"
        assert run_cli(["pattern", *flags, f"--out={out}"]) == 0
        _, rows = read_csv(out / "pattern.csv")
        assert len(rows) == 1801


def test_pattern_steering_matches_single_reference(tmp_path):
    # One sampler: the CLI pattern and the experiment reference trace of the
    # same steering beamformer are the same bytes.
    for targets in ("37", "-62.5"):
        pattern, single = tmp_path / f"p{targets}", tmp_path / f"s{targets}"
        assert run_cli(["pattern", "--beamformer=steering",
                        f"--targets={targets}", f"--out={pattern}"]) == 0
        assert run_cli(["single", f"--targets={targets}",
                        f"--out={single}"]) == 0
        assert ((pattern / "pattern.csv").read_bytes()
                == (single / "reference.csv").read_bytes())


def test_pattern_rejects_unknown_beamformer(tmp_path, capsys):
    cfg = tmp_path / "magic.cfg"
    cfg.write_text("beamformer=magic\n")
    out = tmp_path / "out"
    for source in ("--beamformer=magic", f"--config={cfg}"):
        assert run_cli(["pattern", source, f"--out={out}"]) == 2
        assert capsys.readouterr().err == \
            "usage error: unknown beamformer 'magic'\n"
        assert not out.exists()


def test_single_outputs_and_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["single", "--targets=37", "--seed=9"]
    assert run_cli([*args, f"--out={out1}"]) == 0
    assert run_cli([*args, f"--out={out2}"]) == 0
    for name in ("reference.csv", "dps.csv", "pesa.csv", "summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    summary = read_summary(out1 / "summary.txt")
    assert {"rms_dps_db", "rms_pesa_db"} <= set(summary)
    assert float(summary["rms_dps_db"]) <= float(summary["rms_pesa_db"])


def test_single_fine_grid_error_vanishes(tmp_path):
    out = tmp_path / "fine"
    assert run_cli(["single", "--targets=37", "--bits=16",
                    f"--out={out}"]) == 0
    summary = read_summary(out / "summary.txt")
    assert float(summary["rms_dps_db"]) < 0.1


def test_single_seed_env_override(tmp_path, monkeypatch):
    out_env, out_flag, out_both = (tmp_path / d for d in ("e", "f", "g"))
    monkeypatch.setenv("DPS_SEED", "987")
    assert run_cli(["single", f"--out={out_env}"]) == 0
    monkeypatch.delenv("DPS_SEED")
    assert run_cli(["single", "--seed=987", f"--out={out_flag}"]) == 0
    summary_env = read_summary(out_env / "summary.txt")
    summary_flag = read_summary(out_flag / "summary.txt")
    assert summary_env["target_deg"] == summary_flag["target_deg"]
    # An explicit flag wins over the environment default.
    monkeypatch.setenv("DPS_SEED", "987")
    assert run_cli(["single", "--seed=1", f"--out={out_both}"]) == 0
    assert read_summary(out_both / "summary.txt")["seed"] == "1"


def test_clutter_reference_scenario(tmp_path):
    out = tmp_path / "c"
    assert run_cli(["clutter", "--targets=-47,30,49", "--desired=49",
                    "--gamma=0.1", "--bits=4", "-L", "3",
                    f"--out={out}"]) == 0
    summary = read_summary(out / "summary.txt")
    assert float(summary["dps_db_at_-47"]) <= -32.0
    assert float(summary["dps_db_at_30"]) <= -32.0
    header, rows = read_csv(out / "reference.csv")
    db = np.array([float(r[2]) for r in rows])
    angles = np.array([float(r[0]) for r in rows])
    assert abs(angles[np.argmax(db)] - 49.0) <= 0.1


# summary.txt text and trace-CSV SHA-256 digests of one single and one
# clutter call, recorded before both experiments scored from levels_db.
PINNED_TRIALS = {
    ("single", "--targets=37", "--seed=9"): (
        "target_deg=37\nbits=4\ncandidates=3\nnorm_target=2\nseed=9\n"
        "rms_dps_db=3.93198802\nrms_pesa_db=5.90295414\n",
        {
            "reference.csv": "b205d3d45fdc593cef5bd85b5238ec30"
                             "05dd243e1e9d231b8856a57b34523f92",
            "dps.csv": "899123428cca9e8a17958b4f374d94e5"
                       "0e48b7577eee627ec45e06824cdb6c22",
            "pesa.csv": "1080ec1729c2ab58cedcc1d0229293be"
                        "c7860dcfaf28d40f62ae6fada5cf940e",
        },
    ),
    ("clutter", "--targets=-47,30,49", "--desired=49", "--gamma=0.1",
     "--bits=4", "-L", "3"): (
        "targets_deg=-47,30,49\ndesired_deg=49\ngamma=0.1\nbits=4\n"
        "candidates=3\nnorm_target=2\nrms_dps_db=26.3385565\n"
        "rms_pesa_db=36.0210357\n"
        "reference_db_at_-47=-74.8347441\ndps_db_at_-47=-36.3763807\n"
        "pesa_db_at_-47=-40.5263918\n"
        "reference_db_at_30=-78.9851959\ndps_db_at_30=-54.4472058\n"
        "pesa_db_at_30=-26.8749089\n"
        "reference_db_at_49=0\ndps_db_at_49=-0.000916218855\n"
        "pesa_db_at_49=0\n",
        {
            "reference.csv": "07b5d9789e6c286afb8ad54ab9e956af"
                             "ba40c999914ce5aa3d352676d63f06f1",
            "dps.csv": "d7227da510c241eab7c908a7dbac40ac"
                       "dbf4bd417923230ccdc44e30c2b494e4",
            "pesa.csv": "8e43af4743feedef00ca04e733aa7649"
                        "16c835e76dbefbe6af32a3370e1e426b",
        },
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_TRIALS), ids=lambda a: a[0])
def test_trial_outputs_match_pinned_bytes(argv, tmp_path):
    summary, digests = PINNED_TRIALS[argv]
    assert run_cli([*argv, f"--out={tmp_path}"]) == 0
    assert (tmp_path / "summary.txt").read_bytes() == summary.encode()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest


# pattern.csv SHA-256 digests, recorded before the trace writer formatted
# each file in one operation.  The last case samples a second grid in the
# same process.
PINNED_PATTERNS = {
    ("--beamformer=steering", "--desired=30"):
        "b812cabbea3d474fde04d7f59d381c4d1c1469c88f11837e94ddb70c191984c9",
    ("--beamformer=mvdr", "--targets=-47,30,49", "--desired=49"):
        "07b5d9789e6c286afb8ad54ab9e956afba40c999914ce5aa3d352676d63f06f1",
    ("--beamformer=dps", "--targets=-47,30,49", "--desired=49", "--bits=3"):
        "f87e01ae065c64f9bec974d6bf0376e86c079e24715b7ed6677f2ee6bb98179b",
    ("--beamformer=pesa-quantized", "--desired=-20", "--bits=2"):
        "4e54b5517f42114ff0c5f614554384636ff039a4ca246c196373af3355cd976c",
    ("--beamformer=dps", "--desired=12.5", "--antennas=8", "--grid-step=0.2"):
        "1f653afa24364a02466d50f803057281b299df530e456055f9a1914d3d790891",
}


@pytest.mark.parametrize(
    "argv", list(PINNED_PATTERNS),
    ids=["steering", "mvdr", "dps", "pesa-quantized", "dps-8-antennas-0.2deg"])
def test_pattern_csv_matches_pinned_bytes(argv, tmp_path):
    assert run_cli(["pattern", *argv, f"--out={tmp_path}"]) == 0
    assert hashlib.sha256((tmp_path / "pattern.csv").read_bytes()).hexdigest() \
        == PINNED_PATTERNS[argv]


def test_cached_parser_keeps_no_state_between_calls(tmp_path, capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("targets=-47,30,49\ndesired=49\ngamma=0.5\nbits=3\n")
    from_config = ("clutter", f"--config={cfg}", "--antennas=8")
    inline = ("clutter", "--targets=-20,10", "--desired=10", "-L", "2")

    def call(argv, out):
        code = run_cli([*argv, f"--out={out}"])
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        return code, capsys.readouterr().out, files

    first = {argv: call(argv, tmp_path / f"a{i}")
             for i, argv in enumerate((inline, from_config))}
    second = {argv: call(argv, tmp_path / f"b{i}")
              for i, argv in enumerate((from_config, inline))}
    assert first == second
    assert cli.build_parser() is cli.build_parser()
    # Neither call's file or flag values reach the other.
    summary = read_summary(tmp_path / "b1" / "summary.txt")
    assert (summary["gamma"], summary["bits"], summary["candidates"]) == \
        ("0.1", "4", "2")
    summary = read_summary(tmp_path / "a1" / "summary.txt")
    assert (summary["gamma"], summary["bits"], summary["candidates"]) == \
        ("0.5", "3", "3")


def test_clutter_usage_errors(tmp_path):
    assert run_cli(["clutter", f"--out={tmp_path}"]) == 2
    assert run_cli(["clutter", "--targets=-47,30,49", "--desired=10",
                    f"--out={tmp_path}"]) == 2
    assert run_cli(["clutter", "--targets=-47,30,49",
                    f"--out={tmp_path}"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["single", "--targets=10,20"],
     "single-target run requires exactly one target"),
    (["clutter"], "clutter run requires at least two targets"),
    (["clutter", "--targets=10"], "clutter run requires at least two targets"),
    # The count is refused before the desired angle is looked up.
    (["clutter", "--desired=10"], "clutter run requires at least two targets"),
    (["clutter", "--targets=10", "--desired=20"],
     "clutter run requires at least two targets"),
], ids=["single-two-targets", "clutter-no-targets", "clutter-one-target",
        "clutter-no-targets-desired", "clutter-one-target-desired-elsewhere"])
def test_target_counts_are_checked_by_the_experiments(argv, message, tmp_path,
                                                      capsys):
    assert run_cli([*argv, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, shown", [
    (["single", "--targets=95"], "95"),
    (["clutter", "--targets=-47,30,95", "--desired=30"], "95"),
    (["pattern", "--desired=-100"], "-100"),
    (["pattern", "--beamformer=mvdr", "--targets=10,90.5", "--desired=10"],
     "90.5"),
    (["single", "--targets=nan"], "nan"),
    # Beamformers that use only the desired target still check the others.
    (["pattern", "--beamformer=steering", "--targets=95,10", "--desired=10"],
     "95"),
    (["pattern", "--beamformer=pesa-quantized", "--targets=95,10",
      "--desired=10"], "95"),
], ids=["single", "clutter", "pattern", "pattern-mvdr", "single-nan",
        "pattern-steering-other-target", "pattern-pesa-quantized-other-target"])
def test_out_of_range_angles_are_reported_in_degrees(argv, shown, tmp_path,
                                                     capsys):
    assert run_cli([*argv, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == (
        "usage error: angles must be finite and lie in [-90, 90] degrees, "
        f"got {shown}\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("targets, message", [
    ("10,10", "target angles must be pairwise distinct"),
    ("nan,10", "angles must be finite and lie in [-90, 90] degrees, got nan"),
], ids=["repeated", "nan"])
@pytest.mark.parametrize("beamformer",
                         ["steering", "mvdr", "dps", "pesa-quantized"])
def test_pattern_checks_every_target_for_every_beamformer(
        beamformer, targets, message, tmp_path, capsys):
    assert run_cli(["pattern", f"--beamformer={beamformer}",
                    f"--targets={targets}", "--desired=10",
                    f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_infinite_spacing_is_rejected_by_every_subcommand(tmp_path, capsys):
    for argv in (["pattern"], ["single", "--targets=10"],
                 ["clutter", "--targets=-47,30,49", "--desired=49"],
                 ["sweep", "--bits=2", "--trials=1"]):
        assert run_cli([*argv, "--spacing=inf", f"--out={tmp_path}"]) == 2
        assert capsys.readouterr().err == \
            "usage error: spacing_wavelengths must be finite\n"
        assert not any(tmp_path.iterdir())


INFINITE = "gamma must be finite, got inf"
NON_POSITIVE = "gamma must be strictly positive when present"


@pytest.mark.parametrize("argv, gamma, message", [
    pytest.param(["clutter", "--targets=-47,30,49", "--desired=49"], "inf",
                 INFINITE, id="clutter"),
    pytest.param(["sweep", "--bits=2", "--trials=1"], "inf", INFINITE,
                 id="sweep"),
    pytest.param(["pattern", "--beamformer=mvdr", "--targets=-47,30,49",
                  "--desired=49"], "inf", INFINITE, id="pattern"),
    # Steering and pesa-quantized ignore gamma, but a bad one is still an
    # error for every beamformer.
    *(pytest.param(["pattern", f"--beamformer={beamformer}"], gamma, message,
                   id=f"pattern-{beamformer}{suffix}")
      for beamformer in ("steering", "mvdr", "dps", "pesa-quantized")
      for gamma, message, suffix in (("inf", INFINITE, ""),
                                     ("-1", NON_POSITIVE, "-negative"))
      if (beamformer, gamma) != ("mvdr", "inf")),
])
def test_infinite_gamma_is_a_usage_error(argv, gamma, message, tmp_path,
                                         capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning on the way
        assert run_cli([*argv, f"--gamma={gamma}", f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_candidate_search_bound_exits_2_before_writing(monkeypatch, tmp_path,
                                                      capsys):
    # 11^2 pairs per weight against a lowered bound: no candidate is ranked.
    monkeypatch.setattr(dps_quantize, "MAX_GRID_ENTRIES", 100)
    monkeypatch.setattr(dps_quantize, "_nearest", None)
    assert run_cli(["pattern", "--beamformer=dps", "--bits=4", "-L", "11",
                    f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == (
        "usage error: a candidate search with 11 candidates per phase "
        "builds 11^2 pairs per weight, more than 100; use fewer "
        "candidates\n")
    assert not any(tmp_path.iterdir())


def test_clutter_ill_conditioned_solve(tmp_path, capsys):
    assert run_cli(["clutter", "--targets=-47,30,49", "--desired=49",
                    "--gamma=1e-30", f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == (
        "ill-conditioned solve (4-th leading minor of the array is not "
        "positive definite); increase --gamma\n")
    # The sweep solves a block of trials at once; a failing solve still ends
    # the run the same way, before anything is written.
    out = tmp_path / "sweep"
    assert run_cli(["sweep", "--bits=2", "--trials=3", "--gamma=1e-30",
                    f"--out={out}"]) == 2
    err = capsys.readouterr().err
    assert "ill-conditioned solve" in err and "usage error" not in err
    assert not out.exists()


def test_a_warning_prints_as_one_line_without_its_source(tmp_path, capsys):
    # Three targets on one antenna exceed its degrees of freedom: the run
    # succeeds and writes the files it always wrote, and the warning is one
    # line that does not name the file or line that raised it.
    assert run_cli(["clutter", "--antennas=1", "--targets=-47,30,49",
                    "--desired=49", f"--out={tmp_path}"]) == 0
    assert capsys.readouterr().err == (
        "warning: nulling 3 targets with only 1 antennas exceeds the array's "
        "degrees of freedom\n")
    digests = {  # recorded before warnings were printed as one line
        "summary.txt": "f3a4b7600ad1215607bb02c34883e762"
                       "21b1574dfee79aea1fc6e3b1e126a554",
        "reference.csv": "b7e42bbfa0908fabe88130f9e76af4c1"
                         "dc964dcc1c3fc4be5a28764ab45abe3c",
        "dps.csv": "08a650c7c9d5b9647124a94334b27b2c"
                   "fc2aeaee7baacbb36032e15d3f5b224d",
        "pesa.csv": "95fc73d9264e46057d32af860700c60a"
                    "c6e447c128462c4147404809e4452438",
    }
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() \
            == digest


def test_sweep_csv_layout(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sweep", "--bits=2:12", "--norms=1,1.5,2", "--trials=2",
                    "--seed=3", f"--out={out}"]) == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["bits", "norm_target", "mean_rms_dps_db",
                      "mean_rms_pesa_db", "trials"]
    assert len(rows) == 33
    assert all(r[4] == "2" for r in rows)


def test_sweep_norm_two_wins_and_error_decreases(tmp_path):
    out = tmp_path / "s"
    assert run_cli(["sweep", "--bits=2:12", "--norms=1,2", "--trials=10",
                    "--seed=3", f"--out={out}"]) == 0
    _, rows = read_csv(out / "sweep.csv")
    table = {(int(r[0]), float(r[1])): float(r[2]) for r in rows}
    for bits in range(2, 13):
        assert table[(bits, 2.0)] <= table[(bits, 1.0)]
    assert table[(12, 2.0)] < table[(2, 2.0)]


def test_sweep_deterministic_across_workers(tmp_path):
    outs = [tmp_path / f"w{i}" for i in range(3)]
    base = ["sweep", "--bits=2:5", "--norms=1,2", "--trials=8", "--seed=42"]
    assert run_cli([*base, "--workers=1", f"--out={outs[0]}"]) == 0
    assert run_cli([*base, "--workers=1", f"--out={outs[1]}"]) == 0
    assert run_cli([*base, "--workers=2", f"--out={outs[2]}"]) == 0
    ref = (outs[0] / "sweep.csv").read_bytes()
    assert (outs[1] / "sweep.csv").read_bytes() == ref
    assert (outs[2] / "sweep.csv").read_bytes() == ref


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_matches_golden_csv(tmp_path, workers):
    # Recorded before the quantizer became one batched kernel.
    assert run_cli(["sweep", "--bits=2:12", "--norms=1,1.5,2", "--trials=20",
                    "--seed=20250810", f"--workers={workers}",
                    f"--out={tmp_path}"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == GOLDEN_SWEEP.read_bytes()


def test_trace_csv_rows_match_per_value_formatting(tmp_path):
    # The written bytes, not decoded text: universal newlines would hide a
    # "\r\n".
    cfg = ArrayConfig(16, 0.5)
    traces = [
        beampattern_trace(cfg, steering_vector(cfg, 0.3), 0.1, -20.0),
        beampattern_trace(cfg, np.zeros(16), 0.5, -80.0),  # floor everywhere
        beampattern_trace(ArrayConfig(2, 0.5), [1.0, 1.0], 0.1, -300.0),
    ]
    stacked = beampattern_trace(cfg, [steering_vector(cfg, 0.3), np.zeros(16)],
                                0.5, -80.0)

    def want(angles, linear, db):
        return ("angle_deg,power_linear,power_db\n" + "".join(
            f"{format(float(a), '.9g')},{format(float(p), '.9g')},"
            f"{format(float(d), '.9g')}\n"
            for a, p, d in zip(angles, linear, db)
        )).encode("ascii")

    written = []
    for trace in traces:
        assert (trace.power_db == trace.floor_db).any()
        cli._write_traces(str(tmp_path), trace, ["t.csv"])
        written.append((tmp_path / "t.csv").read_bytes())
        assert written[-1] == want(trace.angles_deg, trace.power_linear,
                                   trace.power_db)
    # Some power is printed in exponent notation.
    assert any(b"e" in field for data in written
               for row in data.splitlines()[1:]
               for field in row.split(b",")[1:])
    # Row i of a stack goes to the i-th file.
    cli._write_traces(str(tmp_path), stacked, ["a.csv", "b.csv"])
    for name, linear, db in zip(("a.csv", "b.csv"), stacked.power_linear,
                                stacked.power_db):
        assert (tmp_path / name).read_bytes() == want(stacked.angles_deg,
                                                      linear, db)
    with pytest.raises(ValueError):
        cli._write_traces(str(tmp_path), stacked, ["a.csv"])


def test_sweep_rejects_bad_bits(tmp_path):
    assert run_cli(["sweep", "--bits=5:2", f"--out={tmp_path}"]) == 2
    assert run_cli(["sweep", "--bits=x", f"--out={tmp_path}"]) == 2


def test_oracle_check_passes_small_grids(capsys):
    assert run_cli(["oracle-check", "--bits=2", "--trials=64",
                    "--seed=1"]) == 0
    assert "passed" in capsys.readouterr().out


def test_oracle_check_refuses_large_bits():
    assert run_cli(["oracle-check", "--bits=13"]) == 2
    assert run_cli(["oracle-check", "--bits=5"]) == 2


# SHA-256 of `oracle-check` stdout, keyed by (bits, trials, seed).  A
# passing run prints one line, so these pin its format and count; the forced
# mismatch runs below print every weight, so they pin the draws, their
# order across the stacked blocks and each block's normalization.
ORACLE_CHECK_STDOUT = {
    (1, 37, 1): "72e7c25ae0c64ef3d6bfddada55304a4600a5530363b037177a5eecb6872ed1d",
    (1, 37, 7): "72e7c25ae0c64ef3d6bfddada55304a4600a5530363b037177a5eecb6872ed1d",
    (1, 64, 1): "2c3e41c0095c2c8365dc4d66e49c830c5f9584879373a7fc14feb01531948f11",
    (1, 64, 7): "2c3e41c0095c2c8365dc4d66e49c830c5f9584879373a7fc14feb01531948f11",
    (2, 37, 1): "7da18941390845fd60c1be9e7d68798143c5f30788911bbe8090e614e2b3f519",
    (2, 37, 7): "7da18941390845fd60c1be9e7d68798143c5f30788911bbe8090e614e2b3f519",
    (2, 64, 1): "4bdea5189448631970f20e800a468ab0a401467cd7de9742381644a729c650fc",
    (2, 64, 7): "4bdea5189448631970f20e800a468ab0a401467cd7de9742381644a729c650fc",
    (3, 37, 1): "c6185a14f1f613b92a7ec10bf9822f42aaabdb199d314920d4b770a0a2851aa7",
    (3, 37, 7): "c6185a14f1f613b92a7ec10bf9822f42aaabdb199d314920d4b770a0a2851aa7",
    (3, 64, 1): "54b4b943a08e2f252ea9f4ef5c3274f160ba3a8c766cd271191e3538f882d961",
    (3, 64, 7): "54b4b943a08e2f252ea9f4ef5c3274f160ba3a8c766cd271191e3538f882d961",
    (4, 37, 1): "f6402e29ab5c936e1761aa7b7fd4ae66e127db9a7dd993efe7ca1315ed2ba073",
    (4, 37, 7): "f6402e29ab5c936e1761aa7b7fd4ae66e127db9a7dd993efe7ca1315ed2ba073",
    (4, 64, 1): "9aafbb60ef22d19df6367ed25c3678724f81a3445145c2c9a28770e306bc943e",
    (4, 64, 7): "9aafbb60ef22d19df6367ed25c3678724f81a3445145c2c9a28770e306bc943e",
}
# The same with an oracle that answers (0, 0) for every weight, --seed=1;
# 1100 weights are 68 full blocks, more than one call holds, and 12 more.
FORCED_MISMATCH_STDOUT = {
    (1, 37): "d7af0491e39c7c188721beb2f08deb84a57954f7d167a6ff4aec517f02068ee2",
    (1, 1100): "d18c05ba1cab8c79c3408abd52129dc65a3355a63e0c9fb6731285668836d8c1",
    (2, 37): "01522363687c6d45574ef37ef7e215a12eb4c66875614960ea66469c630a668a",
    (2, 1100): "53570b6ae6f1b9545e46a57ffe30c8719a23c2bf732a0621f3e76b921850e04e",
}
FORCED_MISMATCH_BITS2_TRIALS8 = """\
mismatch: w=(-1.3969683062519607-0.4499628951700677j) search pair=(2, 3) err=0.6783248873941189 oracle pair=(0, 0) err=3.4266397944210807
mismatch: w=(0.017191755148820077-0.7787144274453947j) search pair=(1, 3) err=0.7789041763636306 oracle pair=(0, 0) err=2.130240525236863
mismatch: w=(-1.9409816273447096-0.47429432330365007j) search pair=(2, 2) err=0.47795216646537575 oracle pair=(0, 0) err=3.9694195157713703
mismatch: w=(-0.5501902774360581+1.0048007968484105j) search pair=(1, 2) err=0.4498353411676655 oracle pair=(0, 0) err=2.741002570680407
mismatch: w=(0.31915920839970646-1.2960304674368406j) search pair=(0, 3) err=0.7424137802854877 oracle pair=(0, 0) err=2.122479856025036
mismatch: w=(-0.6122550681612521+1.7630958708877709j) search pair=(1, 1) err=0.6564905443946343 oracle pair=(0, 0) err=3.151568433506665
mismatch: w=(-1.2566716139961966+0.3779942138386162j) search pair=(1, 2) err=0.672882987933009 oracle pair=(0, 0) err=3.278534676818909
oracle check FAILED: 7/8 mismatches
"""


def _zero_oracle(c, grid):
    return np.zeros(np.shape(c) + (2,), int)


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(ORACLE_CHECK_STDOUT))
def test_oracle_check_stdout_is_pinned(key, capsys):
    bits, trials, seed = key
    assert run_cli(["oracle-check", f"--bits={bits}", f"--trials={trials}",
                    f"--seed={seed}"]) == 0
    assert _sha256(capsys.readouterr().out) == ORACLE_CHECK_STDOUT[key]


def test_oracle_check_reports_mismatch(monkeypatch, capsys):
    # Force a wrong oracle answer to exercise the mismatch exit path.
    monkeypatch.setattr(dps_quantize, "exhaustive_oracle", _zero_oracle)
    assert run_cli(["oracle-check", "--bits=2", "--trials=8",
                    "--seed=1"]) == 3
    out = capsys.readouterr().out
    assert "mismatch" in out
    # Python scalars, not numpy reprs such as np.int64(0).
    assert "np." not in out
    assert out == FORCED_MISMATCH_BITS2_TRIALS8
    for (bits, trials), digest in FORCED_MISMATCH_STDOUT.items():
        assert run_cli(["oracle-check", f"--bits={bits}",
                        f"--trials={trials}", "--seed=1"]) == 3
        assert _sha256(capsys.readouterr().out) == digest


def test_oracle_check_reports_a_mirrored_pair(monkeypatch, capsys):
    # (j, i) realizes the same sum as (i, j), so only the pair tells them
    # apart; every off-diagonal pick must still be reported.
    real = dps_quantize.exhaustive_oracle
    monkeypatch.setattr(dps_quantize, "exhaustive_oracle",
                        lambda c, grid: real(c, grid)[..., ::-1])
    assert run_cli(["oracle-check", "--bits=2", "--trials=40",
                    "--seed=1"]) == 3
    *lines, summary = capsys.readouterr().out.splitlines()
    assert lines and summary == f"oracle check FAILED: {len(lines)}/40 mismatches"
    pattern = re.compile(r"mismatch: w=\S+ search pair=\((\d+), (\d+)\) "
                         r"err=(\S+) oracle pair=\((\d+), (\d+)\) err=(\S+)")
    for line in lines:
        i, j, err, oracle_i, oracle_j, oracle_err = pattern.fullmatch(
            line).groups()
        assert i != j and (oracle_i, oracle_j) == (j, i)
        assert oracle_err == err


@pytest.mark.parametrize("trials", [
    1, 15, 16, 17, cli.ORACLE_CHECK_MAX_BLOCKS * 16 + 1,
    cli.ORACLE_CHECK_MAX_BLOCKS * 16 + 17,  # one full block over the cap
])
def test_oracle_check_memory_does_not_grow_with_trials(monkeypatch, capsys,
                                                      trials):
    shapes = []

    def recording(w, grid):
        shapes.append(np.shape(w))
        return dps_quantize.oracle_mismatches(w, grid)

    monkeypatch.setattr(cli, "oracle_mismatches", recording)
    assert run_cli(["oracle-check", "--bits=2", f"--trials={trials}",
                    "--seed=3"]) == 0
    assert f"passed: {trials} weights" in capsys.readouterr().out
    counts = [math.prod(shape) for shape in shapes]
    assert max(counts) <= cli.ORACLE_CHECK_MAX_BLOCKS * 16
    assert sum(counts) == trials
    # Full blocks are rows of 16, each normalized on its own along the last
    # axis; a last partial block is checked, and normalized, alone.
    full, rest = divmod(trials, 16)
    assert all(shape[-1] == 16 for shape in shapes[:len(shapes) - bool(rest)])
    if rest:
        assert shapes[-1][-1] == rest == counts[-1]


@pytest.mark.parametrize("argv", [
    ["pattern", "--beamformer=mvdr", "--targets=-20,30", "--desired=30"],
    ["single", "--targets=10"],
    ["clutter", "--targets=-47,30,49", "--desired=49"],
    ["sweep", "--bits=2", "--trials=1"],
])
def test_grid_bound_is_checked_before_any_solve(argv, monkeypatch, tmp_path,
                                                capsys):
    # A lowered bound stands in for a huge --antennas: the command must stop
    # on it before building a steering vector or solving MVDR.
    monkeypatch.setattr(array_model, "MAX_GRID_ENTRIES", 100)

    def forbidden(*args, **kwargs):
        raise AssertionError("called before the grid bound was checked")

    for module in (cli, experiments):
        monkeypatch.setattr(module, "steering_vector", forbidden)
        monkeypatch.setattr(module, "mvdr_beamformer", forbidden)
    assert run_cli(argv + ["--grid-step=1", f"--out={tmp_path}"]) == 2
    assert "steering-matrix entries" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_mvdr_bound_exits_2_before_writing(monkeypatch, tmp_path, capsys):
    # 9 antennas on a 3-point grid pass the steering-matrix bound; the
    # lowered N x N bound of the MVDR solve stops the run.
    monkeypatch.setattr(beamformers, "MAX_GRID_ENTRIES", 64)
    for argv in (["clutter", "--targets=-47,30,49", "--desired=49"],
                 ["pattern", "--beamformer=mvdr", "--targets=-20,30",
                  "--desired=30"],
                 ["sweep", "--bits=2", "--trials=1"]):
        assert run_cli(argv + ["--antennas=9", "--grid-step=90",
                               f"--out={tmp_path}"]) == 2
        assert "9 x 9 MVDR matrix exceeds 64" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def test_an_oversized_mvdr_sweep_exits_2_before_any_draw(monkeypatch,
                                                         tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("drew targets before the MVDR bound was checked")

    monkeypatch.setattr(experiments, "draw_target_angles", forbidden)
    assert run_cli(["sweep", "--antennas=2100", "--grid-step=1",
                    f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == (
        "usage error: a 2100 x 2100 MVDR matrix exceeds 4194304 entries; "
        "use fewer antennas\n")
    assert not any(tmp_path.iterdir())


def test_oracle_check_rejects_non_positive_trials(capsys):
    for trials in ("0", "-3"):
        assert run_cli(["oracle-check", "--bits=2", f"--trials={trials}"]) == 2
        captured = capsys.readouterr()
        assert "--trials >= 1" in captured.err
        assert "passed" not in captured.out


def test_defaults_table_resolves_per_subcommand(monkeypatch):
    monkeypatch.delenv("DPS_SEED", raising=False)

    def resolved(command, key):
        args = argparse.Namespace(command=command, _config_values={})
        return cli._resolve(args, key)

    # Each subcommand's default goes through that subcommand's parser.
    assert resolved("sweep", "bits") == tuple(range(2, 13))
    assert resolved("sweep", "trials") == 200
    assert resolved("oracle-check", "trials") == 1000
    for command in ("sweep", "clutter"):
        assert resolved(command, "gamma") == DEFAULT_GAMMA
    assert resolved("pattern", "gamma") is None
    assert resolved("clutter", "bits") == 4
    assert resolved("sweep", "norms") == (1.0, 1.5, 2.0)
    for command in ("pattern", "single", "clutter", "sweep", "oracle-check"):
        assert resolved(command, "seed") == 0


def _offered(command):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    return [a.dest for a in sub._actions if a.dest not in ("help", "config")]


def test_defaults_table_keys_are_the_flags():
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    assert list(subparsers) == list(cli.COMMANDS)
    dests = set()
    for command, entry in cli.COMMANDS.items():
        keys = entry.keys.split()
        assert _offered(command) == keys
        dests |= set(keys)
        # An override names a key the subcommand reads and only fields
        # that differ from `FLAGS`.
        for key, fields in entry.overrides.items():
            assert key in keys and fields
            for field, value in fields.items():
                assert getattr(cli.FLAGS[key], field) != value
    assert dests == set(cli.FLAGS)


# A small valid invocation of each subcommand; `_tiny` adds `--out`.
TINY = {
    "pattern": ["pattern", "--antennas=4", "--grid-step=1"],
    "single": ["single", "--antennas=4", "--grid-step=1"],
    "clutter": ["clutter", "--antennas=4", "--grid-step=1",
                "--targets=-47,30,49", "--desired=49"],
    "sweep": ["sweep", "--antennas=4", "--grid-step=1", "--bits=2",
              "--trials=1"],
    "oracle-check": ["oracle-check", "--bits=2", "--trials=16"],
}


def _tiny(command, out):
    argv = TINY[command]
    return argv if command == "oracle-check" else [*argv, f"--out={out}"]


@pytest.mark.parametrize("command", sorted(TINY))
def test_every_offered_flag_is_read(command, monkeypatch, tmp_path):
    read = set()
    resolve = cli._resolve

    def spy(args, key):
        read.add(key)
        return resolve(args, key)

    monkeypatch.setattr(cli, "_resolve", spy)
    assert run_cli(_tiny(command, tmp_path)) == 0
    assert read == set(_offered(command))


class _ReadLog(dict):
    """A dict that records each key read by ``[]`` or ``get``."""

    def __init__(self, values, read):
        super().__init__(values)
        self.read = read

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(TINY))
def test_every_resolved_value_is_read(command, monkeypatch, tmp_path):
    # `main` resolves every offered key; each handler must read each one.
    read = set()
    entry = cli.COMMANDS[command]

    def handler(values):
        return entry.handler(_ReadLog(values, read))

    monkeypatch.setitem(cli.COMMANDS, command, entry._replace(handler=handler))
    assert run_cli(_tiny(command, tmp_path)) == 0
    assert read == set(_offered(command))


@pytest.mark.parametrize("argv, error", [
    (["oracle-check", "--bits=9", "--trials=x"], "invalid value for --trials: 'x'"),
    (["pattern", "--beamformer=magic", "--gamma=x"],
     "invalid value for --gamma: 'x'"),
    (["pattern", "--antennas=0", "--grid-step=x"],
     "invalid value for --grid-step: 'x'"),
    (["clutter", "--targets=5", "--gamma=x"], "invalid value for --gamma: 'x'"),
])
def test_values_are_parsed_before_any_check(argv, error, tmp_path, capsys):
    # Each argv also holds a value that a handler refuses; the parse error
    # is reported first.
    out = tmp_path / "out"
    if argv[0] != "oracle-check":
        argv = [*argv, f"--out={out}"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("floor", ["-inf", "inf"])
@pytest.mark.parametrize("command", ["pattern", "single", "clutter", "sweep"])
def test_non_finite_floor_is_refused_before_any_write(command, floor, tmp_path,
                                                      capsys):
    out = tmp_path / "out"
    assert run_cli([*_tiny(command, out), f"--floor-db={floor}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: floor_db must be")
    assert not out.exists()


CLUTTER = ["clutter", "--targets=-47,30,49", "--desired=49"]
SWEEP = ["sweep", "--trials=4"]


def _refused(argv, error, out, capsys):
    """``argv`` writing to ``out`` exits 2 with the one stderr line
    ``usage error: <error>``, and writes nothing."""
    assert run_cli([*argv, f"--out={out}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    *(pytest.param([*argv, *flag.split()], error, id=f"{argv[0]} {flag}")
      for argv, flag, error in (
          (CLUTTER, "--bits=0", "bits must be in [1, 20]"),
          (CLUTTER, "-L 0", "candidates must be a positive integer"),
          (CLUTTER, "--norm=3", "norm target must lie in (0, 2], got 3"),
          # Printed to 17 digits, so a value just above 2 is not rounded
          # back into range.
          (CLUTTER, "--norm=2.0000001",
           "norm target must lie in (0, 2], got 2.0000000999999998"),
          (CLUTTER, "--floor-db=5", "floor_db must be negative"),
          (SWEEP, "-L 0", "candidates must be a positive integer"),
          (SWEEP, "--floor-db=5", "floor_db must be negative"),
          (SWEEP, "--norms=3", "norm target must lie in (0, 2], got 3"),
          (SWEEP, "--workers=0", "workers must be >= 1"),
          (SWEEP, "--workers=-1", "workers must be >= 1"))),
])
def test_scenario_values_are_checked_before_any_solve(argv, error, monkeypatch,
                                                      tmp_path, capsys):
    def solve(*args, **kwargs):
        raise AssertionError("the MVDR system was solved or a target drawn")

    monkeypatch.setattr(beamformers, "mvdr_beamformer", solve)
    monkeypatch.setattr(experiments, "mvdr_beamformer", solve)
    monkeypatch.setattr(experiments, "draw_target_angles", solve)
    _refused(argv, error, tmp_path / "out", capsys)


@pytest.mark.parametrize("argv", [
    ["single", "--seed=-1"],
    ["sweep", "--trials=1", "--bits=2", "--seed=-1"],
    ["oracle-check", "--seed=-1"],
], ids=lambda argv: argv[0])
def test_a_negative_seed_is_refused_by_name(argv, monkeypatch, tmp_path,
                                            capsys):
    def block(*args):
        raise AssertionError("a sweep block ran")

    monkeypatch.setattr(experiments, "_sweep_block", block)
    out = tmp_path / "out"
    if argv[0] != "oracle-check":
        argv = [*argv, f"--out={out}"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "usage error: seed must be a non-negative integer, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    (["pattern", "--targets=a,b"],
     "expected comma-separated numbers, got 'a,b'"),
    (["pattern", "--config={cfg}"], "{cfg}:1: expected key=value"),
    (["clutter", "--targets=-47,30,49"],
     "--desired is required when several targets are given"),
    (["clutter", "--targets=-47,30,49", "--desired=20"],
     "--desired=20 is not one of the target angles"),
], ids=["targets-not-numbers", "config-line-without-equals",
        "desired-missing", "desired-not-a-target"])
def test_bad_targets_and_config_lines_are_usage_errors(argv, error, tmp_path,
                                                       capsys):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("bits 4\n")
    _refused([arg.format(cfg=cfg) for arg in argv], error.format(cfg=cfg),
             tmp_path / "out", capsys)


@pytest.mark.parametrize("command, flag", [
    # Flags no handler of the subcommand reads.
    *(("oracle-check", flag) for flag in (
        "--antennas=4", "--spacing=0.5", "-L3", "--norm=2", "--grid-step=1",
        "--floor-db=-80", "--out={out}")),
    ("pattern", "--seed=1"),
    ("clutter", "--seed=1"),
    ("sweep", "--norm=1"),
    # Prefixes of flags the subcommand does read.
    ("sweep", "--wor=1"),
    ("pattern", "--beam=dps"),
    ("oracle-check", "--tri=16"),
])
def test_unread_and_abbreviated_flags_are_rejected(command, flag, tmp_path,
                                                   capsys):
    out = tmp_path / "out"
    assert run_cli([*_tiny(command, out), flag.format(out=out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    *((command, "--bogus=8") for command in sorted(TINY)),
    ("oracle-check", "--antennas=8"),  # a flag of other subcommands
])
def test_unknown_flags_are_reported_with_the_subcommands_usage(command, flag,
                                                               tmp_path,
                                                               capsys):
    out = tmp_path / "out"
    assert run_cli([*_tiny(command, out), flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: dpspesa {command} [-h]")
    assert captured.err.endswith(
        f"dpspesa {command}: error: unrecognized arguments: {flag}\n")
    assert not out.exists()


def test_a_list_starting_negative_needs_the_equals_form(tmp_path, capsys):
    out = tmp_path / "out"
    spaced = ["clutter", "--antennas=4", "--grid-step=1", "--desired", "49",
              f"--out={out}", "--targets", "-47,30,49"]
    assert run_cli(spaced) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --targets: expected one argument" in captured.err
    assert not out.exists()
    # The `=` form takes the list; a lone negative number passes either way.
    assert run_cli([*spaced[:-2], "--targets=-47,30,49"]) == 0
    assert read_summary(out / "summary.txt")["targets_deg"] == "-47,30,49"
    assert run_cli([*spaced[:-2], "--targets=-47,30,49", "--desired",
                    "-47"]) == 0
    assert read_summary(out / "summary.txt")["desired_deg"] == "-47"


@pytest.mark.parametrize("key, source", [
    ("antennas", "flag"), ("antennas", "config"),
    ("seed", "flag"), ("seed", "config"), ("seed", "env"),
])
def test_a_bad_value_reads_the_same_from_every_source(key, source, tmp_path,
                                                      monkeypatch, capsys):
    monkeypatch.delenv("DPS_SEED", raising=False)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key}=x\n")
    if source == "env":
        monkeypatch.setenv("DPS_SEED", "x")
    argv = {"flag": [f"--{key}=x"], "config": [f"--config={cfg}"], "env": []}
    out = tmp_path / "out"
    assert run_cli(["single", *argv[source], f"--out={out}"]) == 2
    assert capsys.readouterr().err == \
        f"usage error: invalid value for --{key}: 'x'\n"
    assert not out.exists()


def test_module_entry_point_runs_in_a_subprocess(fresh_python, tmp_path):
    def run(*argv):
        return fresh_python("-m", "dpspesa.cli", *argv)

    passed = run("oracle-check", "--bits=2", "--trials=16")
    assert (passed.returncode, passed.stderr) == (0, "")
    assert passed.stdout.startswith("oracle check passed")
    refused = run("oracle-check", "-L", "3")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert "unrecognized arguments: -L 3" in refused.stderr
    # Each sweep worker process prints the warning as one whole line.
    warned = run("sweep", "--antennas=2", "--bits=2", "--trials=2",
                 "--workers=2", f"--out={tmp_path / 'sweep'}")
    assert warned.returncode == 0
    assert set(warned.stderr.splitlines(keepends=True)) == {
        "warning: nulling 3 targets with only 2 antennas exceeds the "
        "array's degrees of freedom\n"}


# Runs `main` on the argv after it, then prints its exit code, whether
# scipy's LAPACK extension was loaded, and whether ``scipy.linalg`` and the
# process pool were imported.
_IMPORTS_AFTER_MAIN = (
    "import sys\n"
    "from dpspesa import beamformers, cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print(code, beamformers._lapack.cache_info().currsize == 1,"
    " 'scipy.linalg' in sys.modules,"
    " 'concurrent.futures.process' in sys.modules)\n")


@pytest.mark.parametrize("argv, loads_lapack", [
    (["oracle-check", "--bits=2", "--trials=16"], False),
    (["single", "--out=single"], False),
    (["pattern", "--beamformer=steering", "--out=pattern"], False),
    # Positive controls: the clutter reference is an MVDR solve, and so
    # are the mvdr pattern and each sweep trial.
    (["clutter", "--targets=-47,30,49", "--desired=49", "--out=clutter"], True),
    (["pattern", "--beamformer=mvdr", "--out=pattern"], True),
    (["sweep", "--bits=2", "--trials=2", "--out=sweep"], True),
], ids=["oracle-check", "single", "pattern-steering", "clutter",
        "pattern-mvdr", "sweep"])
def test_only_commands_that_solve_mvdr_import_lapack(argv, loads_lapack,
                                                     fresh_python):
    # None of them imports scipy.linalg: the solve loads only the extension.
    run = fresh_python("-c", _IMPORTS_AFTER_MAIN, *argv)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines()[-1] == f"0 {loads_lapack} False False"


def _help_text(command, capsys):
    assert run_cli([command, "--help"]) == 0
    return " ".join(capsys.readouterr().out.split())  # undo line wrapping


def test_help_shows_each_subcommands_resolved_defaults(capsys):
    sweep = _help_text("sweep", capsys)
    assert "phase shifter bits (default 2:12)" in sweep
    assert "normalization targets (default 1,1.5,2)" in sweep
    assert "trials per combination (default 200)" in sweep
    assert "null-depth regularizer (default 0.1)" in sweep
    assert "phase shifter bits (default 4)" in _help_text("single", capsys)
    oracle = _help_text("oracle-check", capsys)
    assert "random weights to check (default 1000)" in oracle
    assert "RNG seed (default $DPS_SEED or 0)" in oracle
    # Pattern resolves gamma to None and picks its beamformer from that.
    pattern = _help_text("pattern", capsys)
    assert "null-depth regularizer (default" not in pattern
    assert "(default steering)" in pattern


# SHA-256 of the top-level and each subcommand's `--help` text at 80 columns.  argparse lays help out
# differently across Python versions; these are CPython 3.11's.
HELP_SHA256 = {
    "top": "a039a31638bf19ebc24724aa0524f189cf54d61f4c2a99d7d24d9879c15797b4",
    "pattern": "391df2962b63f65fa51d0039917d297e2321497e2d72ea53c443250cfda3e253",
    "single": "3480012426711994159bb90e72bc953bea4a26aa20f63931391ef00445695b30",
    "clutter": "2e1e9fb2a5b3d16fee7b6e77e483dac6eb481f505d93cd17670594c85e892b69",
    "sweep": "c671c2806b5b9b1e20f8e13443acd4a90f92ded2d8eeaef87e4d8a821b94dcab",
    "oracle-check":
        "1bbecebab419ba0f396f50f1bd018fe11d52d8f61483587a06c8f8fe31dbb709",
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="help pins are recorded on CPython 3.11")
@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "top" else [command, "--help"]
    assert run_cli(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode()).hexdigest() == \
        HELP_SHA256[command]


README = Path(__file__).parents[1] / "README.md"


def test_readme_lists_the_flag_tables():
    text = README.read_text(encoding="utf-8")
    count, keys = re.search(r"takes these (\d+) keys.*?:\n\n((?: {4}[^\n]*\n)+)",
                            text, re.S).groups()
    assert int(count) == len(cli.FLAGS)
    assert keys.split() == list(cli.FLAGS)

    def flags(cell):
        return [f.replace("-", "_") for f in re.findall(r"`(?:-L/)?--([a-z-]+)`",
                                                         cell)]

    scenario = flags(re.search(r"share the scenario flags\n(.*?):\n", text,
                               re.S)[1])
    block = re.search(r"\| subcommand \| flags \|\n(.*?)\n\n", text, re.S)[1]
    rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", block, re.M)
    table = {command: (scenario if cell.startswith("scenario, ") else [])
             + flags(cell) for command, cell in rows}
    assert list(table) == list(cli.COMMANDS)
    for command, entry in cli.COMMANDS.items():
        assert sorted(table[command]) == sorted(entry.keys.split())


def test_readme_cli_examples_run(tmp_path, capsys):
    # Every documented command runs as written, with its output moved
    # under a temporary directory.
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("dpspesa ")]
    assert [argv[1] for argv in commands] == list(cli.COMMANDS)
    for _, *argv in commands:
        argv = [arg.replace("--out=", f"--out={tmp_path}/", 1) for arg in argv]
        assert run_cli(argv) == 0, argv
    capsys.readouterr()


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("targets=-47,30,49\ndesired=49\n bitz = 3\n")
    with pytest.raises(cli.UsageError) as info:
        cli._load_config_file(str(cfg))
    assert str(info.value) == f"{cfg}:3: unknown key 'bitz'"
    assert run_cli(["clutter", f"--config={cfg}", f"--out={tmp_path}"]) == 2
    assert "unknown key 'bitz'" in capsys.readouterr().err
    assert not (tmp_path / "summary.txt").exists()


def test_config_file_bits_range_drives_sweep(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("bits=2:4\nnorms=1,2\ngrid-step=0.5\n")
    assert run_cli(["sweep", f"--config={cfg}", "--trials=2",
                    f"--out={tmp_path}"]) == 0
    _, rows = read_csv(tmp_path / "sweep.csv")
    assert [(r[0], r[1]) for r in rows] == [
        (b, n) for b in ("2", "3", "4") for n in ("1", "2")]


def test_io_error_exit_code(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    assert run_cli(["pattern", "--desired=0", f"--out={blocker}"]) == 1


def test_config_file_with_inline_override(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "targets=-47,30,49\ndesired=49\ngamma=0.1\nbits=3\n# comment\n"
    )
    out1 = tmp_path / "c1"
    assert run_cli(["clutter", f"--config={cfg}", f"--out={out1}"]) == 0
    assert read_summary(out1 / "summary.txt")["bits"] == "3"
    out2 = tmp_path / "c2"
    assert run_cli(["clutter", f"--config={cfg}", "--bits=4",
                    f"--out={out2}"]) == 0
    assert read_summary(out2 / "summary.txt")["bits"] == "4"


def test_csv_values_are_numeric(tmp_path):
    out = tmp_path / "p"
    assert run_cli(["pattern", "--desired=30", f"--out={out}"]) == 0
    _, rows = read_csv(out / "pattern.csv")
    for row in rows:
        for field in row:
            assert math.isfinite(float(field))
            assert "," not in field


# The CLI contract test gives each key three times in four, as a valid
# value (boundaries included) or, one time in six, as malformed or
# out-of-range text.  Runs stay small: at most 32 antennas, at most 16
# trials (always given to `sweep` and `oracle-check`) and one sweep worker.
_ANGLE = st.integers(-90, 90).map(str) | st.sampled_from(
    ["-90", "90", "10.5", "-0"])
_BAD_ANGLE = st.sampled_from(["95", "-91", "nan", "inf", "x", ""])
_CONTRACT_VALUES = {  # key: (valid, invalid)
    "antennas": (st.integers(1, 32).map(str),
                 st.sampled_from(["0", "-1", "1.5", "x", ""])),
    "spacing": (st.sampled_from(["0.5", "0.25", "1", "3"]),
                st.sampled_from(["0", "-0.5", "inf", "nan", "x"])),
    "targets": (st.lists(_ANGLE, min_size=1, max_size=4, unique=True).map(
        ",".join), st.lists(_ANGLE | _BAD_ANGLE, max_size=4).map(",".join)),
    "desired": (_ANGLE, _BAD_ANGLE),
    "gamma": (st.sampled_from(["0.1", "1e-6", "1e-30", "1e6"]),
              st.sampled_from(["0", "-1", "inf", "nan", "x"])),
    "bits": (st.integers(1, 8).map(str),
             st.sampled_from(["0", "-1", "2.5", "x"])),
    "candidates": (st.integers(1, 5).map(str),
                   st.sampled_from(["0", "-1", "x"])),
    "norm": (st.sampled_from(["2", "1", "0.5"]),
             st.sampled_from(["0", "2.5", "nan", "x"])),
    "norms": (st.sampled_from(["1,1.5,2", "2", "0.5,2"]),
              st.sampled_from(["0", "2.5", "nan", "1,x", ""])),
    "grid_step": (st.sampled_from(["0.1", "0.5", "1", "2", "90", "180"]),
                  st.sampled_from(["0.7", "0", "-1", "nan", "1e-9", "x"])),
    "floor_db": (st.sampled_from(["-80", "-20", "-0.5"]),
                 st.sampled_from(["0", "5", "-inf", "nan", "x"])),
    "seed": (st.integers(0, 50).map(str) | st.just("99999999999999999999"),
             st.sampled_from(["-1", "1.5", "x"])),
    "trials": (st.integers(1, 16).map(str),
               st.sampled_from(["0", "-1", "1.5", "x"])),
    "beamformer": (st.sampled_from(["steering", "mvdr", "dps",
                                    "pesa-quantized"]),
                   st.just("x")),
}
_SWEEP_BITS = (
    st.tuples(st.integers(1, 8), st.integers(0, 7)).map(
        lambda lo_up: f"{lo_up[0]}:{lo_up[0] + lo_up[1]}")
    | st.lists(st.integers(1, 8).map(str), min_size=1, max_size=3).map(
        ",".join),
    st.sampled_from(["0:2", "4:2", "2:", "0", "x", ""]))
_CONTRACT_RUNS = itertools.count()


def _check_written(out: Path, floor_db: float) -> None:
    """Every file under ``out`` is ASCII without a carriage return and ends
    in exactly one newline.  Every CSV value is finite, and each float
    field reads back as itself under ``%.9g`` (the sweep's integer ``bits``
    and ``trials`` are exempt); every ``power_db`` is at least the floor as
    printed, and each summary RMS is finite and >= 0."""
    for path in out.glob("*"):
        data = path.read_bytes()
        assert data.isascii() and b"\r" not in data, path
        assert data.endswith(b"\n") and not data.endswith(b"\n\n"), path
    floor = float(format(floor_db, ".9g"))  # `%.9g` rounds monotonically
    for path in out.glob("*.csv"):
        header, rows = read_csv(path)
        for row in rows:
            for key, field in zip(header, row):
                if key not in ("bits", "trials"):
                    assert format(float(field), ".9g") == field, (path, row)
            values = dict(zip(header, map(float, row)))
            assert all(map(math.isfinite, values.values())), (path, row)
            assert values.get("power_db", floor) >= floor, (path, row)
            assert values.get("mean_rms_dps_db", 0.0) >= 0.0, (path, row)
            assert values.get("mean_rms_pesa_db", 0.0) >= 0.0, (path, row)
    if (out / "summary.txt").exists():
        summary = read_summary(out / "summary.txt")
        for key in ("rms_dps_db", "rms_pesa_db"):
            value = float(summary[key])
            assert math.isfinite(value) and value >= 0.0, summary


@settings(max_examples=150, deadline=timedelta(seconds=30),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_contract_over_the_flag_tables(data, tmp_path, monkeypatch):
    monkeypatch.delenv("DPS_SEED", raising=False)
    command = data.draw(st.sampled_from(sorted(cli.COMMANDS)), label="command")
    keys = cli.COMMANDS[command].keys.split()
    values = {}
    for key in keys:
        if key in ("out", "workers"):
            continue
        if not (key == "trials" and command in ("sweep", "oracle-check")
                or data.draw(st.integers(0, 3), label=f"give {key}") != 1):
            continue
        valid, invalid = (_SWEEP_BITS if (command, key) == ("sweep", "bits")
                          else _CONTRACT_VALUES[key])
        if key == "desired" and values.get("targets"):
            valid, invalid = (st.sampled_from(values["targets"].split(",")),
                              valid | invalid)
        bad = data.draw(st.integers(0, 5), label=f"bad {key}") == 1
        values[key] = data.draw(invalid if bad else valid, label=key)
    out = tmp_path / f"out{next(_CONTRACT_RUNS)}"
    argv = [command, *(f"--{key.replace('_', '-')}={value}"
                       for key, value in values.items())]
    if "out" in keys:
        argv.append(f"--out={out}")
    if command == "sweep":
        argv.append("--workers=1")
    # One time in ten, a flag without its value, which argparse refuses.
    if data.draw(st.integers(0, 9), label="bare flag") == 5:
        key = data.draw(st.sampled_from(keys), label="bare key")
        argv.append(f"--{key.replace('_', '-')}")

    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors, nothing else
            assert exc.code == 2, argv
            code = None
    err = stderr.getvalue()
    if code is None:
        assert err.startswith("usage: dpspesa "), (argv, err)
    else:
        assert code in (0, 1, 2, 3), (argv, code)
    if code in (None, 2):
        if code == 2:
            assert err.count("\n") == 1, (argv, err)
            assert err.startswith(("usage error: ", "ill-conditioned solve (")), \
                (argv, err)
        assert not out.exists() or not any(out.iterdir()), argv
    if code == 0:
        floor_db = float(values.get("floor_db", cli.FLAGS["floor_db"].default))
        _check_written(out, floor_db)
