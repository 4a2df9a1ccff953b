import argparse
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

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


def test_pattern_rejects_unknown_beamformer(tmp_path):
    assert run_cli(["pattern", "--beamformer=magic",
                    f"--out={tmp_path}"]) == 2


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


def test_clutter_usage_errors(tmp_path):
    assert run_cli(["clutter", f"--out={tmp_path}"]) == 2
    assert run_cli(["clutter", "--targets=-47,30,49", "--desired=10",
                    f"--out={tmp_path}"]) == 2
    assert run_cli(["clutter", "--targets=-47,30,49",
                    f"--out={tmp_path}"]) == 2


@pytest.mark.parametrize("argv, shown", [
    (["single", "--targets=95"], "95"),
    (["clutter", "--targets=-47,30,95", "--desired=30"], "95"),
    (["pattern", "--desired=-100"], "-100"),
    (["pattern", "--beamformer=mvdr", "--targets=10,90.5", "--desired=10"],
     "90.5"),
    (["single", "--targets=nan"], "nan"),
], ids=["single", "clutter", "pattern", "pattern-mvdr", "single-nan"])
def test_out_of_range_angles_are_reported_in_degrees(argv, shown, tmp_path,
                                                     capsys):
    assert run_cli([*argv, f"--out={tmp_path}"]) == 2
    assert capsys.readouterr().err == (
        "usage error: angles must be finite and lie in [-90, 90] degrees, "
        f"got {shown}\n")
    assert not any(tmp_path.iterdir())


def test_infinite_spacing_is_rejected_by_every_subcommand(tmp_path, capsys):
    for argv in (["pattern"], ["single", "--targets=10"],
                 ["clutter", "--targets=-47,30,49", "--desired=49"],
                 ["sweep", "--bits=2", "--trials=1"]):
        assert run_cli([*argv, "--spacing=inf", f"--out={tmp_path}"]) == 2
        assert capsys.readouterr().err == \
            "usage error: spacing_wavelengths must be finite\n"
        assert not any(tmp_path.iterdir())


def test_clutter_ill_conditioned_solve(tmp_path, capsys):
    assert run_cli(["clutter", "--targets=-47,30,49", "--desired=49",
                    "--gamma=1e-30", f"--out={tmp_path}"]) == 2
    err = capsys.readouterr().err
    assert "ill-conditioned solve" in err and "increase --gamma" in err
    assert "usage error" not in err


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
    cfg = ArrayConfig(16, 0.5)
    traces = [
        beampattern_trace(cfg, steering_vector(cfg, 0.3), 0.1, -20.0),
        beampattern_trace(cfg, np.zeros(16), 0.5, -80.0),  # floor everywhere
        beampattern_trace(ArrayConfig(2, 0.5), [1.0, 1.0], 0.1, -300.0),
    ]
    stacked = beampattern_trace(cfg, [steering_vector(cfg, 0.3), np.zeros(16)],
                                0.5, -80.0)

    def want(angles, linear, db):
        return "angle_deg,power_linear,power_db\n" + "".join(
            f"{format(float(a), '.9g')},{format(float(p), '.9g')},"
            f"{format(float(d), '.9g')}\n"
            for a, p, d in zip(angles, linear, db)
        )

    for trace in traces:
        assert (trace.power_db == trace.floor_db).any()
        cli._write_traces(str(tmp_path), trace, ["t.csv"])
        assert (tmp_path / "t.csv").read_text() == want(
            trace.angles_deg, trace.power_linear, trace.power_db)
    # Row i of a stack goes to the i-th file.
    cli._write_traces(str(tmp_path), stacked, ["a.csv", "b.csv"])
    for name, linear, db in zip(("a.csv", "b.csv"), stacked.power_linear,
                                stacked.power_db):
        assert (tmp_path / name).read_text() == want(stacked.angles_deg,
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


def test_oracle_check_reports_mismatch(monkeypatch, capsys):
    # Force a wrong oracle answer to exercise the mismatch exit path.
    monkeypatch.setattr(dps_quantize, "exhaustive_oracle", lambda w, grid: (0, 0))
    assert run_cli(["oracle-check", "--bits=2", "--trials=8",
                    "--seed=1"]) == 3
    out = capsys.readouterr().out
    assert "mismatch" in out
    # Python scalars, not numpy reprs such as np.int64(0).
    assert "np." not in out


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


def test_oracle_check_rejects_non_positive_trials(capsys):
    for trials in ("0", "-3"):
        assert run_cli(["oracle-check", "--bits=2", f"--trials={trials}"]) == 2
        captured = capsys.readouterr()
        assert "--trials >= 1" in captured.err
        assert "passed" not in captured.out


def test_defaults_table_resolves_per_subcommand(monkeypatch):
    monkeypatch.delenv("DPS_SEED", raising=False)

    def resolved(command, key, cast=None):
        args = argparse.Namespace(command=command, _config_values={})
        return cli._resolve(args, key, cast)

    assert resolved("sweep", "bits", cli._parse_bits_sweep) == tuple(range(2, 13))
    assert resolved("sweep", "trials") == 200
    assert resolved("oracle-check", "trials") == 1000
    for command in ("sweep", "clutter"):
        assert resolved(command, "gamma") == DEFAULT_GAMMA
    assert resolved("pattern", "gamma") is None
    assert resolved("clutter", "bits") == "4"
    for command in ("pattern", "single", "clutter", "sweep", "oracle-check"):
        assert resolved(command, "seed") == 0


def test_defaults_table_keys_are_the_flags():
    dests = set()
    for action in cli.build_parser()._subparsers._group_actions:
        for sub in action.choices.values():
            dests |= {a.dest for a in sub._actions} - {"help", "config"}
    assert dests == set(cli.DEFAULTS)
    for overlay in cli.COMMAND_DEFAULTS.values():
        assert set(overlay) <= dests


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
