import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from dpspesa import beamformers, dps_quantize, experiments
from dpspesa.array_model import (
    ArrayConfig,
    angle_grid_deg,
    beampattern_trace,
    levels_db,
    steering_vector,
)
from dpspesa.beamformers import mvdr_beamformer
from dpspesa.dps_quantize import PhaseGrid, approximate, quantize_pesa
from dpspesa.experiments import (
    SWEEP_BLOCK_TRIALS,
    ScenarioSpec,
    _sweep_block,
    _trial_blocks,
    draw_target_angles,
    run_monte_carlo,
    run_mvdr_clutter,
    run_single_target,
    trial_rng,
)

CFG = ArrayConfig(16, 0.5)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(config=CFG, target_angles_deg=(0.0,), desired_index=1)
    with pytest.raises(ValueError):
        ScenarioSpec(config=CFG, target_angles_deg=(0.0, 10.0), gamma=0.0)
    with pytest.raises(ValueError, match="^gamma must be finite, got inf$"):
        ScenarioSpec(config=CFG, gamma=math.inf)
    # Every quantizer and trace value fails at construction, with the
    # message of the kernel that reads it.
    for fields, message in [
        ({"bits": 0}, r"^bits must be in \[1, 20\]$"),
        ({"bits": 2.5}, r"^bits must be in \[1, 20\]$"),
        ({"candidates_l": 0}, "^candidates must be a positive integer$"),
        ({"candidates_l": True}, "^candidates must be a positive integer$"),
        ({"bits": 12, "candidates_l": 4096}, "4096 candidates per phase"),
        ({"norm_target": 3.0}, r"^target must lie in \(0, 2\]$"),
        ({"norm_target": math.nan}, r"^target must lie in \(0, 2\]$"),
        ({"floor_db": 5.0}, "^floor_db must be negative$"),
        ({"floor_db": -math.inf}, "^floor_db must be finite$"),
        ({"seed": -1}, "^seed must be a non-negative integer, got -1$"),
        ({"seed": 1.5}, "^seed must be a non-negative integer, got 1.5$"),
    ]:
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(config=CFG, **fields)


@pytest.mark.parametrize("step, message", [
    (0.7, "step_deg must divide 180 degrees evenly"),
    (0.0006, "a 0.0006-degree grid for 16 antennas exceeds 4194304 "
             "steering-matrix entries"),
], ids=["step-does-not-divide-180", "grid-times-antennas-too-large"])
def test_spec_checks_the_grid_bound_before_any_solve(step, message,
                                                     monkeypatch):
    def solve(*args):
        raise AssertionError("the MVDR system was solved")

    monkeypatch.setattr(beamformers, "mvdr_beamformer", solve)
    monkeypatch.setattr(experiments, "mvdr_beamformer", solve)
    fields = dict(config=CFG, target_angles_deg=(-47.0, 30.0, 49.0),
                  desired_index=2, gamma=0.1, grid_step_deg=step)
    with pytest.raises(ValueError, match=re.escape(message)):
        ScenarioSpec(**fields)
    with pytest.raises(ValueError, match=re.escape(message)):
        run_mvdr_clutter(ScenarioSpec(**fields))


def test_spec_with_a_gamma_checks_the_mvdr_bound_before_any_draw(monkeypatch):
    big = ArrayConfig(2100)
    message = re.escape("a 2100 x 2100 MVDR matrix exceeds 4194304 entries; "
                        "use fewer antennas")
    with pytest.raises(ValueError, match=f"^{message}$"):
        ScenarioSpec(big, grid_step_deg=1.0, gamma=0.1)
    # The sweep's default gamma re-runs the check, so no target is drawn.
    draws = []
    monkeypatch.setattr(experiments, "draw_target_angles",
                        lambda *args, **kwargs: draws.append(args))
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_monte_carlo(ScenarioSpec(big, grid_step_deg=1.0), (4,), (2.0,), 3)
    assert draws == []
    # Without a gamma nothing is solved: a single-target run still builds.
    spec = ScenarioSpec(big, target_angles_deg=(10.0,), grid_step_deg=1.0)
    assert run_single_target(spec).traces.power_db.shape == (3, 181)


def test_spec_without_targets_serves_only_the_sweep():
    spec = ScenarioSpec(config=CFG, desired_index=3, gamma=0.1)
    assert spec.target_angles_deg == ()
    with pytest.raises(ValueError):
        run_single_target(replace(spec, gamma=None))
    with pytest.raises(ValueError):
        run_mvdr_clutter(spec)
    result = run_monte_carlo(spec, (3,), (2.0,), trials=2)
    assert len(result.rows) == 1 and result.rows[0].trials == 2


def test_spec_defaults_cover_reference_setup():
    spec = ScenarioSpec(config=CFG, target_angles_deg=(-47.0, 30.0, 49.0),
                        desired_index=2, gamma=0.1)
    assert spec.config.n_antennas == 16
    assert spec.config.spacing_wavelengths == 0.5
    assert (spec.bits, spec.candidates_l, spec.norm_target) == (4, 3, 2.0)
    assert spec.desired_angle_deg == 49.0
    assert len(spec.target_angles_deg) == 3


def test_draw_target_angles():
    rng = trial_rng(0, 0)
    for _ in range(200):
        angles = draw_target_angles(rng, count=3)
        assert np.all(np.abs(angles) <= 85.0)
        assert np.all(angles == np.round(angles))
        assert np.diff(np.sort(angles)).min() >= 2.0
    # Determinism: same (seed, index) gives the same draw.
    a = draw_target_angles(trial_rng(42, 7), count=3)
    b = draw_target_angles(trial_rng(42, 7), count=3)
    assert np.array_equal(a, b)


def test_draw_target_angles_refuses_a_count_that_cannot_fit():
    class NoDraws:
        def integers(self, *args, **kwargs):
            raise AssertionError("drew before checking the count")

    # Non-integral counts used to reach numpy and raise its TypeError.
    for count in (0, -1, 2.5, True):
        with pytest.raises(ValueError, match=rf"^count must be a positive "
                           rf"integer, got {count}$"):
            draw_target_angles(NoDraws(), count=count)
    # 86 integer angles 2 degrees apart fill [-85, 85]; one more cannot fit.
    with pytest.raises(ValueError, match="do not fit"):
        draw_target_angles(NoDraws(), count=87)
    with pytest.raises(ValueError, match="do not fit"):
        draw_target_angles(NoDraws(), count=100)
    # Feasible counts keep the stream they drew before the check existed.
    assert draw_target_angles(trial_rng(5, 1), count=3).tolist() == [
        -5.0, 65.0, 33.0]
    assert draw_target_angles(trial_rng(5, 1), count=np.int64(3)).tolist() == [
        -5.0, 65.0, 33.0]
    assert draw_target_angles(trial_rng(5, 2), count=12).tolist() == [
        41.0, -6.0, 8.0, 6.0, -18.0, 83.0, 80.0, -3.0, -55.0, -66.0, 12.0, 74.0]


def _assert_separated(angles, count):
    assert angles.shape == (count,)
    assert np.all(np.abs(angles) <= 85.0)
    assert np.all(angles == np.round(angles))
    assert np.diff(np.sort(angles)).min() >= 2.0


def test_dense_target_counts_are_placed():
    # 40 of at most 86 is practically never drawn as a whole set.
    angles = draw_target_angles(trial_rng(5, 2), count=40)
    _assert_separated(angles, 40)
    assert np.array_equal(angles, draw_target_angles(trial_rng(5, 2), count=40))
    full = draw_target_angles(trial_rng(1, 0), count=86)
    assert np.sort(full).tolist() == list(range(-85, 86, 2))


def test_trial_blocks_clamp_workers_and_cover_the_trials():
    assert _trial_blocks(8, 2, 2) == (2, [range(0, 4), range(4, 8)])
    assert _trial_blocks(8, 16, 4)[0] == 4
    assert _trial_blocks(3, 16, 64)[0] == 3
    assert _trial_blocks(5, 4, None)[0] == 1
    assert _trial_blocks(5, 0, 8) == (1, [range(0, 5)])
    for trials, workers, cpus in [(1, 1, 1), (200, 1, 2), (1000, 3, 8),
                                  (130, 2, 2), (7, 64, 64)]:
        used, blocks = _trial_blocks(trials, workers, cpus)
        assert used == min(workers, cpus, len(blocks))
        assert len(blocks) >= used
        assert [t for b in blocks for t in b] == list(range(trials))
        assert max(len(b) for b in blocks) <= SWEEP_BLOCK_TRIALS


def test_single_target_requires_one_target_and_no_gamma():
    with pytest.raises(ValueError):
        run_single_target(
            ScenarioSpec(config=CFG, target_angles_deg=(0.0, 10.0))
        )
    with pytest.raises(ValueError):
        run_single_target(
            ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1)
        )


def test_single_target_fine_grid_quantization_vanishes():
    spec = ScenarioSpec(config=CFG, target_angles_deg=(37.0,), bits=16)
    result = run_single_target(spec)
    assert result.rms_dps_db < 0.1


def test_single_target_traces_peak_at_target():
    spec = ScenarioSpec(config=CFG, target_angles_deg=(49.0,))
    result = run_single_target(spec)
    traces = result.traces  # rows: reference, dps, pesa
    assert traces.power_db.shape == (3, traces.angles_deg.size)
    for linear in traces.power_linear:
        peak = traces.angles_deg[np.argmax(linear)]
        assert abs(peak - 49.0) <= 0.1 + 1e-9
    # RMS errors are taken over the whole grid.
    ref_db, dps_db, pesa_db = traces.power_db
    for rms, db in ((result.rms_dps_db, dps_db), (result.rms_pesa_db, pesa_db)):
        diff = ref_db - db
        assert rms == pytest.approx(np.sqrt(np.mean(diff**2)), rel=1e-12)


def test_single_target_main_beam_covers_target():
    # The quantized main lobe is nearly flat on top, so the argmax can sit
    # a few grid steps off; the level at the target stays at the peak.
    for t in range(25):
        rng = trial_rng(123, t)
        angle = float(draw_target_angles(rng, count=1)[0])
        result = run_single_target(
            ScenarioSpec(config=CFG, target_angles_deg=(angle,))
        )
        levels = result.levels_at_targets_db[angle]
        assert levels.dps >= -0.1 and levels.pesa >= -0.1


def test_single_target_dps_beats_pesa_usually():
    wins = 0
    for t in range(25):
        rng = trial_rng(123, t)
        angle = float(draw_target_angles(rng, count=1)[0])
        result = run_single_target(
            ScenarioSpec(config=CFG, target_angles_deg=(angle,))
        )
        assert result.rms_dps_db >= 0.0 and np.isfinite(result.rms_dps_db)
        wins += result.rms_dps_db <= result.rms_pesa_db
    assert wins >= 20


def test_clutter_run_validation():
    with pytest.raises(ValueError):
        run_mvdr_clutter(ScenarioSpec(config=CFG, target_angles_deg=(0.0,),
                                      gamma=0.1))
    with pytest.raises(ValueError):
        run_mvdr_clutter(ScenarioSpec(config=CFG,
                                      target_angles_deg=(0.0, 10.0)))


def test_clutter_run_structure():
    spec = ScenarioSpec(config=CFG, target_angles_deg=(-47.0, 30.0, 49.0),
                        desired_index=2, gamma=0.1)
    result = run_mvdr_clutter(spec)
    assert set(result.levels_at_targets_db) == {-47.0, 30.0, 49.0}
    # One grid for the (reference, dps, pesa) rows.
    traces = result.traces
    assert traces.power_linear.shape == (3, traces.angles_deg.size)
    assert np.array_equal(traces.angles_deg, angle_grid_deg(spec.grid_step_deg))
    peak = traces.angles_deg[np.argmax(traces.power_linear[0])]
    assert abs(peak - 49.0) <= 0.1 + 1e-9
    assert result.levels_at_targets_db[49.0].reference == 0.0
    # RMS errors are taken at the three target angles only.
    levels = result.levels_at_targets_db.values()
    for rms, field in ((result.rms_dps_db, "dps"), (result.rms_pesa_db, "pesa")):
        diff = [lv.reference - getattr(lv, field) for lv in levels]
        assert rms == pytest.approx(np.sqrt(np.mean(np.square(diff))), rel=1e-12)
    assert result.rms_dps_db >= 0.0 and result.rms_pesa_db >= 0.0


def test_fig3_pesa_clutter_levels_do_not_depend_on_gamma():
    # Why criterion 1 cannot pass at any gamma: its PESA gates read the
    # quantized steering vector toward the desired 49 degrees, which no
    # gamma enters.
    want = levels_db(CFG, quantize_pesa(steering_vector(CFG, 49.0),
                                        PhaseGrid(4)), [-47.0, 30.0])
    assert want.round(4).tolist() == [-40.5264, -26.8749]
    for gamma in (0.1, 1.05, 9.6):
        result = run_mvdr_clutter(ScenarioSpec(
            config=CFG, target_angles_deg=(-47.0, 30.0, 49.0),
            desired_index=2, gamma=gamma, bits=4, candidates_l=3,
            norm_target=2.0))
        levels = result.levels_at_targets_db
        assert [levels[-47.0].pesa, levels[30.0].pesa] == want.tolist()


# Criterion 2's windows on DPS minus reference at each clutter angle, as
# (expected, tolerance) in dB; criterion 1 wants DPS at most -32 dB there.
FIG3_DELTA_WINDOWS = {-47.0: (17.1, 3.0), 30.0: (11.4, 3.0)}
# Every 0.1 from 0.1 to 12, and two decades on each side.
FIG3_GAMMAS = (0.001, 0.01, *(k / 10 for k in range(1, 121)), 100.0, 1000.0)


def test_fig3_no_gamma_meets_criterion_2_and_the_dps_gate_together():
    # Why criterion 2 cannot pass while criterion 1's DPS gates hold.  The
    # deltas fall in criterion 2's windows only at gamma 2.0-3.6, where the
    # reference's nulls are shallow enough but the DPS pairs have changed
    # and DPS reads -31.24 dB at -47 degrees.  DPS stays at most -32 dB at
    # both clutter angles only up to gamma 0.7, where the reference's nulls
    # are so deep that the deltas overshoot the windows.
    in_windows, under_gate, dps_in_windows = [], [], set()
    for gamma in FIG3_GAMMAS:
        levels = run_mvdr_clutter(ScenarioSpec(
            config=CFG, target_angles_deg=(-47.0, 30.0, 49.0),
            desired_index=2, gamma=gamma, bits=4, candidates_l=3,
            norm_target=2.0)).levels_at_targets_db
        dps = tuple(levels[angle].dps for angle in FIG3_DELTA_WINDOWS)
        if all(abs(levels[angle].dps - levels[angle].reference - want) <= tol
               for angle, (want, tol) in FIG3_DELTA_WINDOWS.items()):
            in_windows.append(gamma)
            dps_in_windows.add(tuple(round(level, 2) for level in dps))
        if max(dps) <= -32.0:
            under_gate.append(gamma)
    assert in_windows == [k / 10 for k in range(20, 37)]
    assert dps_in_windows == {(-31.24, -39.57)}
    assert under_gate == [0.001, 0.01, *(k / 10 for k in range(1, 8))]
    assert not set(in_windows) & set(under_gate)


@pytest.mark.parametrize("run, spec", [
    (run_single_target, ScenarioSpec(config=CFG, target_angles_deg=(37.0,))),
    (run_mvdr_clutter, ScenarioSpec(config=CFG, desired_index=2, gamma=0.1,
                                    target_angles_deg=(-47.0, 30.0, 49.0))),
], ids=["single", "clutter"])
def test_trial_samples_the_grid_once(run, spec, monkeypatch):
    calls = []
    sample = experiments.beampattern_trace

    def counted(config, w, step_deg, floor_db):
        calls.append(np.shape(w))
        return sample(config, w, step_deg, floor_db)

    monkeypatch.setattr(experiments, "beampattern_trace", counted)
    result = run(spec)
    assert calls == [(3, CFG.n_antennas)]
    # The stacked rows equal the per-vector traces bit for bit.
    grid = PhaseGrid(spec.bits)
    w_steer = steering_vector(CFG, spec.desired_angle_deg)
    w_ref = (w_steer if spec.gamma is None
             else mvdr_beamformer(CFG, spec.target_angles_deg, spec.gamma,
                                  spec.desired_index))
    dps = approximate(w_ref, grid, spec.candidates_l, spec.norm_target)
    weights = (w_ref, dps.realized, quantize_pesa(w_steer, grid))
    for row, w in enumerate(weights):
        trace = beampattern_trace(CFG, w)
        assert np.array_equal(result.traces.power_linear[row], trace.power_linear)
        assert np.array_equal(result.traces.power_db[row], trace.power_db)


def test_monte_carlo_row_layout_and_determinism():
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        seed=42)
    res1 = run_monte_carlo(base, (2, 3), (1.0, 2.0), trials=6)
    res2 = run_monte_carlo(base, (2, 3), (1.0, 2.0), trials=6)
    assert res1.rows == res2.rows
    assert [(r.bits, r.norm_target) for r in res1.rows] == [
        (2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)
    ]
    assert all(r.trials == 6 for r in res1.rows)
    # The phase-only baseline does not depend on the normalization target.
    assert res1.rows[0].mean_rms_pesa_db == res1.rows[1].mean_rms_pesa_db


@pytest.mark.parametrize("trials", [1, 8, 10, 129, 200])
def test_monte_carlo_rows_are_the_per_slice_means(monkeypatch, trials):
    # Blocks of spread-out values, so that the summation order shows in the
    # last bits; each row must equal the mean of its own vector of trials.
    bits, norms = (2, 3, 4), (1.0, 2.0)
    blocks = []

    def fake_block(spec, bits_list, norm_list, block):
        rng = np.random.default_rng(block.start)
        dps = rng.standard_normal((len(block), len(bits_list), len(norm_list)))
        pesa = rng.standard_normal((len(block), len(bits_list)))
        blocks.append((dps * 1e3 - 40.0, pesa * 1e3 - 30.0))
        return blocks[-1]

    monkeypatch.setattr(experiments, "_sweep_block", fake_block)
    base = ScenarioSpec(config=CFG, gamma=0.1, seed=1)
    rows = run_monte_carlo(base, bits, norms, trials).rows
    rms_dps = np.concatenate([b[0] for b in blocks])
    rms_pesa = np.concatenate([b[1] for b in blocks])
    assert len(rms_dps) == trials
    want = [(float(rms_dps[:, b, n].mean()), float(rms_pesa[:, b].mean()))
            for b in range(len(bits)) for n in range(len(norms))]
    assert [(r.mean_rms_dps_db, r.mean_rms_pesa_db) for r in rows] == want


def test_sweep_block_equals_trace_based_scoring(monkeypatch):
    # Reference: whole traces per trial with the public quantizers, read at
    # the closest grid points (the first one on a tie) and scored with the
    # RMS formula written out here.
    spec = ScenarioSpec(config=ArrayConfig(12, 0.5), gamma=0.1, candidates_l=2,
                        grid_step_deg=0.5, floor_db=-70.0, seed=3)
    bits, norms, trials = (2, 5, 9), (1.0, 1.7, 2.0), range(4, 9)
    splits = []  # weights per split
    decompose = dps_quantize.decompose

    def counted(c):
        splits.append(np.size(c))
        return decompose(c)

    monkeypatch.setattr(dps_quantize, "decompose", counted)
    # The split does not depend on the grid: one per block, whatever the
    # number of bits, and none when every grid is searched whole.
    rms_dps, rms_pesa = _sweep_block(spec, bits, norms, trials)
    one_bits = _sweep_block(spec, bits[1:2], norms, trials)
    assert splits == [len(trials) * len(norms) * 12] * 2
    assert np.array_equal(one_bits[0], rms_dps[:, 1:2])
    assert np.array_equal(one_bits[1], rms_pesa[:, 1:2])
    _sweep_block(replace(spec, candidates_l=4), (1, 2), norms, trials)
    assert len(splits) == 2
    want_dps = np.empty((len(trials), len(bits), len(norms)))
    want_pesa = np.empty((len(trials), len(bits)))

    def rms(ref, other, at):
        diff = ref.power_db[at] - other.power_db[at]
        return np.sqrt(np.mean(diff**2, axis=-1))

    for t, index in enumerate(trials):
        rng = trial_rng(spec.seed, index)
        angles = draw_target_angles(rng, count=3)
        desired = int(rng.integers(3))
        w_ref = mvdr_beamformer(spec.config, angles, spec.gamma, desired)
        w_steer = steering_vector(spec.config, angles[desired])
        ref = beampattern_trace(spec.config, w_ref, 0.5, -70.0)
        at = np.argmin(np.abs(ref.angles_deg - angles[:, None]), axis=-1)
        for b, n_bits in enumerate(bits):
            grid = PhaseGrid(n_bits)
            pesa = beampattern_trace(spec.config, quantize_pesa(w_steer, grid),
                                     0.5, -70.0)
            want_pesa[t, b] = rms(ref, pesa, at)
            for k, norm in enumerate(norms):
                dps = approximate(w_ref, grid, 2, norm).realized
                want_dps[t, b, k] = rms(
                    ref, beampattern_trace(spec.config, dps, 0.5, -70.0), at)
    assert np.array_equal(rms_dps, want_dps)
    assert np.array_equal(rms_pesa, want_pesa)


@pytest.mark.parametrize("trials", [1, 10, 64])
def test_sweep_block_solves_and_scores_in_one_pass(monkeypatch, trials):
    # One MVDR solve, one level pass and one RMS pass per block, whatever its
    # trial count: no per-trial loop around any of them.
    spec = ScenarioSpec(config=CFG, gamma=0.1, seed=5)
    calls = []

    def spy(name, fn):
        def recorded(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, recorded)

    for name in ("mvdr_beamformer", "levels_db", "_rms_db", "steering_vector"):
        spy(name, getattr(experiments, name))
    rms_dps, rms_pesa = _sweep_block(spec, (2, 5), (1.0, 2.0), range(trials))
    assert rms_dps.shape == (trials, 2, 2) and rms_pesa.shape == (trials, 2)
    assert sorted(calls) == ["_rms_db", "levels_db", "mvdr_beamformer",
                             "steering_vector"]


def test_sweep_block_places_candidates_once_per_quantizer(monkeypatch):
    # A block of the criterion-3 sweep (bits 2..12, L = 3) places its
    # candidates on all 11 grids in one pass for DPS and one for PESA, not
    # once per grid and quantizer.
    spec = ScenarioSpec(config=CFG, gamma=0.1, candidates_l=3, seed=5)
    bits = tuple(range(2, 13))
    want = _sweep_block(spec, bits, (1.0, 1.5, 2.0), range(10))
    nearest = dps_quantize._nearest
    passes = []

    def counted(phi, grids, count):
        passes.append(([grid.bits for grid in grids], count, phi.shape))
        return nearest(phi, grids, count)

    monkeypatch.setattr(dps_quantize, "_nearest", counted)
    got = _sweep_block(spec, bits, (1.0, 1.5, 2.0), range(10))
    assert passes == [(list(bits), 3, (2, 10 * 3 * 16)),
                      (list(bits), 1, (10, 16))]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_monte_carlo_worker_count_invariance():
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        seed=42)
    serial = run_monte_carlo(base, (2, 4), (2.0,), trials=8, workers=1)
    parallel = run_monte_carlo(base, (2, 4), (2.0,), trials=8, workers=2)
    assert serial.rows == parallel.rows


def test_a_sweep_clamps_its_workers_to_the_usable_cpus(monkeypatch):
    # Pinned to one CPU of eight, a two-worker sweep runs in this process.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3},
                        raising=False)
    trial_blocks, cpus_seen = experiments._trial_blocks, []

    def recording_blocks(trials, workers, cpus):
        cpus_seen.append(cpus)
        return trial_blocks(trials, workers, cpus)

    monkeypatch.setattr(experiments, "_trial_blocks", recording_blocks)
    base = ScenarioSpec(config=ArrayConfig(4), grid_step_deg=1.0)
    run_monte_carlo(base, (2,), (2.0,), trials=4, workers=2)
    assert cpus_seen == [1]


def test_a_pooled_sweep_never_imports_scipy_linalg(fresh_python):
    # In a fresh interpreter, with the import of every module logged by
    # the parent and by the forked workers alike: a two-worker sweep
    # imports the process pool, and no process imports scipy.linalg, since
    # each worker's first MVDR solve loads only scipy's LAPACK extension.
    # It returns the rows of the one-worker sweep.
    code = (
        "import os\n"
        "from dpspesa.array_model import ArrayConfig\n"
        "from dpspesa.experiments import ScenarioSpec, run_monte_carlo\n"
        "os.cpu_count = lambda: 2  # two workers on any host\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "spec = ScenarioSpec(ArrayConfig(4), grid_step_deg=1.0)\n"
        "pooled = run_monte_carlo(spec, (2,), (2.0,), 2, workers=2)\n"
        "print(pooled == run_monte_carlo(spec, (2,), (2.0,), 2, workers=1))\n")
    run = fresh_python("-X", "importtime", "-c", code)
    assert (run.returncode, run.stdout) == (0, "True\n")
    log = run.stderr.splitlines()
    assert all(line.startswith("import time:") for line in log), run.stderr
    imported = {line.rsplit("|", 1)[-1].strip() for line in log}
    assert "concurrent.futures.process" in imported
    assert "scipy.linalg" not in imported


def test_sweep_over_the_pair_bound_searches_in_chunks(monkeypatch):
    # One block searches 8 trials x 2 norms x 16 antennas = 256 weights with
    # 3^2 pairs each on 2 grids, whose candidates take 2 x 2 x 3 = 12 entries
    # per weight; a bound of 100 splits that into 32 chunks of 8 weights,
    # which changes no row with either worker count.
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        seed=42)
    want = run_monte_carlo(base, (2, 4), (1.0, 2.0), trials=8, workers=1)
    chunks = []  # weights per chunk of the serial run
    best_pairs = dps_quantize._best_pairs

    def counted(wn, *args):
        chunks.append(wn.size)
        return best_pairs(wn, *args)

    monkeypatch.setattr(dps_quantize, "MAX_GRID_ENTRIES", 100)
    monkeypatch.setattr(dps_quantize, "_best_pairs", counted)
    for workers in (1, 2):
        got = run_monte_carlo(base, (2, 4), (1.0, 2.0), trials=8,
                              workers=workers)
        assert got.rows == want.rows
    assert chunks == [8] * (2 * 32) and sum(chunks) == 2 * 256


def test_monte_carlo_error_shrinks_with_bits_under_full_search():
    # With the candidate list covering the whole grid, refining the grid
    # can only help each element, and the mean error follows.
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        candidates_l=16, seed=11)
    res = run_monte_carlo(base, (2, 3, 4), (2.0,), trials=15)
    means = [r.mean_rms_dps_db for r in res.rows]
    assert means[0] >= means[1] >= means[2]


def test_monte_carlo_dps_dominates_pesa():
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        seed=20250810)
    res = run_monte_carlo(base, range(3, 13), (2.0,), trials=30)
    for row in res.rows:
        assert np.isfinite(row.mean_rms_dps_db) and row.mean_rms_dps_db >= 0
        assert row.mean_rms_dps_db <= row.mean_rms_pesa_db


def test_monte_carlo_validation():
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1)
    with pytest.raises(ValueError):
        run_monte_carlo(base, (2,), (2.0,), trials=0)
    with pytest.raises(ValueError):
        run_monte_carlo(base, (), (2.0,), trials=1)


@pytest.mark.parametrize("bits, trials, error", [
    ((2.5,), 1, r"^bits must be in \[1, 20\]$"),
    ((2, True), 1, r"^bits must be in \[1, 20\]$"),
    ((2,), 2.5, "^trials must be an integer$"),
    ((2,), True, "^trials must be an integer$"),
    ((2, 25), 1, r"^bits must be in \[1, 20\]$"),
    # A scalar is not a sweep.
    (4, 1, "^bits_sweep must be a sequence, got 4$"),
    # Worker counts, given with 4 trials as `run_monte_carlo` keywords.
    *(pytest.param((2,), {"trials": 4, "workers": workers}, error,
                   id=f"workers={workers}")
      for workers, error in ((2.5, "^workers must be an integer$"),
                             (True, "^workers must be an integer$"),
                             (0, "^workers must be >= 1$"),
                             (-3, "^workers must be >= 1$"))),
])
def test_monte_carlo_rejects_non_integral_counts(bits, trials, error,
                                                 monkeypatch):
    # Every count is checked before any trial block runs, whatever the
    # host's CPU count.
    monkeypatch.setattr(experiments, "_sweep_block", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    base = ScenarioSpec(config=ArrayConfig(4), grid_step_deg=1.0)
    counts = trials if isinstance(trials, dict) else {"trials": trials}
    with pytest.raises(ValueError, match=error):
        run_monte_carlo(base, bits, (2.0,), **counts)


@pytest.mark.parametrize("fields, norms, error", [
    ({"candidates_l": 5000}, (2.0,), "with 4096 candidates per phase"),
    ({}, (1.0, 3.0), r"^target must lie in \(0, 2\]$"),
    ({}, (math.nan,), r"^target must lie in \(0, 2\]$"),
    # Neither a string (not a sweep of its characters) nor a scalar is a
    # sweep.
    ({}, "12", "^norm_sweep must be a sequence, got '12'$"),
    ({}, 2.0, r"^norm_sweep must be a sequence, got 2\.0$"),
    ({}, np.float64(2.0), "^norm_sweep must be a sequence, got "),
], ids=["pairs-over-the-bound-at-12-bits", "norm-above-2", "norm-nan",
        "norm-a-string", "norm-a-float", "norm-a-numpy-scalar"])
def test_monte_carlo_checks_its_grids_and_norms_before_any_block(
        fields, norms, error, monkeypatch):
    monkeypatch.setattr(experiments, "_sweep_block", None)
    base = ScenarioSpec(config=ArrayConfig(4), grid_step_deg=1.0, **fields)
    with pytest.raises(ValueError, match=error):
        run_monte_carlo(base, (2, 12), norms, 4)


def test_monte_carlo_takes_numpy_integer_counts():
    base = ScenarioSpec(config=ArrayConfig(4), grid_step_deg=1.0)
    result = run_monte_carlo(base, (np.int64(2),), (2.0,), np.int64(2))
    assert result == run_monte_carlo(base, (2,), (2.0,), 2)
    for row in result.rows:
        assert type(row.bits) is int and type(row.trials) is int
