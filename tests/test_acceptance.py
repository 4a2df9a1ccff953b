"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.
"""

import cmath
import math
import time

import numpy as np
from scipy.stats import spearmanr

from dpspesa import cli
from dpspesa.array_model import ArrayConfig, steering_vector
from dpspesa.beamformers import mvdr_beamformer
from dpspesa.dps_quantize import (
    PhaseGrid,
    decompose,
    exhaustive_oracle,
    oracle_mismatches,
)
from dpspesa.experiments import (
    ScenarioSpec,
    draw_target_angles,
    run_monte_carlo,
    run_mvdr_clutter,
    run_single_target,
    trial_rng,
)

TWO_PI = 2.0 * math.pi
CFG = ArrayConfig(16, 0.5)
FIG3 = dict(target_angles_deg=(-47.0, 30.0, 49.0), desired_index=2, gamma=0.1)


def _criterion(name, checks):
    failed = [msg for ok, msg in checks if not ok]
    print(f"[{'PASS' if not failed else 'FAIL'}] {name}")
    for ok, msg in checks:
        print(f"    {'ok   ' if ok else 'FAIL '}{msg}")
    assert not failed, f"{name}: " + "; ".join(failed)


def _random_disk(rng, size=None, radius=2.0):
    r = radius * np.sqrt(rng.random(size))
    return r * np.exp(1j * TWO_PI * rng.random(size))


def test_criterion_1_clutter_levels():
    start = time.perf_counter()
    result = run_mvdr_clutter(ScenarioSpec(config=CFG, **FIG3))
    elapsed = time.perf_counter() - start
    levels = result.levels_at_targets_db
    checks = []
    for clutter in (-47.0, 30.0):
        dps = levels[clutter].dps
        pesa = levels[clutter].pesa
        checks.append((dps <= -32.0, f"DPS level at {clutter:g} = {dps:.2f} dB <= -32 dB"))
        checks.append((pesa >= -23.0, f"PESA level at {clutter:g} = {pesa:.2f} dB >= -23 dB"))
    checks.append((elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"))
    _criterion("criterion 1: clutter-scenario levels", checks)


def test_criterion_2_clutter_deltas():
    start = time.perf_counter()
    result = run_mvdr_clutter(ScenarioSpec(config=CFG, **FIG3))
    elapsed = time.perf_counter() - start
    levels = result.levels_at_targets_db
    checks = []
    for clutter, expected in ((-47.0, 17.1), (30.0, 11.4)):
        delta = levels[clutter].dps - levels[clutter].reference
        checks.append((
            abs(delta - expected) <= 3.0,
            f"DPS minus reference at {clutter:g} = {delta:+.2f} dB, "
            f"expected {expected:+.1f} +/- 3 dB",
        ))
    checks.append((elapsed < 1.0, f"runtime {elapsed:.3f}s < 1s"))
    _criterion("criterion 2: clutter-scenario deltas vs reference", checks)


def test_criterion_3_sweep_trends():
    start = time.perf_counter()
    base = ScenarioSpec(config=CFG, target_angles_deg=(0.0,), gamma=0.1,
                        candidates_l=3, seed=20250810)
    bits = tuple(range(2, 13))
    norms = (1.0, 1.5, 2.0)
    result = run_monte_carlo(base, bits, norms, trials=200)
    elapsed = time.perf_counter() - start

    table = {(r.bits, r.norm_target): r.mean_rms_dps_db for r in result.rows}
    checks = []
    for norm in norms:
        curve = [table[(b, norm)] for b in bits]
        rho = float(spearmanr(bits, curve).statistic)
        checks.append((rho <= -0.9,
                       f"Spearman(mean DPS RMS, B) = {rho:.3f} <= -0.9 (norm {norm:g})"))
    slack = 0.5
    ordered = all(
        table[(b, 2.0)] <= table[(b, 1.5)] + slack
        and table[(b, 1.5)] <= table[(b, 1.0)] + slack
        for b in bits
    )
    checks.append((ordered, "norm-2 <= norm-1.5 <= norm-1 at every B (0.5 dB slack)"))
    at_b4 = table[(4, 2.0)]
    checks.append((at_b4 > 20.0 - 5.0,
                   f"mean RMS at B=4, norm 2 = {at_b4:.2f} dB > 15 dB "
                   "(20 dB with 5 dB soft tolerance)"))
    checks.append((elapsed < 120.0, f"runtime {elapsed:.1f}s < 120s"))
    _criterion("criterion 3: Monte-Carlo sweep trends (200 trials)", checks)


def test_criterion_4_single_target_direction():
    start = time.perf_counter()
    trials = 500
    wins = 0
    for t in range(trials):
        rng = trial_rng(123, t)
        angle = float(draw_target_angles(rng, count=1)[0])
        result = run_single_target(
            ScenarioSpec(config=CFG, target_angles_deg=(angle,), bits=4,
                         candidates_l=3)
        )
        wins += result.rms_dps_db <= result.rms_pesa_db
    elapsed = time.perf_counter() - start
    checks = [
        (wins >= 0.9 * trials,
         f"DPS RMS <= PESA RMS in {wins}/{trials} = {wins/trials:.1%} >= 90%"),
        (elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s"),
    ]
    _criterion("criterion 4: single-target error direction (500 trials)", checks)


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checks = []
    for bits in (2, 3, 4):
        grid = PhaseGrid(bits)
        mismatches = 0
        checked = 0
        while checked < 1000:
            block = min(16, 1000 - checked)
            w = _random_disk(rng, size=block)
            mismatches += len(oracle_mismatches(w, grid))
            checked += block
        checks.append((mismatches == 0,
                       f"B={bits}: {mismatches}/1000 mismatches "
                       "(exact error and pair equality)"))
    elapsed = time.perf_counter() - start
    checks.append((elapsed < 30.0, f"runtime {elapsed:.1f}s < 30s"))
    _criterion("criterion 5: candidate search equals exhaustive oracle", checks)


def test_criterion_6_decomposition_properties():
    rng = np.random.default_rng(6)
    worst_round = worst_a = worst_omega = 0.0
    for c in _random_disk(rng, size=10_000):
        c = complex(c)
        phi1, phi2 = decompose(c)
        recomposed = cmath.exp(1j * phi1) + cmath.exp(1j * phi2)
        worst_round = max(worst_round, abs(recomposed - c))
        delta = (phi1 - phi2) % TWO_PI
        worst_a = max(worst_a, abs(2.0 * math.cos(delta / 2.0) - abs(c)))
        midpoint = (phi2 + delta / 2.0) % TWO_PI
        omega = math.atan2(c.imag, c.real)
        # The shortest angular distance between the two phases, in [0, pi].
        distance = abs((midpoint - omega + math.pi) % TWO_PI - math.pi)
        worst_omega = max(worst_omega, distance)

    violations = 0
    for c in _random_disk(rng, size=1000):
        c = complex(c)
        errs = []
        for bits in (2, 3, 4):
            grid = PhaseGrid(bits)
            i, j = exhaustive_oracle(c, grid)
            errs.append(abs(grid.phasors[i] + grid.phasors[j] - c))
        if not errs[0] >= errs[1] >= errs[2]:
            violations += 1

    checks = [
        (worst_round < 1e-12, f"10^4 round trips: worst error {worst_round:.2e} < 1e-12"),
        (worst_a < 1e-12, f"amplitude identity: worst error {worst_a:.2e} < 1e-12"),
        (worst_omega < 1e-12, f"phase-midpoint identity: worst error {worst_omega:.2e} < 1e-12"),
        (violations == 0,
         f"oracle error non-increasing over B=2->3->4: {violations}/1000 violations"),
    ]
    _criterion("criterion 6: decomposition properties", checks)


def test_criterion_7_mvdr_correctness():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        cfg = ArrayConfig(n, 0.5)
        angles = draw_target_angles(rng, count=k)
        desired = int(rng.integers(k))
        gamma = float(rng.choice([0.1, 1.0]))
        w = mvdr_beamformer(cfg, angles, gamma, desired)
        a_mat = np.column_stack([steering_vector(cfg, t) for t in angles])
        lhs = gamma * np.eye(n) + a_mat @ a_mat.conj().T
        resid = np.linalg.norm(lhs @ w - a_mat[:, desired])
        worst = max(worst, resid)

    w1 = mvdr_beamformer(CFG, (17.0,), gamma=0.1)
    closed = steering_vector(CFG, 17.0) / 16.1
    gap = float(np.max(np.abs(w1 - closed)))

    checks = [
        (worst < 1e-10, f"1000 scenarios: worst residual {worst:.2e} < 1e-10"),
        (gap < 1e-10, f"K=1 closed form a/(gamma+N): max gap {gap:.2e} < 1e-10"),
    ]
    _criterion("criterion 7: multi-target solve correctness", checks)


def test_criterion_8_sweep_determinism(tmp_path):
    outs = [tmp_path / name for name in ("r1", "r2", "w2")]
    base = ["sweep", "--bits=2:6", "--norms=1,2", "--trials=12", "--seed=42"]
    codes = [
        cli.main([*base, "--workers=1", f"--out={outs[0]}"]),
        cli.main([*base, "--workers=1", f"--out={outs[1]}"]),
        cli.main([*base, "--workers=2", f"--out={outs[2]}"]),
    ]
    blobs = [(out / "sweep.csv").read_bytes() for out in outs]
    checks = [
        (codes == [0, 0, 0], f"all runs exit 0 (got {codes})"),
        (blobs[0] == blobs[1], "two identical runs produce identical bytes"),
        (blobs[0] == blobs[2], "worker counts 1 and 2 produce identical bytes"),
    ]
    _criterion("criterion 8: sweep CSV determinism", checks)
