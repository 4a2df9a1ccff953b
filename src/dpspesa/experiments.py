"""Experiment harness: single-target tracking, clutter reduction, and the
Monte-Carlo sweep over shifter resolution and normalization scale.

One `ScenarioSpec` describes a run and checks every value when it is
built.  All runs are deterministic given the scenario seed; Monte-Carlo
trials re-seed from ``(seed, trial_index)`` so results do not depend on
worker count, block boundaries or execution order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .array_model import (
    DEFAULT_FLOOR_DB,
    DEFAULT_GRID_STEP_DEG,
    ArrayConfig,
    BeampatternTrace,
    _check_floor,
    _check_real,
    _exact,
    _grid_index,
    _grid_points,
    _is_count,
    _rms_db,
    beampattern_trace,
    levels_db,
    steering_vector,
)
from .beamformers import (
    _check_gamma,
    _check_mvdr_size,
    _check_targets,
    mvdr_beamformer,
)
from .dps_quantize import (
    PhaseGrid,
    _check_candidates,
    _check_norm_target,
    approximate,
    quantize_pesa,
)

DEFAULT_GAMMA = 0.1
TARGET_DRAW_RANGE_DEG = 85
TARGET_MIN_SEPARATION_DEG = 2.0
# Whole-set rejection draws before `draw_target_angles` places the angles
# directly; every count the sweep uses is accepted far sooner.
TARGET_DRAW_ATTEMPTS = 1000
# Trials quantized together; bounds a block's arrays whatever the trial count.
SWEEP_BLOCK_TRIALS = 64


@dataclass(frozen=True)
class ScenarioSpec:
    """One experiment configuration; defaults follow the reference setup
    (N=16, half-wavelength spacing, 4-bit shifters, L=3, normalization 2).
    The Monte-Carlo sweep draws its targets per trial and gives none;
    ``desired_index`` indexes ``target_angles_deg``.  Construction checks
    every value with the check of the kernel that reads it: the grid bound
    (`array_model._grid_points`), the targets and desired index (as
    `beamformers.mvdr_beamformer` does), gamma and, when a gamma is
    given, the N x N bound of its MVDR system, bits, L and its pair bound,
    the normalization target, the floor and the seed (`trial_rng`'s
    check).  So a bad spec fails before any draw, steering vector or MVDR
    solve."""

    config: ArrayConfig
    target_angles_deg: tuple = ()
    desired_index: int = 0
    gamma: float | None = None
    bits: int = 4
    candidates_l: int = 3
    norm_target: float = 2.0
    grid_step_deg: float = DEFAULT_GRID_STEP_DEG
    floor_db: float = DEFAULT_FLOOR_DB
    seed: int = 0

    def __post_init__(self):
        _grid_points(self.grid_step_deg, self.config.n_antennas)
        object.__setattr__(
            self, "target_angles_deg",
            tuple(float(t) for t in self.target_angles_deg),
        )
        if self.target_angles_deg:
            _check_targets(self.target_angles_deg, self.desired_index)
        _check_gamma(self.gamma)
        if self.gamma is not None:
            _check_mvdr_size(self.config.n_antennas)
        _check_candidates(self.candidates_l, [PhaseGrid(self.bits)])
        _check_norm_target(self.norm_target)
        _check_floor(self.floor_db)
        _check_seed(self.seed)

    @property
    def desired_angle_deg(self) -> float:
        return self.target_angles_deg[self.desired_index]


class TargetLevels(NamedTuple):
    reference: float
    dps: float
    pesa: float


@dataclass(frozen=True)
class TrialResult:
    """Traces and summary metrics for one experiment run; ``traces`` is
    ``(3, G)``, its rows the reference, dps and pesa patterns."""

    traces: BeampatternTrace
    rms_dps_db: float
    rms_pesa_db: float
    levels_at_targets_db: dict


class SweepRow(NamedTuple):
    bits: int
    norm_target: float
    mean_rms_dps_db: float
    mean_rms_pesa_db: float
    trials: int


@dataclass(frozen=True)
class SweepResult:
    """One row per (bits, norm_target) combination of a Monte-Carlo sweep."""

    rows: tuple


def _check_seed(seed) -> None:
    """A seed must be a non-negative integer, as `numpy.random.SeedSequence`
    takes it."""
    if not _is_count(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, order-insensitive generator for one trial; ``seed``
    must be a non-negative integer."""
    _check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence([seed, trial_index]))


def draw_target_angles(rng: np.random.Generator, count: int = 3) -> np.ndarray:
    """Random integer-degree target directions with pairwise separation.

    Uniform over +/- `TARGET_DRAW_RANGE_DEG` degrees; re-drawn until every
    pair is at least `TARGET_MIN_SEPARATION_DEG` apart, which keeps the
    multi-target solve away from near-coincident steering vectors.  A
    count so dense that `TARGET_DRAW_ATTEMPTS` whole draws all fail is
    placed directly: a uniform choice of the gaps left after the minimum
    separations, in random order.  Raises `ValueError` when ``count`` is
    below 1 or when ``count`` such angles cannot fit in the range.
    """
    if not _is_count(count) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count}")
    lo, hi = -TARGET_DRAW_RANGE_DEG, TARGET_DRAW_RANGE_DEG
    sep = math.ceil(TARGET_MIN_SEPARATION_DEG)
    capacity = (hi - lo) // sep + 1
    if count > capacity:
        raise ValueError(
            f"{count} integer angles {_exact(TARGET_MIN_SEPARATION_DEG)} "
            f"degrees apart do not fit in [{lo}, {hi}] (at most {capacity})"
        )
    for _ in range(TARGET_DRAW_ATTEMPTS):
        angles = rng.integers(lo, hi + 1, size=count).astype(float)
        if count == 1 or np.diff(np.sort(angles)).min() >= sep:
            return angles
    # Sorted angles x_i = lo + y_i + i*(sep - 1) are sep apart exactly when
    # the y_i are distinct points of a range shortened by (count-1)*(sep-1).
    free = hi - lo + 1 - (count - 1) * (sep - 1)
    y = np.sort(rng.choice(free, size=count, replace=False))
    return rng.permutation(lo + y + np.arange(count) * (sep - 1)).astype(float)


def _quantized_trial(spec: ScenarioSpec, w_ref, w_steer,
                     at_targets: bool) -> TrialResult:
    """Score the DPS realization of ``w_ref`` and the phase-only (PESA)
    quantization of the steering vector ``w_steer`` against ``w_ref``.

    RMS errors are taken over the whole grid, or at the grid points nearest
    the target angles when ``at_targets``.
    """
    grid = PhaseGrid(spec.bits)
    dps = approximate(w_ref, grid, spec.candidates_l, spec.norm_target)
    w_pesa = quantize_pesa(w_steer, grid)

    # One pass over the grid; rows: reference, dps, pesa.
    weights = np.stack((w_ref, dps.realized, w_pesa))
    traces = beampattern_trace(spec.config, weights, spec.grid_step_deg,
                               spec.floor_db)
    idx = _grid_index(traces.angles_deg, spec.target_angles_deg)
    levels = traces.power_db[:, idx]  # one column per target
    scored = levels if at_targets else traces.power_db
    rms_dps, rms_pesa = _rms_db(scored).tolist()
    return TrialResult(
        traces,
        rms_dps_db=rms_dps,
        rms_pesa_db=rms_pesa,
        levels_at_targets_db={
            angle: TargetLevels(*column)
            for angle, column in zip(spec.target_angles_deg, levels.T.tolist())
        },
    )


def run_single_target(spec: ScenarioSpec) -> TrialResult:
    """Track one target: steering-vector reference vs. its quantized
    realizations.  RMS errors are taken over the whole angle grid."""
    if len(spec.target_angles_deg) != 1:
        raise ValueError("single-target run requires exactly one target")
    if spec.gamma is not None:
        raise ValueError("single-target run takes no gamma")
    w_steer = steering_vector(spec.config, spec.desired_angle_deg)
    return _quantized_trial(spec, w_steer, w_steer, at_targets=False)


def run_mvdr_clutter(spec: ScenarioSpec) -> TrialResult:
    """Illuminate one of several targets while suppressing the rest.

    The reference is the exact multi-target beamformer; the quantized
    phase-only baseline steers at the desired target.  RMS errors are
    evaluated at the target/clutter angles.
    """
    if len(spec.target_angles_deg) < 2:
        raise ValueError("clutter run requires at least two targets")
    if spec.gamma is None:
        raise ValueError("clutter run requires gamma")
    w_ref = mvdr_beamformer(spec.config, spec.target_angles_deg, spec.gamma,
                            spec.desired_index)
    w_steer = steering_vector(spec.config, spec.desired_angle_deg)
    return _quantized_trial(spec, w_ref, w_steer, at_targets=True)


def _trial_blocks(trials: int, workers: int, cpus: int | None):
    """Worker count and the contiguous trial ranges a sweep runs as blocks.

    Workers are clamped to ``min(workers, cpus or 1, blocks)``; there is at
    least one block per worker and none longer than `SWEEP_BLOCK_TRIALS`.
    """
    workers = max(1, min(workers, cpus or 1, trials))
    count = max(workers, math.ceil(trials / SWEEP_BLOCK_TRIALS))
    edges = [trials * k // count for k in range(count + 1)]
    return workers, [range(a, b) for a, b in zip(edges, edges[1:])]


def _sweep_block(spec: ScenarioSpec, bits_list, norm_list, trials: range):
    """RMS errors of a block of T trials at each trial's target angles.

    Returns dps errors ``(T, bits, norms)`` and pesa errors ``(T, bits)``,
    scored from `levels_db` at the targets, as clutter runs are.
    """
    angles, desired = [], []
    for index in trials:
        rng = trial_rng(spec.seed, index)
        drawn = draw_target_angles(rng, count=3)
        angles.append(drawn)
        desired.append(int(rng.integers(drawn.size)))
    angles = np.stack(angles)
    w_ref = mvdr_beamformer(spec.config, angles, spec.gamma, desired)
    steers = steering_vector(spec.config, angles[np.arange(len(angles)), desired])

    # Every trial's reference at every norm, searched on every grid by one
    # `approximate`, which normalizes it once and splits it at most once.
    grids = tuple(PhaseGrid(bits) for bits in bits_list)
    dps = np.stack([d.realized for d in approximate(
        w_ref[:, None, :], grids, spec.candidates_l, norm_list)], axis=1)
    pesa = np.stack(quantize_pesa(steers, grids), axis=1)

    # Per trial: the reference, then pesa per bits, then dps per (bits, norm).
    n_bits, n_norms = len(bits_list), len(norm_list)
    stack = np.concatenate((w_ref[:, None], pesa,
                            dps.reshape(len(w_ref), -1, w_ref.shape[-1])), axis=1)
    rms = _rms_db(levels_db(spec.config, stack, angles, spec.grid_step_deg,
                            spec.floor_db))
    return rms[:, n_bits:].reshape(-1, n_bits, n_norms), rms[:, :n_bits]


def run_monte_carlo(base: ScenarioSpec, bits_sweep, norm_sweep,
                    trials: int, workers: int = 1) -> SweepResult:
    """Mean beampattern errors over random three-target scenarios.

    Per trial, three random clutter/target directions are drawn, the
    multi-target reference is built (``base.gamma``, defaulting to 0.1),
    and the quantized realizations are scored at the target angles for
    every (bits, norm_target) combination.  Trials run in contiguous
    blocks, sharded over up to ``workers`` processes (see `_trial_blocks`).
    Deterministic for a given ``base.seed`` regardless of ``workers``.
    The sweeps (iterables, not a string or a scalar), counts, bits, L on
    every grid and norms are checked before the first block.
    """
    for name, sweep in (("bits_sweep", bits_sweep), ("norm_sweep", norm_sweep)):
        if isinstance(sweep, (str, bytes)) or not np.iterable(sweep):
            raise ValueError(f"{name} must be a sequence, got {sweep!r}")
    norm_list = tuple(float(_check_real("each norm", v)) for v in norm_sweep)
    for name, count in (("trials", trials), ("workers", workers)):
        if not _is_count(count):
            raise ValueError(f"{name} must be an integer")
        if count < 1:
            raise ValueError(f"{name} must be >= 1")
    trials = int(trials)
    grids = [PhaseGrid(b) for b in bits_sweep]
    bits_list = tuple(int(grid.bits) for grid in grids)
    if not bits_list or not norm_list:
        raise ValueError("bits_sweep and norm_sweep must be non-empty")
    _check_candidates(base.candidates_l, grids)
    _check_norm_target(norm_list)
    if base.gamma is None:
        base = replace(base, gamma=DEFAULT_GAMMA)

    # The CPUs this process may run on, fewer than the host's under an
    # affinity mask (``taskset``, a container's cpuset).
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    workers, blocks = _trial_blocks(trials, workers, cpus)
    if workers == 1:
        results = [_sweep_block(base, bits_list, norm_list, b) for b in blocks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_block, repeat(base), repeat(bits_list),
                                    repeat(norm_list), blocks))

    rms_dps = np.concatenate([r[0] for r in results])
    rms_pesa = np.concatenate([r[1] for r in results])
    # Means over trials from trials-last C-ordered copies: numpy sums each
    # contiguous row as it sums one vector of trials, so every mean has the
    # bits of that vector's `.mean()`.  A mean over axis 0 sums in another
    # order and can differ in the last bit from 8 trials on.
    mean_dps, mean_pesa = (
        np.ascontiguousarray(np.moveaxis(rms, 0, -1)).mean(axis=-1).tolist()
        for rms in (rms_dps, rms_pesa))
    rows = []
    for bi, bits in enumerate(bits_list):
        for ni, norm in enumerate(norm_list):
            rows.append(SweepRow(
                bits=bits,
                norm_target=norm,
                mean_rms_dps_db=mean_dps[bi][ni],
                mean_rms_pesa_db=mean_pesa[bi],
                trials=trials,
            ))
    return SweepResult(rows=tuple(rows))
