import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dpspesa import beamformers
from dpspesa.array_model import (
    ArrayConfig,
    beampattern_trace,
    levels_db,
    steering_vector,
)
from dpspesa.beamformers import TargetScenario, mvdr_beamformer
from dpspesa.experiments import draw_target_angles

FIG3_TARGETS = (-47.0, 30.0, 49.0)


def _fig3_scenario():
    return TargetScenario(FIG3_TARGETS, desired_index=2)


def _residual(config, scenario, gamma, w):
    a_mat = np.column_stack(
        [steering_vector(config, t) for t in scenario.target_angles_deg]
    )
    lhs = gamma * np.eye(config.n_antennas) + a_mat @ a_mat.conj().T
    return np.linalg.norm(lhs @ w - a_mat[:, scenario.desired_index])


def test_scenario_validation():
    with pytest.raises(ValueError):
        TargetScenario(())
    with pytest.raises(ValueError):
        TargetScenario((6.0, 6.0))
    with pytest.raises(ValueError):
        TargetScenario((6.0, 11.0), desired_index=2)
    with pytest.raises(ValueError):
        TargetScenario((95.0,))


def test_steering_beamformer_matches_steering_vector():
    # The single-target beamformer is the steering vector itself: it peaks
    # at N^2 toward its own look direction.
    cfg = ArrayConfig(4, 0.5)
    assert_allclose(steering_vector(cfg, 0.0), np.ones(4), rtol=0, atol=0)
    assert_allclose(
        steering_vector(ArrayConfig(2, 0.5), 30.0), [1.0, 1j], atol=1e-12
    )
    tr = beampattern_trace(cfg, steering_vector(cfg, -12.0), 0.1)
    assert tr.angles_deg[np.argmax(tr.power_linear)] == pytest.approx(-12.0)
    assert tr.power_linear.max() == pytest.approx(16.0, rel=1e-9)


def test_mvdr_single_target_closed_form():
    # For one target, (gamma*I + a a^H)^{-1} a = a / (gamma + N).
    cfg = ArrayConfig(16, 0.5)
    scenario = TargetScenario((17.0,))
    w = mvdr_beamformer(cfg, scenario, gamma=0.1)
    assert_allclose(w, steering_vector(cfg, 17.0) / 16.1, atol=1e-10)
    assert _residual(cfg, scenario, 0.1, w) < 1e-10 * 4.0


def test_mvdr_large_gamma_tends_to_steering():
    cfg = ArrayConfig(16, 0.5)
    scenario = _fig3_scenario()
    w = mvdr_beamformer(cfg, scenario, gamma=1e6)
    tr = beampattern_trace(cfg, w, 0.1)
    assert tr.angles_deg[np.argmax(tr.power_linear)] == pytest.approx(49.0, abs=0.1)


def test_mvdr_reference_scenario_nulls():
    cfg = ArrayConfig(16, 0.5)
    scenario = _fig3_scenario()
    w = mvdr_beamformer(cfg, scenario, gamma=0.1)
    assert _residual(cfg, scenario, 0.1, w) < 1e-10 * 4.0
    # Local minima at the undesired targets, against the levels one degree
    # (ten grid steps) to either side.
    for clutter in (-47.0, 30.0):
        below, at, above = levels_db(cfg, w, [clutter - 1.0, clutter,
                                              clutter + 1.0], 0.1)
        assert at < below
        assert at < above


def test_mvdr_rejects_nonpositive_gamma():
    cfg = ArrayConfig(8, 0.5)
    scenario = TargetScenario((6.0, 29.0))
    for gamma in (0.0, -0.1):
        with pytest.raises(ValueError):
            mvdr_beamformer(cfg, scenario, gamma)


def test_mvdr_bounds_n_squared_before_building_arrays(monkeypatch):
    # A lowered bound stands in for a huge N: 9 x 9 exceeds 64 entries, and
    # the check must run before any steering vector or matrix is built.
    monkeypatch.setattr(beamformers, "MAX_GRID_ENTRIES", 64)
    scenario = TargetScenario((6.0, 29.0))
    assert mvdr_beamformer(ArrayConfig(8, 0.5), scenario, 0.1).shape == (8,)

    def forbidden(*args, **kwargs):
        raise AssertionError("built an array before the N x N bound check")

    monkeypatch.setattr(beamformers, "steering_vector", forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    with pytest.raises(ValueError, match="9 x 9 MVDR matrix exceeds 64"):
        mvdr_beamformer(ArrayConfig(9, 0.5), scenario, 0.1)


def test_mvdr_warns_when_targets_exceed_antennas():
    cfg = ArrayConfig(4, 0.5)
    scenario = TargetScenario((-46.0, -23.0, 0.0, 23.0, 46.0))
    with pytest.warns(UserWarning):
        w = mvdr_beamformer(cfg, scenario, gamma=0.1)
    assert w.shape == (4,)


def test_mvdr_residual_property_random_scenarios():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        cfg = ArrayConfig(n, 0.5)
        angles = draw_target_angles(rng, count=k)
        scenario = TargetScenario(angles, int(rng.integers(k)))
        gamma = float(rng.choice([0.1, 1.0]))
        w = mvdr_beamformer(cfg, scenario, gamma)
        assert _residual(cfg, scenario, gamma, w) < 1e-10 * math.sqrt(n)


def test_regularized_matrix_is_hermitian_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        cfg = ArrayConfig(n, 0.5)
        angles = draw_target_angles(rng, count=k)
        a_mat = np.column_stack([steering_vector(cfg, t) for t in angles])
        gamma = float(10.0 ** rng.uniform(-3, 2))
        lhs = gamma * np.eye(n) + a_mat @ a_mat.conj().T
        assert np.all(np.real(np.diag(lhs)) > 0)
        np.linalg.cholesky(lhs)  # raises LinAlgError if not PD


def test_mvdr_small_gamma_deep_nulls():
    # Well-separated targets, gamma -> 0: undesired targets at least 40 dB
    # below the desired level.
    cfg = ArrayConfig(16, 0.5)
    scenario = TargetScenario((-40.0, 10.0, 49.0), 1)
    w = mvdr_beamformer(cfg, scenario, gamma=1e-6)
    desired_level, *clutter_levels = levels_db(cfg, w, [10.0, -40.0, 49.0], 0.1)
    for level in clutter_levels:
        assert level <= desired_level - 40.0


def test_mvdr_argmax_near_desired_target():
    # Keeps targets away from endfire: past ~65 degrees the steered main
    # lobe spills over the visible-region edge and wraps to the far side,
    # so the global argmax no longer tracks the desired angle.
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        angles = draw_target_angles(rng, count=3, span_deg=60.0,
                                    min_sep_deg=10.0)
        desired = int(rng.integers(3))
        scenario = TargetScenario(angles, desired)
        w = mvdr_beamformer(cfg, scenario, gamma=0.1)
        tr = beampattern_trace(cfg, w, 0.1)
        peak = tr.angles_deg[np.argmax(tr.power_linear)]
        assert abs(peak - angles[desired]) <= 1.0
