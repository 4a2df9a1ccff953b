import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dpspesa import array_model
from dpspesa.array_model import (
    MAX_GRID_ENTRIES,
    ArrayConfig,
    _grid_points,
    _grid_response,
    _normalized_db,
    _rms_db,
    angle_grid_deg,
    beampattern_trace,
    levels_db,
    steering_matrix,
    steering_vector,
)

TWO_PI = 2.0 * math.pi


def test_config_validation():
    with pytest.raises(ValueError):
        ArrayConfig(0, 0.5)
    with pytest.raises(ValueError):
        ArrayConfig(4, 0.0)
    with pytest.raises(ValueError):
        ArrayConfig(4, -0.5)
    for spacing in (math.inf, math.nan):
        with pytest.raises(ValueError, match="spacing_wavelengths"):
            ArrayConfig(4, spacing)


def test_steering_broadside_is_all_ones():
    a = steering_vector(ArrayConfig(4, 0.5), 0.0)
    assert_allclose(a, np.ones(4), rtol=0, atol=0)


def test_steering_two_element_30deg():
    a = steering_vector(ArrayConfig(2, 0.5), 30.0)
    assert_allclose(a, [1.0, 1j], atol=1e-12)


def test_steering_entries_match_exponent_formula():
    # Independent per-element check of the exponent n*pi*sin(theta) for
    # N=16, half-wavelength spacing, 49 degrees.
    theta = math.radians(49.0)
    a = steering_vector(ArrayConfig(16, 0.5), 49.0)
    for n in range(16):
        arg = (n * math.pi * math.sin(theta)) % TWO_PI
        assert abs(a[n] - cmath.exp(1j * arg)) < 1e-12


def test_steering_first_entry_exactly_one():
    a = steering_vector(ArrayConfig(8, 0.7), 17.0)
    assert a[0] == 1.0 + 0.0j


def test_steering_unit_modulus():
    rng = np.random.default_rng(0)
    for _ in range(100):
        angle = rng.uniform(-90.0, 90.0)
        a = steering_vector(ArrayConfig(16, 0.5), angle)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12


def test_steering_rejects_out_of_range_angle():
    cfg = ArrayConfig(4, 0.5)
    message = r"angles must be finite and lie in \[-90, 90\] degrees, got "
    for angle, shown in ((90.01, "90.01"), (-100.0, "-100"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=message + shown):
            steering_vector(cfg, angle)
    for angles in ([0.0, 17.0, -100.0], [[6.0], [math.nan]]):
        with pytest.raises(ValueError, match=message):
            steering_matrix(cfg, angles)
    assert steering_matrix(cfg, [-90.0, 90.0]).shape == (2, 4)


@pytest.mark.parametrize("n_antennas", [8, 16, 24])
@pytest.mark.parametrize("spacing", [0.5, 0.7])
def test_steering_in_degrees_keeps_the_radian_formula_bits(n_antennas, spacing):
    # The formula on a radian angle from `math.radians`, as steering was
    # computed before it took degrees: every 0.1-degree grid point and
    # random angles must give the same bits.
    cfg = ArrayConfig(n_antennas, spacing)
    n = np.arange(n_antennas)
    rng = np.random.default_rng(n_antennas)
    grid = angle_grid_deg(0.1)
    for angle in [*grid.tolist(), *rng.uniform(-90.0, 90.0, 500).tolist()]:
        want = np.exp(1j * TWO_PI * n * spacing * np.sin(math.radians(angle)))
        assert np.array_equal(steering_vector(cfg, angle), want), angle
    phase = TWO_PI * spacing * np.outer(np.sin(np.radians(grid)), n)
    assert np.array_equal(_grid_response(cfg, 0.1)[1], np.exp(1j * phase).conj())


def _power_at(config, w, angle_deg):
    tr = beampattern_trace(config, w, 0.1)
    return tr.power_linear[np.argmin(np.abs(tr.angles_deg - angle_deg))]


def test_power_at_look_direction_is_n_squared():
    cfg = ArrayConfig(16, 0.5)
    w = steering_vector(cfg, 21.0)
    assert_allclose(_power_at(cfg, w, 21.0), 256.0, rtol=1e-9)


def test_power_two_element_broadside_null():
    cfg = ArrayConfig(2, 0.5)
    w = steering_vector(cfg, 0.0)
    assert _power_at(cfg, w, 90.0) < 1e-18


def test_power_two_element_hand_value():
    # a^H(30deg) [1,1] = 1 + exp(-j*pi/2) = 1 - j, so power 2.
    cfg = ArrayConfig(2, 0.5)
    assert_allclose(_power_at(cfg, [1.0, 1.0], 30.0), 2.0, atol=1e-12)


def test_power_rejects_length_mismatch():
    with pytest.raises(ValueError):
        beampattern_trace(ArrayConfig(4, 0.5), [1.0, 1.0])


def _db(power, floor_db=-80.0):
    # Peak-normalized dB as beampattern_trace computes it from linear powers.
    power = np.asarray(power, dtype=float)
    return _normalized_db(power, power.max(axis=-1, keepdims=True), floor_db)


def test_db_normalization_ratio_100_is_minus_20():
    assert_allclose(_db([256.0, 2.56]), [0.0, -20.0], atol=1e-12)


def test_db_all_equal_powers_are_zero_db():
    assert_allclose(_db([3.5, 3.5, 3.5]), 0.0, rtol=0, atol=0)


def test_db_zero_power_clamps_to_floor():
    assert _db([1.0, 0.0], floor_db=-80.0)[1] == -80.0


def test_db_all_zero_pattern_is_floor_everywhere():
    assert_allclose(_db([0.0, 0.0], floor_db=-80.0), -80.0, rtol=0, atol=0)
    tr = beampattern_trace(ArrayConfig(4, 0.5), np.zeros(4), 0.5, -80.0)
    assert_allclose(tr.power_db, -80.0, rtol=0, atol=0)


def test_trace_contract_errors():
    cfg = ArrayConfig(4, 0.5)
    w = np.ones(4, dtype=complex)
    for step in (0.0, -0.1, 0.07):
        with pytest.raises(ValueError):
            beampattern_trace(cfg, w, step)
    for floor_db in (0.0, 3.0):
        with pytest.raises(ValueError, match="floor_db"):
            beampattern_trace(cfg, w, 0.1, floor_db)
        with pytest.raises(ValueError, match="floor_db"):
            _db([1.0, 1.0], floor_db)


def test_trace_peak_is_zero_db_and_at_look_direction():
    cfg = ArrayConfig(16, 0.5)
    w = steering_vector(cfg, 30.0)
    tr = beampattern_trace(cfg, w, 0.1)
    assert tr.power_db.max() == 0.0
    peak_angle = tr.angles_deg[np.argmax(tr.power_linear)]
    assert peak_angle == pytest.approx(30.0, abs=1e-9)
    assert tr.power_linear.max() == pytest.approx(256.0, rel=1e-9)


def test_trace_scale_invariance():
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(1)
    w = rng.normal(size=16) + 1j * rng.normal(size=16)
    scale = 0.37 - 2.1j
    a = beampattern_trace(cfg, w, 0.5)
    b = beampattern_trace(cfg, scale * w, 0.5)
    assert_allclose(a.power_db, b.power_db, atol=1e-9)


def test_conjugate_symmetry_of_response():
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(2)
    w = rng.normal(size=16) + 1j * rng.normal(size=16)
    # The grid is symmetric about 0, so reversing it maps theta to -theta.
    p1 = beampattern_trace(cfg, w, 0.1).power_linear
    p2 = beampattern_trace(cfg, np.conj(w), 0.1).power_linear[::-1]
    assert_allclose(p1, p2, rtol=1e-9, atol=1e-9)


def test_sampler_cache_is_bounded_and_read_only():
    for n in range(4, 4 + 2 * _grid_response.cache_info().maxsize):
        beampattern_trace(ArrayConfig(n, 0.5), np.ones(n), 0.5)
    info = _grid_response.cache_info()
    assert 4 <= info.maxsize <= 16
    assert info.currsize == info.maxsize
    grid_deg, response = _grid_response(ArrayConfig(4, 0.5), 0.5)
    assert not grid_deg.flags.writeable and not response.flags.writeable
    with pytest.raises(ValueError):
        response[0, 0] = 0.0
    # A repeated geometry reuses the cached grid instead of rebuilding it.
    a = beampattern_trace(ArrayConfig(4, 0.5), np.ones(4), 0.5)
    b = beampattern_trace(ArrayConfig(4, 0.5), np.full(4, 2j), 0.5)
    assert a.angles_deg is b.angles_deg is grid_deg


def test_default_angle_grid():
    grid = angle_grid_deg(0.1)
    assert grid.size == 1801
    assert grid[0] == -90.0 and grid[-1] == 90.0
    assert np.all(np.diff(grid) > 0)
    with pytest.raises(ValueError):
        angle_grid_deg(0.0)
    with pytest.raises(ValueError):
        angle_grid_deg(0.07)


def test_grid_size_bound_is_checked_before_allocation():
    # Only the pure count is exercised: no grid or matrix is built here.
    assert _grid_points(0.1) == _grid_points(0.1, 24) == 1801
    most = MAX_GRID_ENTRIES // 1801
    assert most > 24 * 50
    assert _grid_points(0.1, most) == 1801
    for step, n in ((0.1, most + 1), (1e-6, 16), (180 / MAX_GRID_ENTRIES, 1),
                    (5e-324, 1)):
        with pytest.raises(ValueError, match="steering-matrix entries"):
            _grid_points(step, n)
    for step in (0.0, -0.1, math.nan, 0.07, math.inf):
        with pytest.raises(ValueError, match="step_deg"):
            _grid_points(step, 16)


def test_sampler_checks_grid_size_first(monkeypatch):
    # A lowered bound on a geometry no other test caches: nothing large is
    # built whether or not the check runs.
    monkeypatch.setattr(array_model, "MAX_GRID_ENTRIES", 100)
    with pytest.raises(ValueError, match="steering-matrix entries"):
        beampattern_trace(ArrayConfig(7, 0.37), np.ones(7), 9.0)


_moduli = st.floats(0.0, 2.0)
_phases = st.floats(-math.pi, math.pi)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    shape=st.sampled_from([(), (3,), (2, 2)]),
    step=st.sampled_from([0.1, 0.5, 2.0, 9.0]),
    offsets=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
    data=st.data(),
)
def test_levels_equal_the_trace_at_the_nearest_points(n, shape, step, offsets,
                                                      data):
    # Stacks (N,), (k, N) and (a, b, N); angles off the grid, including
    # midpoints between two grid points, where the first one wins.
    size = math.prod(shape) * n
    mod = np.array(data.draw(st.lists(_moduli, min_size=size, max_size=size)))
    arg = np.array(data.draw(st.lists(_phases, min_size=size, max_size=size)))
    w = (mod * np.exp(1j * arg)).reshape(shape + (n,))
    cfg = ArrayConfig(n, 0.5)
    grid = angle_grid_deg(step)
    base = data.draw(st.lists(st.integers(0, grid.size - 1),
                              min_size=len(offsets), max_size=len(offsets)))
    angles = np.clip(grid[base] + np.array(offsets) * step, -90.0, 90.0)
    trace = beampattern_trace(cfg, w, step, -60.0)
    # The closest grid point, the first one on a tie.
    idx = np.argmin(np.abs(trace.angles_deg - angles[:, None]), axis=-1)
    levels = levels_db(cfg, w, angles, step, -60.0)
    assert levels.shape == shape + (len(angles),)
    assert np.array_equal(levels, trace.power_db[..., idx])


def test_levels_of_an_all_zero_vector_are_the_floor():
    cfg = ArrayConfig(4, 0.5)
    w = np.stack([np.zeros(4), np.ones(4)])
    levels = levels_db(cfg, w, [-30.0, 0.05, 0.0], 0.1, -70.0)
    trace = beampattern_trace(cfg, w, 0.1, -70.0)
    assert np.array_equal(levels[0], np.full(3, -70.0))
    assert np.array_equal(levels, trace.power_db[..., [600, 900, 900]])
    assert levels[1, 2] == 0.0
    # -89 lies exactly halfway between the 2-degree grid's first two points;
    # the first one wins.
    w = np.exp(0.3j * np.arange(4))
    power_db = beampattern_trace(cfg, w, 2.0).power_db
    assert power_db[0] != power_db[1]
    assert levels_db(cfg, w, [-89.0], 2.0)[0] == power_db[0]


def test_levels_contract_errors():
    cfg = ArrayConfig(4, 0.5)
    with pytest.raises(ValueError, match="finite"):
        levels_db(cfg, np.ones(4), [0.0, math.nan])
    with pytest.raises(ValueError, match="floor_db"):
        levels_db(cfg, np.ones(4), [0.0], 0.1, 0.0)
    with pytest.raises(ValueError, match="weights along the last axis"):
        levels_db(cfg, np.ones(3), [0.0])


def test_levels_reject_angles_outside_the_grid_span():
    cfg = ArrayConfig(4, 0.5)
    w = np.exp(0.3j * np.arange(4))
    # Out-of-range angles used to read the level at the nearer endpoint.
    for angles in ([120.0, 500.0, -1e9], [0.0, 90.5], [-90.000001]):
        with pytest.raises(ValueError, match=r"\[-90, 90\] degrees"):
            levels_db(cfg, w, angles)
    with pytest.raises(ValueError, match="finite"):
        levels_db(cfg, w, [math.inf])
    with pytest.raises(ValueError, match="got 120"):
        levels_db(cfg, w, [0.0, 120.0])
    # Both endpoints are on every grid.
    power_db = beampattern_trace(cfg, w, 2.0).power_db
    assert np.array_equal(levels_db(cfg, w, [-90.0, 90.0], 2.0),
                          power_db[[0, -1]])


def test_rms_identical_traces_is_zero():
    levels = np.array([[0.0, -10.0, -40.0], [0.0, -10.0, -40.0]])
    assert _rms_db(levels).tolist() == [0.0]


def test_rms_constant_offset_is_abs_offset():
    levels = np.array([[0.0, -10.0, -40.0], [-7.5, -17.5, -47.5]])
    assert _rms_db(levels)[0] == pytest.approx(7.5, abs=1e-12)


def test_rms_three_term_value():
    # diffs (0, 3, 6) -> sqrt(45/3) = sqrt(15)
    levels = np.array([[0.0, -10.0, -40.0], [0.0, -13.0, -46.0]])
    assert _rms_db(levels)[0] == pytest.approx(3.872983346207417, abs=1e-12)


def test_rms_index_selection_and_errors():
    levels = np.array([[0.0, -10.0, -40.0], [0.0, -13.0, -46.0]])
    assert _rms_db(levels[:, [1]])[0] == pytest.approx(3.0, abs=1e-12)
    # Row 0 is the reference for every later row, and leading axes stay.
    stack = np.array([[0.0, -10.0, -40.0], [0.0, -13.0, -46.0],
                      [-7.5, -17.5, -47.5]])
    assert_allclose(_rms_db(stack), [3.872983346207417, 7.5], atol=1e-12)
    assert _rms_db(np.stack([stack, stack[::-1]])).shape == (2, 2)
