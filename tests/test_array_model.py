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
    _grid_index,
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


@pytest.mark.parametrize("n", [2.5, 4.0, True, False, "4", None])
def test_config_rejects_a_non_integral_antenna_count(n):
    with pytest.raises(ValueError, match="^n_antennas must be a positive integer$"):
        ArrayConfig(n, 0.5)


def test_config_takes_numpy_integer_antenna_counts():
    config = ArrayConfig(np.int64(3), 0.5)
    assert steering_vector(config, 30.0).shape == (3,)
    assert ArrayConfig(np.int32(1)).n_antennas == 1


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


@settings(max_examples=100, deadline=None)
@given(n_antennas=st.integers(1, 40), spacing=st.floats(0.05, 3.0),
       shape=st.sampled_from([(0,), (1,), (5,), (3, 4), (2, 1, 3)]),
       data=st.data())
def test_steering_rows_of_an_angle_array_equal_scalar_calls(n_antennas,
                                                            spacing, shape,
                                                            data):
    cfg = ArrayConfig(n_antennas, spacing)
    size = math.prod(shape)
    angles = np.array(data.draw(st.lists(
        st.floats(-90.0, 90.0) | st.sampled_from([-90.0, -0.0, 0.0, 90.0]),
        min_size=size, max_size=size))).reshape(shape)
    rows = steering_vector(cfg, angles)
    assert rows.shape == shape + (n_antennas,)
    for index in np.ndindex(shape):
        assert np.array_equal(rows[index],
                              steering_vector(cfg, float(angles[index])))


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


def test_non_finite_weights_are_refused():
    cfg = ArrayConfig(4, 0.5)
    w = np.array([1.0, 1.0, math.nan, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        beampattern_trace(cfg, w, 1.0)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        levels_db(cfg, w, [0.0], 1.0)


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


def test_non_finite_floor_is_refused():
    cfg = ArrayConfig(4, 0.5)
    w = np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="^floor_db must be finite$"):
        beampattern_trace(cfg, w, 0.1, -math.inf)
    with pytest.raises(ValueError, match="^floor_db must be finite$"):
        levels_db(cfg, w, [0.0], 0.1, -math.inf)
    for floor_db in (math.inf, math.nan):
        with pytest.raises(ValueError, match="^floor_db must be negative$"):
            _db([1.0, 0.0], floor_db)


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


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 9),
    shape=st.sampled_from([(1,), (3,), (2, 5), (4, 2, 2)]),
    step=st.sampled_from([0.1, 0.5, 2.0, 9.0]),
    count=st.integers(1, 4),
    data=st.data(),
)
def test_levels_of_blocks_equal_one_call_per_block(n, shape, step, count,
                                                   data):
    # Weights (T, ..., N) read at angles (T, K): block t at its own angles,
    # grid points and midpoints among them.
    size = math.prod(shape) * n
    mod = np.array(data.draw(st.lists(_moduli, min_size=size, max_size=size)))
    arg = np.array(data.draw(st.lists(_phases, min_size=size, max_size=size)))
    w = (mod * np.exp(1j * arg)).reshape(shape + (n,))
    cfg = ArrayConfig(n, 0.5)
    grid = angle_grid_deg(step)
    points = st.integers(0, grid.size - 1).map(lambda i: grid[i])
    angle = points | points.map(lambda a: min(a + step / 2, 90.0)) | \
        st.floats(-90.0, 90.0)
    angles = np.array(data.draw(st.lists(
        angle, min_size=shape[0] * count, max_size=shape[0] * count)))
    angles = angles.reshape(shape[0], count)
    levels = levels_db(cfg, w, angles, step, -60.0)
    assert levels.shape == shape + (count,)
    for t in range(shape[0]):
        assert np.array_equal(levels[t],
                              levels_db(cfg, w[t], angles[t], step, -60.0))


def test_levels_of_sweep_sized_blocks_equal_one_call_per_block(monkeypatch):
    # Ten blocks of 45 vectors at N=16 on the 0.1-degree grid, each with
    # its own three angles, as a sweep block scores them: one coarse
    # product for all blocks, then one product per block.
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(17)
    w = np.stack([steering_vector(cfg, a) for a in rng.uniform(-80, 80, 10)])
    w = w[:, None] * np.exp(0.3j * rng.normal(size=(10, 45, 16)))
    angles = rng.integers(-85, 86, size=(10, 3)).astype(float)
    want = np.stack([levels_db(cfg, w[t], angles[t]) for t in range(10)])
    rows = _count_product_rows(monkeypatch)
    assert np.array_equal(levels_db(cfg, w, angles), want)
    assert len(rows) == 11 and rows[0] == 114 and min(rows) >= 2


@settings(max_examples=200, deadline=None)
@given(intervals=st.integers(20, 1800), data=st.data())
def test_grid_index_equals_the_argmin_over_the_grid(intervals, data):
    # Steps of 0.1 to 9 degrees; grid points, midpoints between neighbours
    # (where ties sit), both ends and angles anywhere in between.
    grid = angle_grid_deg(180.0 / intervals)
    k = st.integers(0, grid.size - 2)
    angle = (k.map(lambda i: grid[i])
             | k.map(lambda i: (grid[i] + grid[i + 1]) / 2)
             | st.sampled_from([-90.0, 90.0]) | st.floats(-90.0, 90.0))
    angles = np.array(data.draw(st.lists(angle, min_size=1, max_size=6)))
    want = np.argmin(np.abs(grid - angles[:, None]), axis=-1)
    assert np.array_equal(_grid_index(grid, angles), want)


def test_grid_index_ties_go_to_the_first_point():
    # Every odd degree lies exactly halfway between two points of the
    # 2-degree grid, and -89.95 halfway between the first two at 0.1.
    odd = np.arange(-89.0, 90.0, 2.0)
    assert np.array_equal(_grid_index(angle_grid_deg(2.0), odd),
                          np.arange(odd.size))
    grid = angle_grid_deg(0.1)
    assert abs(grid[0] - -89.95) == abs(grid[1] - -89.95)
    assert _grid_index(grid, [-89.95, 90.0, -90.0]).tolist() == [0, 1800, 0]


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
    # Angles (T, K) need weights (T, ..., N).
    for w in (np.ones(4), np.ones((3, 4)), np.ones((3, 2, 4))):
        with pytest.raises(ValueError, match="angles of 2 blocks"):
            levels_db(cfg, w, [[0.0], [10.0]])
    # Angles of more than two dimensions used to be flattened silently.
    with pytest.raises(ValueError, match=r"\(K,\) or \(T, K\), got shape "
                       r"\(2, 1, 3\)"):
        levels_db(ArrayConfig(8), np.ones((2, 8)), np.zeros((2, 1, 3)))


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


def _binomial_alternating(n):
    return np.array([(-1) ** k * math.comb(n - 1, k) for k in range(n)], complex)


def _two_lobes(cfg, angle):
    return steering_vector(cfg, angle) + steering_vector(cfg, -angle)


# (config, weights, angles, grid step) that stress the bounded peak.
_PEAK_CASES = {
    # Steered halfway between two first-pass points (every 16th of 1801).
    "peak-between-coarse-points": (
        ArrayConfig(16, 0.5), lambda c: steering_vector(c, -90.0 + 0.1 * 24),
        [10.0, -30.0], 0.1),
    "peak-off-grid": (
        ArrayConfig(24, 0.5), lambda c: steering_vector(c, 33.333), [33.3], 0.1),
    "two-equal-lobes": (
        ArrayConfig(16, 0.5), lambda c: _two_lobes(c, 40.85), [0.0, 40.9], 0.1),
    "zero-vector-in-stack": (
        ArrayConfig(8, 0.5),
        lambda c: np.stack([np.zeros(8), steering_vector(c, 7.05)]),
        [7.0, -60.0], 0.1),
    "zero-vector-one-angle": (
        ArrayConfig(8, 0.5), lambda c: np.zeros(8), [12.0], 0.1),
    "one-antenna": (
        ArrayConfig(1, 0.5), lambda c: np.array([[0.3 - 1.1j], [2.0]]),
        [-90.0, 45.0, 90.0], 0.1),
    "small-spacing-alternating-binomial": (
        ArrayConfig(12, 0.05), lambda c: _binomial_alternating(12),
        [-90.0, 0.0, 90.0], 0.1),
    "one-angle": (
        ArrayConfig(16, 0.7), lambda c: steering_vector(c, -61.27), [-61.3], 0.1),
    "grid-endpoints": (
        ArrayConfig(16, 0.5),
        lambda c: np.stack([steering_vector(c, 90.0), steering_vector(c, -90.0)]),
        [-90.0, 90.0], 0.2),
    # Flat to within rounding: the computed peak is decided by the last bits,
    # which only the bound's slack covers.
    "flat-within-rounding": (
        ArrayConfig(4, 1e-14),
        lambda c: np.stack([(1 + np.arange(4)) * np.exp(1.3j * np.arange(4) ** 2),
                            np.exp(-0.4j * np.arange(4))]),
        [0.0, 45.0], 0.1),
    "coarse-grid": (
        ArrayConfig(5, 1.3), lambda c: _binomial_alternating(5) * 1j,
        [-90.0, 27.0], 9.0),
}


def _count_product_rows(monkeypatch) -> list:
    """The row count of each grid product `array_model` computes from now on."""
    rows = []
    field = array_model._field

    def counted(response, w):
        rows.append(len(response))
        return field(response, w)

    monkeypatch.setattr(array_model, "_field", counted)
    return rows


@pytest.mark.parametrize("case", list(_PEAK_CASES))
def test_bounded_peak_levels_equal_the_trace(case, monkeypatch):
    cfg, weights, angles, step = _PEAK_CASES[case]
    w = weights(cfg)
    trace = beampattern_trace(cfg, w, step, -120.0)
    idx = np.argmin(np.abs(trace.angles_deg - np.array(angles)[:, None]), axis=-1)
    assert array_model._subset_rows_exact(cfg, step)  # probed before counting
    rows = _count_product_rows(monkeypatch)
    levels = levels_db(cfg, w, angles, step, -120.0)
    assert np.array_equal(levels, trace.power_db[..., idx])
    # Never a one-row product: numpy computes it by another path.
    assert len(rows) == 2 and min(rows) >= 2


def test_bounded_peak_reads_a_fraction_of_the_grid(monkeypatch):
    cfg = ArrayConfig(16, 0.5)
    w = np.stack([steering_vector(cfg, a) for a in (-20.0, -19.5, 3.0)])
    assert array_model._subset_rows_exact(cfg, 0.1)
    rows = _count_product_rows(monkeypatch)
    levels_db(cfg, w, [-20.0, 3.0, 50.0])
    assert rows[0] == 114 and sum(rows) < 1801 / 4


@pytest.mark.parametrize("n_antennas, spacing, step", [
    (1, 0.5, 0.1), (2, 0.05, 0.1), (8, 0.5, 0.2), (16, 0.5, 0.1),
    (24, 1.7, 0.1), (33, 0.5, 1.0),
])
def test_subset_rows_of_the_product_equal_the_full_product(n_antennas, spacing,
                                                           step):
    # The host property the bounded peak rests on: the field over any two
    # or more rows of the response equals those rows of the whole field.
    cfg = ArrayConfig(n_antennas, spacing)
    _, response = _grid_response(cfg, step)
    rng = np.random.default_rng([n_antennas, 3])
    w = rng.normal(size=(4, n_antennas)) + 1j * rng.normal(size=(4, n_antennas))
    full = array_model._field(response, w)
    points = len(response)
    subsets = [[0, points - 1], [5, 6], [1, 2, 3], np.arange(0, points, 16),
               np.arange(points // 3, points)]
    subsets += [np.sort(rng.choice(points, size, replace=False))
                for size in (2, 3, 7, 40, 150)]
    for rows in subsets:
        assert np.array_equal(array_model._field(response[rows], w),
                              full[:, rows])
    assert array_model._subset_rows_exact(cfg, step)


def test_levels_fall_back_to_the_whole_grid_when_the_probe_fails(monkeypatch):
    cfg = ArrayConfig(16, 0.5)
    w = np.stack([steering_vector(cfg, 12.34), np.exp(0.4j * np.arange(16))])
    angles = [12.3, -40.0]
    want = levels_db(cfg, w, angles)
    calls = []
    trace = array_model.beampattern_trace

    def counted(config, w, step_deg, floor_db):
        calls.append(np.shape(w))
        return trace(config, w, step_deg, floor_db)

    monkeypatch.setattr(array_model, "beampattern_trace", counted)
    levels_db(cfg, w, angles)
    assert calls == []
    monkeypatch.setattr(array_model, "_subset_rows_exact", lambda *args: False)
    assert np.array_equal(levels_db(cfg, w, angles), want)
    assert calls == [(2, 16)]
    # Per-block angles: each block at its own angles, from one whole-grid
    # pass over every block.
    blocks = np.stack([w, w[::-1], w * 1j])
    block_angles = [angles, [-40.0, 12.3], [89.95, -90.0]]
    monkeypatch.undo()
    want = [levels_db(cfg, b, a) for b, a in zip(blocks, block_angles)]
    monkeypatch.setattr(array_model, "beampattern_trace", counted)
    monkeypatch.setattr(array_model, "_subset_rows_exact", lambda *args: False)
    calls.clear()
    assert np.array_equal(levels_db(cfg, blocks, block_angles), want)
    assert calls == [(3, 2, 16)]


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


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_probe_covers_every_call_shape_of_the_levels(monkeypatch, ndim):
    # A BLAS whose subset products round differently in one call shape must
    # fail the probe: one vector (ndim 1), one block against its gathered
    # rows (2, the second pass) or every block against the coarse rows (3,
    # the first pass).
    cfg = ArrayConfig(16, 0.5)
    _, response = _grid_response(cfg, 0.1)
    field = array_model._field

    def skewed(rows, w):
        out = field(rows, w)
        if len(rows) < len(response) and np.ndim(w) == ndim:
            out = out * (1 + 2.0**-50)
        return out

    assert array_model._subset_rows_exact.__wrapped__(cfg, 0.1)
    monkeypatch.setattr(array_model, "_field", skewed)
    assert not array_model._subset_rows_exact.__wrapped__(cfg, 0.1)
