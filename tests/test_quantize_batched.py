"""The batched quantizer against the frozen per-element reference.

`approximate` and `quantize_pesa` take weights of any leading shape
``(..., N)``; every pair and realized weight must equal, bit for bit, what
the per-antenna loop in `dps_reference` produces for the same vector.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dps_reference as ref
from dpspesa.dps_quantize import (
    PhaseGrid,
    approximate,
    nearest_phases,
    normalize_to_max,
    quantize_pesa,
)

TWO_PI = 2.0 * math.pi

# Every resolution with the usual list lengths, plus the full grid where
# the search covers every pair.
CASES = [(b, L) for b in range(1, 13) for L in (1, 2, 3, 5)] + [
    (b, 1 << b) for b in range(1, 7)
]


def _disk(rng, shape, radius=2.0):
    r = radius * np.sqrt(rng.random(shape))
    return r * np.exp(1j * TWO_PI * rng.random(shape))


def _tie_prone(grid, rng):
    """(weights, norm_target) pairs whose exact split sits on grid ties."""
    p = grid.phasors
    i = rng.integers(0, grid.size, 8)
    j = rng.integers(0, grid.size, 8)
    below_2pi = 2.0 * np.exp(-1j * 10.0 ** -np.arange(1, 17))
    axes = np.array([1, -1, 1j, -1j, 2, -2, 2j, -2j])
    tiny = 1e-300 * p[i]
    cases = [
        (p[i] + p[j], 2.0),                       # on-grid pair sums
        (np.append(p[i] + p[j], 2.0), 2.0),       # the same, normalized as is
        (2.0 * p[i], 2.0),                        # |c| = 2
        (tiny, float(np.abs(tiny).max())),        # |c| -> 0, kept tiny
        (np.append(1e-17 * p[j], 2.0), 2.0),      # |c| -> 0 beside a full weight
        (below_2pi, 2.0),                         # phases just below 2*pi
        (axes, 2.0),
        (axes, 1.0),
    ]
    return cases


def _assert_matches_reference(w, grid, count, norm, dps):
    pairs, realized = ref.approximate(w, grid, count, norm)
    assert np.array_equal(dps.pairs, pairs)
    assert np.array_equal(dps.realized, realized)


@pytest.mark.parametrize("bits,count", CASES)
def test_approximate_matches_per_element_reference(bits, count):
    grid = PhaseGrid(bits)
    rng = np.random.default_rng([bits, count])
    cases = [(_disk(rng, 16), 2.0), (_disk(rng, 16), 1.0)]
    cases += _tie_prone(grid, rng)
    for w, norm in cases:
        _assert_matches_reference(w, grid, count, norm,
                                  approximate(w, grid, count, norm))
        assert np.array_equal(quantize_pesa(w, grid), ref.quantize_pesa(w, grid))


def _row(dps, index):
    return type(dps)(dps.grid, dps.pairs[index].copy(), dps.realized[index].copy())


@pytest.mark.parametrize("bits,count", [(2, 2), (4, 3), (7, 5), (12, 1), (3, 8)])
def test_leading_shapes_match_row_by_row_reference(bits, count):
    grid = PhaseGrid(bits)
    rng = np.random.default_rng([bits, count, 1])
    norms = (1.0, 1.5, 2.0)

    # (T, 3, N) with one norm, and (T, 1, N) spread over three norms.
    stack = _disk(rng, (4, 3, 16))
    dps = approximate(stack, grid, count, 1.5)
    assert dps.pairs.shape == (4, 3, 16, 2) and dps.realized.shape == (4, 3, 16)
    for t, k in np.ndindex(4, 3):
        _assert_matches_reference(stack[t, k], grid, count, 1.5,
                                  _row(dps, (t, k)))
    pesa = quantize_pesa(stack, grid)
    for t, k in np.ndindex(4, 3):
        assert np.array_equal(pesa[t, k], ref.quantize_pesa(stack[t, k], grid))

    trials = _disk(rng, (4, 1, 16))
    dps = approximate(trials, grid, count, norms)
    assert dps.realized.shape == (4, 3, 16)
    for t, k in np.ndindex(4, 3):
        _assert_matches_reference(trials[t, 0], grid, count, norms[k],
                                  _row(dps, (t, k)))

    one = _disk(rng, (1, 16))
    dps = approximate(one, grid, count)
    assert dps.realized.shape == (1, 16)
    _assert_matches_reference(one[0], grid, count, 2.0, _row(dps, (0,)))


def test_normalize_is_per_last_axis():
    w = np.array([[1.0, 0.5j], [4.0, -2.0]])
    out = normalize_to_max(w, 2.0)
    assert np.array_equal(out[0], normalize_to_max(w[0], 2.0))
    assert np.array_equal(out[1], normalize_to_max(w[1], 2.0))
    spread = normalize_to_max(w[:, None, :], [1.0, 2.0])
    assert spread.shape == (2, 2, 2)
    assert np.array_equal(spread[1, 0], normalize_to_max(w[1], 1.0))
    with pytest.raises(ValueError):
        normalize_to_max([[1.0, 2.0], [0.0, 0.0]], 2.0)
    with pytest.raises(ValueError):
        normalize_to_max([[1.0], [2.0]], [1.0, 2.5])
    with pytest.raises(ValueError):
        normalize_to_max(1.0, 2.0)


def test_non_finite_weights_are_rejected():
    grid = PhaseGrid(4)
    with pytest.raises(ValueError, match="finite"):
        approximate([1.0, np.nan], grid)
    with pytest.raises(ValueError, match="finite"):
        quantize_pesa([1.0, complex(np.nan, 1.0)], grid)
    with pytest.raises(ValueError, match="finite"):
        nearest_phases(np.inf, grid, 2)


def test_nearest_phases_takes_arrays_of_phases():
    grid = PhaseGrid(5)
    phi = np.array([[0.0, 1.0, TWO_PI - 1e-12], [-3.0, 7.5, math.pi]])
    got = nearest_phases(phi, grid, 3)
    assert got.shape == (2, 3, 3)
    for index in np.ndindex(phi.shape):
        assert np.array_equal(got[index],
                              ref.nearest_phases(phi[index], grid, 3))


_weights = st.tuples(
    st.floats(1e-300, 2.0), st.floats(-10.0, 10.0)
).map(lambda ra: ra[0] * complex(math.cos(ra[1]), math.sin(ra[1])))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.lists(_weights, min_size=4, max_size=4), min_size=1,
                  max_size=5),
    bits=st.integers(1, 12),
    count=st.integers(1, 6),
    norm=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
)
def test_batched_call_equals_row_by_row_calls(rows, bits, count, norm):
    w = np.array(rows, dtype=complex)
    grid = PhaseGrid(bits)
    batched = approximate(w, grid, count, norm)
    for t, row in enumerate(w):
        single = approximate(row, grid, count, norm)
        assert np.array_equal(batched.pairs[t], single.pairs)
        assert np.array_equal(batched.realized[t], single.realized)
        assert np.array_equal(quantize_pesa(w, grid)[t], quantize_pesa(row, grid))
