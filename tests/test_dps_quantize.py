import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import dps_reference as ref
from dpspesa import dps_quantize
from dpspesa.dps_quantize import (
    _nearest,
    PhaseGrid,
    approximate,
    decompose,
    exhaustive_oracle,
    normalize_to_max,
    oracle_mismatches,
    quantize_pesa,
)

TWO_PI = 2.0 * math.pi


def _random_disk(rng, size=None, radius=2.0):
    r = radius * np.sqrt(rng.random(size))
    return r * np.exp(1j * TWO_PI * rng.random(size))


# ---------------------------------------------------------------- PhaseGrid

def test_grid_structure():
    grid = PhaseGrid(4)
    assert grid.size == 16
    assert grid.step == pytest.approx(TWO_PI / 16, rel=0, abs=0)
    assert grid.phases[0] == 0.0
    assert np.all(np.diff(grid.phases) > 0)
    assert_allclose(np.diff(grid.phases), grid.step, rtol=1e-12)
    assert grid.phases[-1] < TWO_PI
    assert_allclose(np.abs(grid.phasors), 1.0, atol=1e-15)


def test_grid_bits_bounds():
    with pytest.raises(ValueError):
        PhaseGrid(0)
    with pytest.raises(ValueError):
        PhaseGrid(21)


@pytest.mark.parametrize("bits", [2.5, 3.0, True, False, "3", None])
def test_grid_rejects_a_non_integral_bit_count(bits):
    with pytest.raises(ValueError, match=r"^bits must be in \[1, 20\]$"):
        PhaseGrid(bits)


def test_grid_takes_numpy_integer_bits_and_keeps_no_tables_of_its_own():
    grid = PhaseGrid(np.int64(3))
    assert grid.phasors is PhaseGrid(3).phasors
    assert vars(grid) == {"bits": 3}  # the tables live in `_grid_tables`


def test_grid_tables_are_one_read_only_copy_per_bits():
    for bits in (1, 4, 12):
        grid = PhaseGrid(bits)
        assert grid.phases is PhaseGrid(bits).phases
        assert grid.phasors is PhaseGrid(bits).phasors
        assert not grid.phases.flags.writeable
        assert not grid.phasors.flags.writeable
        # The formula the tables have always been built with, bit for bit.
        phases = np.arange(grid.size) * grid.step
        np.testing.assert_array_equal(grid.phases, phases)
        np.testing.assert_array_equal(grid.phasors, np.exp(1j * phases))
    assert PhaseGrid(3).phasors is not PhaseGrid(4).phasors


# -------------------------------------------------------------- decompose

def test_decompose_full_amplitude():
    assert tuple(decompose(2.0)) == (0.0, 0.0)


def test_decompose_zero_uses_fixed_convention():
    phi1, phi2 = decompose(0.0)
    assert phi1 == pytest.approx(math.pi / 2, abs=1e-15)
    assert phi2 == pytest.approx(3 * math.pi / 2, abs=1e-15)


def test_decompose_unit_diagonal():
    # |1+j| = sqrt(2), acos(sqrt(2)/2) = pi/4 -> phases (pi/2, 0).
    phi1, phi2 = decompose(1.0 + 1.0j)
    assert phi1 == pytest.approx(math.pi / 2, abs=1e-15)
    assert phi2 == pytest.approx(0.0, abs=1e-15)


def test_decompose_phase_just_below_zero_reduces_to_two_pi():
    # The reduction's upper end is closed: -1e-16 % (2*pi) rounds to 2*pi.
    c = 2 * cmath.exp(-1e-16j)
    assert tuple(decompose(c)) == (TWO_PI, TWO_PI)
    assert tuple(decompose(c)) == ref.decompose(c)
    # 2*pi names grid phase 0, so the search still lands on the (0, 0) pair.
    for bits in range(1, 7):
        for candidates in (1, 3, 1 << bits):
            dps = approximate([c], PhaseGrid(bits), candidates)
            assert dps.pairs.tolist() == [[0, 0]]
            assert dps.realized.tolist() == [2.0]


def test_decompose_rejects_large_amplitude():
    with pytest.raises(ValueError):
        decompose(2.0 + 1e-6)
    # A float-noise excursion above 2 is tolerated.
    decompose(2.0 + 1e-13)


@pytest.mark.parametrize("c", [complex("nan"), math.inf, complex(1.0, -math.inf),
                               complex(math.nan, 1.0), [1.0, math.nan]])
def test_decompose_rejects_non_finite_weights(c):
    with pytest.raises(ValueError, match="^weights must be finite$"):
        decompose(c)


def test_recompose_values():
    # The phasor sums of the splits of 2, 0 and 1 + j.
    phi1, phi2 = decompose(2.0)
    assert cmath.exp(1j * phi1) + cmath.exp(1j * phi2) == 2.0 + 0.0j
    phi1, phi2 = decompose(0.0)
    assert abs(cmath.exp(1j * phi1) + cmath.exp(1j * phi2)) < 1e-15
    phi1, phi2 = decompose(1.0 + 1.0j)
    assert cmath.exp(1j * phi1) + cmath.exp(1j * phi2) == pytest.approx(
        1.0 + 1.0j)


def test_round_trip_and_identities():
    rng = np.random.default_rng(5)
    for c in _random_disk(rng, size=2000):
        c = complex(c)
        phi1, phi2 = decompose(c)
        assert abs(cmath.exp(1j * phi1) + cmath.exp(1j * phi2) - c) < 1e-12
        # Phase pair identities, read through the mod-2*pi reduction.
        delta = (phi1 - phi2) % TWO_PI
        assert delta <= math.pi + 1e-15  # phi1 carries the positive offset
        assert abs(2.0 * math.cos(delta / 2.0) - abs(c)) < 1e-12
        midpoint = (phi2 + delta / 2.0) % TWO_PI
        omega = math.atan2(c.imag, c.real)
        assert abs((midpoint - omega + math.pi) % TWO_PI - math.pi) < 1e-12


# Moduli anywhere in [0, 2], and crowded against both ends.
_moduli = (st.floats(0.0, 2.0) | st.floats(0.0, 1e-6)
           | st.floats(2.0 - 1e-6, 2.0)
           | st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 2.0,
                              float(np.nextafter(2.0, 0.0))]))
# Phases anywhere, and just below 2*pi (from above and, as arg < 0, below).
_below_two_pi = (st.floats(TWO_PI - 1e-6, TWO_PI, exclude_max=True)
                 | st.sampled_from([float(np.nextafter(TWO_PI, 0.0)),
                                    TWO_PI - 1e-15]))
_phases = (st.floats(-TWO_PI, TWO_PI) | _below_two_pi
           | st.floats(-1e-6, 0.0, exclude_max=True))


@settings(max_examples=400, deadline=None)
@given(modulus=_moduli, phase=_phases)
def test_decompose_property_matches_reference_and_recomposes(modulus, phase):
    c = modulus * cmath.exp(1j * phase)
    phi1, phi2 = decompose(c)
    assert (phi1, phi2) == ref.decompose(c)
    # A phase a hair below 2*pi can round up to 2*pi itself in the
    # reduction, as in the reference.
    assert 0.0 <= phi1 <= TWO_PI and 0.0 <= phi2 <= TWO_PI
    assert abs(cmath.exp(1j * phi1) + cmath.exp(1j * phi2) - c) < 1e-12
    # An array splits element by element as the scalar reference does.
    cs = np.array([[c, -c], [c.conjugate(), c / 3]])
    phi1, phi2 = decompose(cs)
    assert phi1.shape == phi2.shape == cs.shape
    for index in np.ndindex(cs.shape):
        assert (phi1[index], phi2[index]) == ref.decompose(cs[index])


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, 6), data=st.data())
def test_nearest_phases_property_matches_reference_for_every_count(bits, data):
    grid = PhaseGrid(bits)
    k = st.integers(0, grid.size - 1)
    # Grid points, midpoints between neighbours (where ties sit), phases
    # just below 2*pi and arbitrary ones.
    phase = (k.map(lambda i: i * grid.step)
             | k.map(lambda i: (i + 0.5) * grid.step)
             | _below_two_pi | st.floats(-20.0, 20.0))
    phis = np.array(data.draw(st.lists(phase, min_size=1, max_size=4)))
    for count in range(1, grid.size + 1):
        got = _nearest(phis, [grid], count)[0]
        assert got.shape == (phis.size, count)
        for phi, row in zip(phis, got):
            assert row.tolist() == ref.nearest_phases(phi, grid, count).tolist()
            assert row.tolist() == _nearest(phi, [grid], count)[0].tolist()
            dist = np.abs((grid.phases - phi + np.pi) % TWO_PI - np.pi)
            ranked = np.lexsort((np.arange(grid.size), dist))
            assert row.tolist() == ranked[:count].tolist()


def test_nearest_phases_exact_ties_go_to_the_lower_index():
    ties = wrapped = 0
    for bits in range(1, 7):
        grid = PhaseGrid(bits)
        for k in range(grid.size):
            phi = (k + 0.5) * grid.step
            lo, hi = sorted((k, (k + 1) % grid.size))
            dist = np.abs((grid.phases - phi + np.pi) % TWO_PI - np.pi)
            if dist[lo] != dist[hi]:
                continue
            ties += 1
            wrapped += hi - lo > 1
            assert _nearest(np.float64(phi), [grid], 2)[0].tolist() == [lo, hi]
            assert _nearest(np.float64(phi), [grid], 1)[0].tolist() == [lo]
    # Both ordinary ties and ties across the 2*pi wrap were exercised.
    assert ties > 20 and wrapped >= 2


# -------------------------------------------------------- normalize_to_max

def test_normalize_examples():
    assert_allclose(normalize_to_max([1.0, 0.5j], 2.0), [2.0, 1.0j], rtol=1e-15)
    w = np.array([2.0, 1.0j])
    assert_allclose(normalize_to_max(w, 2.0), w, rtol=0, atol=0)
    assert_allclose(normalize_to_max([3.0], 2.0), [2.0], rtol=1e-15)


def test_normalize_hits_target_modulus():
    rng = np.random.default_rng(6)
    for _ in range(200):
        w = _random_disk(rng, size=8)
        target = float(rng.uniform(0.05, 2.0))
        out = normalize_to_max(w, target)
        assert abs(np.abs(out).max() - target) < 1e-12


def test_normalize_errors():
    with pytest.raises(ValueError):
        normalize_to_max([0.0, 0.0], 2.0)
    with pytest.raises(ValueError):
        normalize_to_max([1.0], 0.0)
    with pytest.raises(ValueError):
        normalize_to_max([1.0], 2.5)
    with pytest.raises(ValueError):
        normalize_to_max([], 2.0)


# --------------------------------------------------------- nearest phases

def test_nearest_phases_examples():
    grid = PhaseGrid(2)  # {0, pi/2, pi, 3*pi/2}
    assert list(_nearest(np.float64(math.pi / 3), [grid], 2)[0]) == [1, 0]
    assert list(_nearest(np.float64(0.0), [grid], 1)[0]) == [0]
    assert list(_nearest(np.float64(0.0), [PhaseGrid(5)], 1)[0]) == [0]
    assert list(_nearest(np.float64(TWO_PI - 0.01), [grid], 1)[0]) == [0]


def test_nearest_phases_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(500):
        grid = PhaseGrid(int(rng.integers(1, 8)))
        count = min(int(rng.integers(1, 10)), grid.size)
        phi = float(rng.uniform(-10.0, 10.0))
        got = list(_nearest(np.float64(phi), [grid], count)[0])
        dist = np.abs((grid.phases - phi + np.pi) % TWO_PI - np.pi)
        want = np.lexsort((np.arange(grid.size), dist))[:count]
        assert got == list(want)


# ------------------------------------------------------------ approximate

def test_approximate_exact_on_grid():
    dps = approximate([2.0, 2.0], PhaseGrid(1), candidates=1)
    assert dps.pairs.tolist() == [[0, 0], [0, 0]]
    assert_allclose(dps.realized, [2.0, 2.0], rtol=0, atol=0)


def test_approximate_grid_aligned_weight():
    # 1+j decomposes to (pi/2, 0), both on the 2-bit grid.
    dps = approximate([1.0 + 1.0j], PhaseGrid(2), candidates=2,
                      norm_target=math.sqrt(2.0))
    assert dps.pairs.tolist() == [[0, 1]]
    assert_allclose(dps.realized, [1.0 + 1.0j], atol=1e-12)


def test_approximate_tie_break_all_candidates_equal():
    # For w=1 on the 2-bit grid, the candidate sums {2, 1+j, 1-j, 0} are
    # all at distance 1; the lexicographically smallest pair (0, 0) wins.
    dps = approximate([1.0], PhaseGrid(2), candidates=2, norm_target=1.0)
    assert dps.pairs.tolist() == [[0, 0]]
    assert_allclose(dps.realized, [2.0], rtol=0, atol=0)


def test_approximate_validation():
    with pytest.raises(ValueError):
        approximate([1.0], PhaseGrid(2), candidates=0)
    with pytest.raises(ValueError):
        approximate([0.0, 0.0], PhaseGrid(2))


@pytest.mark.parametrize("candidates", [2.5, 3.0, True, "3", None])
def test_approximate_rejects_a_non_integral_candidate_count(candidates):
    with pytest.raises(ValueError, match="^candidates must be a positive integer$"):
        approximate([1.0], PhaseGrid(2), candidates=candidates)


def test_approximate_takes_a_numpy_integer_candidate_count():
    w = [0.3 + 1.2j, -0.7]
    assert (approximate(w, PhaseGrid(3), np.int64(2)).pairs.tolist()
            == approximate(w, PhaseGrid(3), 2).pairs.tolist())


def test_candidate_search_runs_in_chunks_under_the_pair_bound(monkeypatch):
    # Weights are searched in chunks of at most MAX_GRID_ENTRIES // L^2, here
    # 100 // 9 = 11 of 24 and 100 // 16 = 6 of 8 (L clamped to the grid
    # size); the chunks give the pairs of one search, ties included.
    rng = np.random.default_rng(12)
    w = rng.normal(size=(2, 12)) + 1j * rng.normal(size=(2, 12))
    w[0, :4] = [1, 1j, -1, 2]  # tie-prone moduli and phases
    cases = [(w, PhaseGrid(4), 3), (w[:, :4], PhaseGrid(2), 50)]
    want = [approximate(*case) for case in cases]
    monkeypatch.setattr(dps_quantize, "MAX_GRID_ENTRIES", 100)
    for case, expected in zip(cases, want):
        got = approximate(*case)
        assert np.array_equal(got.pairs, expected.pairs)
        assert np.array_equal(got.realized, expected.realized)

    def nearest(*args):
        raise AssertionError("candidates ranked before the bound was checked")

    monkeypatch.setattr(dps_quantize, "_nearest", nearest)
    with pytest.raises(ValueError, match=r"with 11 candidates per phase "
                       r"builds 11\^2 pairs per weight, more than 100"):
        approximate(np.ones(1), PhaseGrid(4), candidates=11)
    with pytest.raises(ValueError, match="more than 100"):
        oracle_mismatches(np.ones(1), PhaseGrid(4))  # 16^2 pairs


def test_approximate_output_invariants():
    rng = np.random.default_rng(8)
    grid = PhaseGrid(4)
    for _ in range(50):
        w = _random_disk(rng, size=16)
        dps = approximate(w, grid, candidates=3)
        assert np.all(dps.pairs[:, 0] <= dps.pairs[:, 1])
        assert np.all(dps.pairs >= 0) and np.all(dps.pairs < grid.size)
        assert np.abs(dps.realized).max() <= 2.0 + 1e-12
        rebuilt = grid.phasors[dps.pairs[:, 0]] + grid.phasors[dps.pairs[:, 1]]
        assert np.max(np.abs(rebuilt - dps.realized)) < 1e-12


def test_approximate_error_non_increasing_in_candidates():
    # Top-L candidate lists are nested, so per-element error cannot grow.
    rng = np.random.default_rng(9)
    grid = PhaseGrid(4)
    for _ in range(20):
        w = _random_disk(rng, size=8)
        wn = normalize_to_max(w, 2.0)
        prev = None
        for count in (1, 2, 3, 5, 8, 16):
            err = np.abs(approximate(w, grid, count).realized - wn)
            if prev is not None:
                assert np.all(err <= prev + 0.0)
            prev = err


# ------------------------------------------------------ exhaustive_oracle

def test_oracle_examples():
    assert tuple(exhaustive_oracle(2.0, PhaseGrid(3)).tolist()) == (0, 0)
    grid = PhaseGrid(2)
    pair = tuple(exhaustive_oracle(1.0 + 1.0j, grid).tolist())
    assert pair == (0, 1)
    assert grid.phasors[pair[0]] + grid.phasors[pair[1]] == pytest.approx(1.0 + 1.0j)
    # Full enumeration of the 10 canonical pairs leaves a five-way tie at
    # distance 1; (0, 0) is the lexicographic winner.
    assert tuple(exhaustive_oracle(1.0, grid).tolist()) == (0, 0)


def test_oracle_refuses_large_grids():
    with pytest.raises(ValueError):
        exhaustive_oracle(1.0, PhaseGrid(13))


@pytest.mark.parametrize("w", [math.nan, math.inf, complex(1.0, math.nan),
                               complex(-math.inf, 0.0)])
def test_oracle_rejects_a_non_finite_weight(w):
    # A pair of -1 indices would select the last phasor.
    with pytest.raises(ValueError, match=re.escape(f"got {complex(w)!r}")):
        exhaustive_oracle(w, PhaseGrid(3))


def test_full_grid_comparison_rejects_non_finite_weights():
    for w in ([math.nan], [1.0, math.inf], [complex(1.0, math.nan), 1.0]):
        with pytest.raises(ValueError, match="finite"):
            oracle_mismatches(w, PhaseGrid(2))


def test_oracle_matches_candidate_search(monkeypatch):
    calls = []
    normalize = dps_quantize.normalize_to_max
    monkeypatch.setattr(dps_quantize, "normalize_to_max",
                        lambda *args: calls.append(args) or normalize(*args))
    rng = np.random.default_rng(10)
    for bits in (2, 3):
        grid = PhaseGrid(bits)
        assert oracle_mismatches(_random_disk(rng, size=200), grid) == []
    # Each row of a stack is normalized on its own.
    assert oracle_mismatches(_random_disk(rng, size=(4, 16)), PhaseGrid(3)) == []
    # Once per comparison: the oracle reads the weights the search normalized.
    assert len(calls) == 3


def test_oracle_mismatches_reports_wrong_oracle(monkeypatch):
    grid = PhaseGrid(2)
    w = np.array([2.0, 2.0j, -1.0 + 0.5j])
    # On {1, j, -1, -j} the best pairs are 1 + 1, j + j and j - 1, so the
    # patched answer (0, 0) is right for the first weight only.
    monkeypatch.setattr(dps_quantize, "exhaustive_oracle",
                        lambda c, g: np.zeros(np.shape(c) + (2,), int))
    found = oracle_mismatches(w, grid)
    assert [m.weight for m in found] == list(normalize_to_max(w, 2.0)[1:])
    assert [m.search_pair for m in found] == [(1, 1), (1, 2)]
    for m in found:
        assert m.oracle_pair == (0, 0)
        assert m.oracle_error == abs(2.0 - complex(m.weight))
        assert m.search_error < m.oracle_error


def test_oracle_mismatches_reports_a_mirrored_pair(monkeypatch):
    grid = PhaseGrid(2)
    w = np.array([2.0, 2.0j, -1.0 + 0.5j])  # search pairs (0, 0), (1, 1), (1, 2)
    real = dps_quantize.exhaustive_oracle
    monkeypatch.setattr(dps_quantize, "exhaustive_oracle",
                        lambda c, g: real(c, g)[..., ::-1])
    # (0, 0) and (1, 1) read the same both ways; (2, 1) is not canonical
    # although it realizes the same sum, with the same error.
    [found] = oracle_mismatches(w, grid)
    assert (found.search_pair, found.oracle_pair) == ((1, 2), (2, 1))
    assert found.oracle_error == found.search_error
    assert type(found.oracle_pair[0]) is int
    assert type(found.oracle_error) is float and type(found.weight) is complex


def test_oracle_error_non_increasing_with_bits():
    # Every B-bit phase is also a (B+1)-bit phase, so refining the grid
    # cannot hurt.
    rng = np.random.default_rng(11)
    for c in _random_disk(rng, size=100):
        c = complex(c)
        errs = []
        for bits in (2, 3, 4):
            grid = PhaseGrid(bits)
            i, j = exhaustive_oracle(c, grid)
            errs.append(abs(grid.phasors[i] + grid.phasors[j] - c))
        assert errs[0] >= errs[1] >= errs[2]


def test_grids_nest_exactly():
    coarse = PhaseGrid(3).phases
    fine = PhaseGrid(4).phases
    assert np.all(coarse == fine[::2])


# ---------------------------------------------------------- quantize_pesa

def test_quantize_pesa_on_grid_phases_unchanged():
    grid = PhaseGrid(3)
    w = 0.5 * grid.phasors[[0, 3, 5]]
    out = quantize_pesa(w, grid)
    assert_allclose(out, grid.phasors[[0, 3, 5]], rtol=0, atol=0)


def test_quantize_pesa_midpoint_rule():
    # arg 0.3 rad rounds down to phase 0 on {0, pi/2, pi, 3*pi/2}.
    out = quantize_pesa([cmath.exp(0.3j)], PhaseGrid(2))
    assert out[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)


def test_quantize_pesa_unit_modulus():
    rng = np.random.default_rng(12)
    w = _random_disk(rng, size=32)
    w = w[w != 0]
    out = quantize_pesa(w, PhaseGrid(4))
    assert_allclose(np.abs(out), 1.0, atol=1e-15)


def test_quantize_pesa_rejects_zero_entry():
    with pytest.raises(ValueError):
        quantize_pesa([1.0, 0.0], PhaseGrid(2))


@pytest.mark.parametrize("bad", [complex(math.inf, math.inf), math.inf,
                                 complex(math.nan, 0.0), math.nan])
def test_quantize_pesa_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="^weights must be finite$"):
        quantize_pesa(np.array([1.0, bad]), PhaseGrid(3))


def test_quantize_pesa_error_bound():
    rng = np.random.default_rng(13)
    for bits in (2, 3, 4, 6):
        grid = PhaseGrid(bits)
        bound = 2.0 * math.sin(math.pi / 2 ** (bits + 1)) + 1e-12
        w = _random_disk(rng, size=64)
        w = w[np.abs(w) > 1e-6]
        out = quantize_pesa(w, grid)
        err = np.abs(out - np.exp(1j * np.angle(w)))
        assert err.max() <= bound
