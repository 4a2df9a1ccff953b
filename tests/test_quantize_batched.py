"""The batched quantizer against the frozen per-element reference.

`approximate` and `quantize_pesa` take weights of any leading shape
``(..., N)``; every pair and realized weight must equal, bit for bit, what
the per-antenna loop in `dps_reference` produces for the same vector.
"""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dps_reference as ref
from dpspesa import dps_quantize
from dpspesa.dps_quantize import (
    PhaseGrid,
    _nearest,
    approximate,
    exhaustive_oracle,
    normalize_to_max,
    oracle_mismatches,
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


def _oracle_weights(grid, rng):
    """Normalized tie-prone weights, as `oracle_mismatches` hands them to
    the oracle, plus the zero weight and weights on midpoint phases."""
    half = np.exp(0.5j * grid.step)
    p = grid.phasors[rng.integers(0, grid.size, 4)]
    cases = [normalize_to_max(w, norm) for w, norm in _tie_prone(grid, rng)]
    return np.concatenate(cases + [[0.0], 2.0 * p * half, p + p * half,
                                   (p + 1.0) * half])


def _assert_oracle_matches_reference(w, grid):
    """One batched oracle call on ``w`` against the per-row reference."""
    got = exhaustive_oracle(w, grid)
    assert got.shape == np.shape(w) + (2,) and got.dtype == np.int64
    want = [ref.exhaustive_oracle(c, grid) for c in np.ravel(w).tolist()]
    assert list(map(tuple, got.reshape(-1, 2).tolist())) == want


@pytest.mark.parametrize("bits", range(1, 11))
def test_oracle_matches_the_per_row_reference(bits):
    grid = PhaseGrid(bits)
    _assert_oracle_matches_reference(
        _oracle_weights(grid, np.random.default_rng([bits, 2])), grid)


@pytest.mark.parametrize("bits", [11, 12])
def test_oracle_matches_the_per_row_reference_at_the_cap(bits):
    # An on-grid pair sum, |c| = 2, the zero weight and a midpoint phase.
    grid = PhaseGrid(bits)
    p, half = grid.phasors, np.exp(0.5j * grid.step)
    w = np.array([p[5] + p[1000], 2.0 * p[777], 0.0, 2.0 * p[3] * half])
    # A batch, and one weight alone, whose table spans many chunks.
    for shaped in (w, w[:1], w[3].item()):
        _assert_oracle_matches_reference(shaped, grid)


@pytest.mark.parametrize("bits", [2, 5])
def test_oracle_takes_any_batch_shape(bits):
    grid = PhaseGrid(bits)
    w = _oracle_weights(grid, np.random.default_rng([bits, 5]))[:24]
    for shaped in (w[7], w[7].item(), w, w.reshape(4, 6), w.reshape(2, 3, 4)):
        _assert_oracle_matches_reference(shaped, grid)
    # Each weight's pair does not depend on the batch it came in.
    batched = exhaustive_oracle(w.reshape(4, 6), grid).reshape(-1, 2)
    for c, pair in zip(w.tolist(), batched.tolist()):
        assert exhaustive_oracle(c, grid).tolist() == pair
    assert exhaustive_oracle(np.zeros((0, 3)), grid).shape == (0, 3, 2)


@pytest.mark.parametrize("chunk", [1, 20, 200])
def test_oracle_gives_the_same_pair_in_any_number_of_chunks(monkeypatch,
                                                           chunk):
    # With 20 entries a pass, bits 3's 64 codes run [0, 20), [20, 40),
    # [40, 60) and [60, 64), which splits rows 2 and 7 mid-row; with 1,
    # every row is one run.  With 200, bits 1-3 score their whole square
    # against several weights per pass, and bits 4's 256 codes run [0, 200)
    # and [200, 256) one weight at a time, which splits row 12 mid-row.
    monkeypatch.setattr(dps_quantize, "ORACLE_CHUNK_ENTRIES", chunk)
    for bits in range(1, 7):
        grid = PhaseGrid(bits)
        w = _oracle_weights(grid, np.random.default_rng([bits, 3]))
        # A batch, and one weight alone, across the same chunks.
        for shaped in (w, w[:1], w[0].item()):
            _assert_oracle_matches_reference(shaped, grid)


class _PassSizes:
    """numpy, recording the size of every add, subtract and abs result."""

    def __init__(self):
        self.sizes = []

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("add", "subtract", "abs"):
            return fn

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.sizes.append(out.size)
            return out
        return recorded


@pytest.mark.parametrize("chunk", [20, 200, 1 << 14])
def test_oracle_passes_stay_within_the_chunk_bound(monkeypatch, chunk):
    monkeypatch.setattr(dps_quantize, "ORACLE_CHUNK_ENTRIES", chunk)
    passes = _PassSizes()
    monkeypatch.setattr(dps_quantize, "np", passes)
    rng = np.random.default_rng(6)
    for bits in (1, 4, 6):
        grid = PhaseGrid(bits)
        for w in (_disk(rng, 1), _disk(rng, 300)):
            passes.sizes.clear()
            _assert_oracle_matches_reference(w, grid)
            # One pass: at most `chunk` entries, or one row if that is more.
            assert passes.sizes and max(passes.sizes) <= max(chunk, grid.size)
    assert max(passes.sizes) > chunk // 2  # the passes do fill the bound


@pytest.mark.parametrize("shape", [(5,), (3, 4)])
def test_oracle_rejects_a_non_finite_weight_anywhere_in_a_batch(shape):
    grid = PhaseGrid(3)
    finite = _disk(np.random.default_rng(7), shape)
    for bad in (math.nan, math.inf, complex(1.0, math.nan),
                complex(-math.inf, 0.0)):
        for at in range(finite.size):
            w = finite.copy()
            w.flat[at] = bad
            if at + 1 < w.size:
                w.flat[at + 1] = complex(math.nan, math.inf)  # named second
            with pytest.raises(ValueError, match=re.escape(
                    f"the oracle needs a finite weight, got {complex(bad)!r}")):
                exhaustive_oracle(w, grid)


@pytest.mark.parametrize("bits", range(1, 7))
def test_full_grid_search_takes_every_phase_without_ranking(monkeypatch,
                                                            bits):
    def nearest(*args):
        raise AssertionError("the full grid needs no ranking")

    def decompose(*args):
        raise AssertionError("the full grid needs no split")

    monkeypatch.setattr(dps_quantize, "_nearest", nearest)
    monkeypatch.setattr(dps_quantize, "decompose", decompose)
    grid = PhaseGrid(bits)
    rng = np.random.default_rng([bits, 4])
    cases = [(_disk(rng, 16), 2.0), (_disk(rng, 16), 1.0)]
    for w, norm in cases + _tie_prone(grid, rng):
        _assert_matches_reference(w, grid, grid.size, norm,
                                  approximate(w, grid, grid.size, norm))
        assert oracle_mismatches(w, grid) == []


def _as_set(ks):
    """The indices of a `_nearest` row, which are a set in no promised
    order, sorted."""
    return sorted(np.asarray(ks).tolist())


def _is_run(row, n):
    """Whether ``row`` holds len(row) consecutive indices mod ``n``."""
    return any(_as_set((s + np.arange(len(row))) % n) == _as_set(row)
               for s in row.tolist())


@pytest.mark.parametrize("bits", range(7, 13))
def test_nearest_window_matches_reference(bits):
    # Grid points, midpoints between neighbours, phases just below 2*pi and
    # the same phases shifted below 0 and above 2*pi; phases too large for
    # an integer window unless reduced first.
    grid = PhaseGrid(bits)
    k = np.random.default_rng(bits).integers(0, grid.size, 40)
    k = np.concatenate([[0, 1, grid.size - 1], k])
    base = np.concatenate([k * grid.step, (k + 0.5) * grid.step,
                           TWO_PI - 10.0 ** -np.arange(1, 17), [TWO_PI]])
    phis = np.concatenate([base, -base, base - TWO_PI, base + TWO_PI,
                           [1e18, -1e18, 1e300, -1e300]])
    for count in range(1, 6):
        got = _nearest(phis, [grid], count)[0]
        for phi, row in zip(phis.tolist(), got):
            assert _as_set(row) == _as_set(ref.nearest_phases(phi, grid, count))


# `_nearest` places candidates directly unless a phase is within this many
# radians (n * 2^-46 grid steps) of a midpoint (odd counts) or of a grid
# point (even counts).
PLACEMENT_MARGIN = TWO_PI * 2.0**-46
SPECIAL_PHASES = [0.0, -0.0, TWO_PI, np.nextafter(TWO_PI, 0.0), -1e-300,
                  2 * TWO_PI, np.nextafter(2 * TWO_PI, np.inf), -2 * TWO_PI,
                  np.nextafter(-2 * TWO_PI, -np.inf), 1e18, -1e18, 1e300,
                  -1e300]


def _near_ties(grid, k):
    """The grid points and midpoints of the indices ``k``, their float
    neighbours, and the phases 0.5, 1 and 2 placement margins from them."""
    anchors = np.concatenate([k * grid.step, (k + 0.5) * grid.step])
    phis = [anchors, np.nextafter(anchors, -np.inf),
            np.nextafter(anchors, np.inf)]
    for scale in (0.5, 1.0, 2.0):
        phis += [anchors - scale * PLACEMENT_MARGIN,
                 anchors + scale * PLACEMENT_MARGIN]
    return np.concatenate(phis)


@pytest.mark.parametrize("bits", range(4, 15))
def test_nearest_placement_matches_reference_in_order(bits):
    # Near-ties on both sides of 0 and 2*pi and of the 4*pi bound of the
    # placement, and huge phases; at bits 4 counts 7 and 8 rank the whole
    # grid, so the boundary between the two branches is crossed.
    grid = PhaseGrid(bits)
    rng = np.random.default_rng([bits, 16])
    k = np.concatenate([[0, 1, grid.size // 2, grid.size - 1],
                        rng.integers(0, grid.size, 8)])
    phis = _near_ties(grid, k)
    phis = np.concatenate([phis, -phis, phis - TWO_PI, phis + TWO_PI,
                           SPECIAL_PHASES])
    for count in range(1, 9):
        got = _nearest(phis, [grid], count)[0]
        for phi, row in zip(phis.tolist(), got):
            assert _as_set(row) == _as_set(ref.nearest_phases(phi, grid, count))


@pytest.mark.parametrize("bits", range(1, 5))
def test_nearest_on_small_grids_matches_whole_grid_ranking(monkeypatch, bits):
    # Every count below the grid size, including those whose placement runs
    # to the antipode (2L + 2 >= n): grid points, midpoints, their float
    # neighbours and their +-10^-k neighbours, on both sides of 0, 2*pi and
    # 4*pi, against `_rank` over the whole grid.
    grid = PhaseGrid(bits)
    k = np.arange(grid.size)
    anchors = np.concatenate([k * grid.step, (k + 0.5) * grid.step])
    phis = [anchors, np.nextafter(anchors, -np.inf),
            np.nextafter(anchors, np.inf)]
    for e in range(1, 17):
        phis += [anchors - 10.0**-e, anchors + 10.0**-e]
    phis = np.concatenate(phis)
    phis = np.concatenate([phis, -phis, phis - TWO_PI, phis + TWO_PI,
                           SPECIAL_PHASES[:9]])
    generic = np.concatenate([(k + f) * grid.step for f in (0.1, 0.3, 0.7)])
    rank = dps_quantize._rank
    ranked = []

    def recording_rank(phi, ks, grid, count):
        ranked.append(phi.size)
        return rank(phi, ks, grid, count)

    monkeypatch.setattr(dps_quantize, "_rank", recording_rank)
    for count in range(1, grid.size):
        want = rank(phis, np.broadcast_to(k, phis.shape + (grid.size,)), grid,
                    count)
        got = _nearest(phis, [grid], count)[0]
        assert np.array_equal(np.sort(got), np.sort(want))
        # Phases off the near-ties are placed, not ranked.
        ranked.clear()
        want = rank(generic, np.broadcast_to(k, generic.shape + (grid.size,)),
                    grid, count)
        got = _nearest(generic, [grid], count)[0]
        assert np.array_equal(np.sort(got), np.sort(want))
        assert ranked == []


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(4, 14), count=st.integers(1, 8), data=st.data())
def test_nearest_property_matches_reference_around_ties(bits, count, data):
    grid = PhaseGrid(bits)
    k = data.draw(st.integers(0, grid.size - 1))
    anchor = (k + data.draw(st.sampled_from([0.0, 0.5]))) * grid.step
    shift = data.draw(st.sampled_from([0.0, -TWO_PI, TWO_PI]))
    offset = data.draw(st.floats(-4.0, 4.0)) * PLACEMENT_MARGIN
    phis = np.array([anchor + offset + shift, -(anchor + offset)])
    got = _nearest(phis, [grid], count)[0]
    for phi, row in zip(phis.tolist(), got):
        assert _as_set(row) == _as_set(ref.nearest_phases(phi, grid, count))


def test_nearest_ranks_the_window_only_near_ties(monkeypatch):
    ranked = []
    rank = dps_quantize._rank

    def recording_rank(phi, ks, grid, count):
        ranked.append(np.array(phi).tolist())
        return rank(phi, ks, grid, count)

    monkeypatch.setattr(dps_quantize, "_rank", recording_rank)
    grid = PhaseGrid(8)
    k = np.arange(grid.size)
    generic = np.concatenate([(k + f) * grid.step for f in (0.1, 0.3, 0.7, 0.9)])
    points, midpoints = k * grid.step, (k + 0.5) * grid.step
    huge = [5 * math.pi, -1e18]
    phis = np.concatenate([generic, points, midpoints, huge])
    # An odd count ties only at midpoints, an even one only at grid points;
    # every other phase is placed as a run of consecutive indices.
    for count, ties, placed in ((1, midpoints, points), (2, points, midpoints),
                                (3, midpoints, points)):
        ranked.clear()
        rows = _nearest(np.concatenate([generic, placed]), [grid], count)[0]
        assert ranked == []
        assert all(_is_run(row, grid.size) for row in rows)
        _nearest(phis, [grid], count)
        assert ranked == [np.concatenate([ties, huge]).tolist()]


def _several_grid_phases(grids, data):
    """Grid points and midpoints of the ``grids``, their float neighbours,
    negated and shifted by multiples of 2*pi up to |phi| > 4*pi, plus
    arbitrary phases."""
    grid = data.draw(st.sampled_from(grids))
    k = st.integers(0, grid.size - 1)
    anchor = st.builds(lambda i, half: (i + half) * grid.step, k,
                       st.sampled_from([0.0, 0.5]))
    near = st.builds(lambda x, way: np.nextafter(x, way) if way else x,
                     anchor, st.sampled_from([0.0, -np.inf, np.inf]))
    shifted = st.builds(lambda x, sign, turns: sign * x + turns * TWO_PI,
                        near, st.sampled_from([1.0, -1.0]),
                        st.sampled_from([0, -1, 1, -2, 2, 3, -3, 1 << 20]))
    phase = shifted | st.floats(-40.0, 40.0)
    return np.array(data.draw(st.lists(phase, min_size=1, max_size=6)))


@settings(max_examples=300, deadline=None)
@given(count=st.integers(1, 5), data=st.data())
def test_nearest_on_several_grids_matches_the_one_grid_reference(count, data):
    # Each grid has more phases than the count: 2^bits > count.
    bits = data.draw(st.lists(st.integers(count.bit_length(), 20),
                              min_size=1, max_size=4))
    grids = [PhaseGrid(b) for b in bits]
    phis = _several_grid_phases(grids, data)
    got = _nearest(phis, grids, count)
    assert got.shape == (len(grids), phis.size, count)
    for grid, rows in zip(grids, got):
        for phi, row in zip(phis.tolist(), rows):
            assert _as_set(row) == _as_set(ref.nearest_phases(phi, grid, count))


def test_nearest_ranks_only_the_grids_and_phases_at_a_tie(monkeypatch):
    # Midpoints of the 8-bit grid sit 1/64 step or more off the 3-bit grid's
    # points and midpoints, so only the 8-bit grid ranks, and only them.
    ranked = []
    rank = dps_quantize._rank

    def recording_rank(phi, ks, grid, count):
        ranked.append((grid.bits, np.array(phi).tolist()))
        return rank(phi, ks, grid, count)

    monkeypatch.setattr(dps_quantize, "_rank", recording_rank)
    fine, coarse = PhaseGrid(8), PhaseGrid(3)
    k = np.arange(fine.size)
    generic = (k + 0.3) * fine.step
    midpoints = (k + 0.5) * fine.step
    phis = np.concatenate([generic, midpoints])
    for count in (1, 3):
        ranked.clear()
        got = _nearest(phis, [coarse, fine, coarse], count)
        assert ranked == [(8, midpoints.tolist())]
        for grid, rows in zip([coarse, fine, coarse], got):
            assert np.array_equal(rows, _nearest(phis, [grid], count)[0])


def _record_search(monkeypatch, bound):
    """Lower the pair bound to ``bound`` and record, per `_nearest` pass,
    (weights, grids) and, per `_best_pairs` call, (weights, bits); each
    pass and call must stay within the bound."""
    nearest, best_pairs = dps_quantize._nearest, dps_quantize._best_pairs
    passes, calls = [], []

    def counted_nearest(phi, grids, count):
        assert len(grids) * phi.size * count <= bound  # (G, 2, chunk, L)
        passes.append((phi.shape[-1], len(grids)))
        return nearest(phi, grids, count)

    def counted_pairs(wn, cands, grid):
        pairs = grid.size**2 if cands is None else cands.shape[-1]**2
        assert wn.size * pairs <= bound
        calls.append((wn.size, grid.bits))
        return best_pairs(wn, cands, grid)

    monkeypatch.setattr(dps_quantize, "MAX_GRID_ENTRIES", bound)
    monkeypatch.setattr(dps_quantize, "_nearest", counted_nearest)
    monkeypatch.setattr(dps_quantize, "_best_pairs", counted_pairs)
    return passes, calls


def test_a_lowered_bound_chunks_the_weights_of_every_grid(monkeypatch):
    # 11 grids at L = 3 place 2 x 11 x 3 = 66 candidates per weight, more
    # than its 3^2 pairs per grid: a bound of 1000 takes chunks of 15 of
    # the 40 weights, and a bound of 100 chunks of one.  Each chunk places
    # every grid's candidates in one pass and searches each grid once.  The
    # pairs and realized weights stay those of one unsplit search.
    rng = np.random.default_rng(22)
    w = _disk(rng, (2, 20))
    grids = [PhaseGrid(b) for b in range(2, 13)]
    want = approximate(w, grids, 3)
    for bound, sizes in ((1000, [15, 15, 10]), (100, [1] * 40)):
        with monkeypatch.context() as m:
            passes, calls = _record_search(m, bound)
            got = approximate(w, grids, 3)
        assert passes == [(size, 11) for size in sizes]
        assert calls == [(size, b) for size in sizes for b in range(2, 13)]
        for a, b in zip(got, want):
            assert np.array_equal(a.pairs, b.pairs)
            assert np.array_equal(a.realized, b.realized)
    # Every grid's result holds the one normalized array the search built.
    assert all(d.normalized is want[0].normalized for d in want)
    assert np.array_equal(want[0].normalized, normalize_to_max(w, 2.0))


def test_a_search_mixing_a_full_and_a_ranked_grid(monkeypatch):
    # At L = 2 the 1-bit grid is searched whole and the 3-bit grid ranks:
    # 2 x 1 x 2 = 4 candidates and 2^2 pairs per weight, so a bound of 20
    # takes chunks of 5 of the 24 weights, and only the 3-bit grid's
    # candidates are placed.  Each grid's pairs are those of its own search.
    rng = np.random.default_rng(24)
    w = _disk(rng, (3, 8))
    w[0, :4] = [1, 1j, -1, 2]  # tie-prone moduli and phases
    grids = [PhaseGrid(1), PhaseGrid(3)]
    want = [approximate(w, grid, 2) for grid in grids]
    passes, calls = _record_search(monkeypatch, 20)
    got = approximate(w, grids, 2)
    sizes = [5, 5, 5, 5, 4]
    assert passes == [(size, 1) for size in sizes]
    assert calls == [(size, b) for size in sizes for b in (1, 3)]
    for a, b in zip(got, want):
        assert np.array_equal(a.pairs, b.pairs)
        assert np.array_equal(a.realized, b.realized)


def test_quantize_pesa_on_several_grids_equals_one_call_per_grid():
    # One phase per weight for every grid; each grid's result is that of
    # its own call, bit for bit, including phases on a grid midpoint.
    rng = np.random.default_rng(28)
    w = _disk(rng, (3, 16))
    w[0, :4] = np.exp(1j * TWO_PI * np.array([1, 3, 5, 7]) / 16)
    grids = (PhaseGrid(1), PhaseGrid(3), PhaseGrid(4), PhaseGrid(9))
    got = quantize_pesa(w, grids)
    assert isinstance(got, list) and len(got) == len(grids)
    for grid, q in zip(grids, got):
        assert np.array_equal(q, quantize_pesa(w, grid))


@pytest.mark.parametrize("grids", [[], ()])
def test_quantizers_refuse_an_empty_grid_list(grids):
    w = np.array([1.0, 0.5j])
    with pytest.raises(ValueError, match="^at least one grid is required$"):
        approximate(w, grids)
    with pytest.raises(ValueError, match="^at least one grid is required$"):
        quantize_pesa(w, grids)


def _row(dps, index):
    return type(dps)(dps.grid, dps.pairs[index].copy(),
                     dps.realized[index].copy(), dps.normalized[index].copy())


@pytest.mark.parametrize("bits", range(1, 9))
def test_exact_pair_ties_resolve_as_the_reference(bits):
    # Weights on which several of the L^2 candidate pairs score the very
    # same float error: the zero weight, |c| = 2 on a grid phase, the sum
    # of two adjacent grid phasors (found as (i, i+1) and as (i+1, i)), and
    # the midpoints between two such sums, equidistant from distinct pairs.
    grid = PhaseGrid(bits)
    p = grid.phasors
    adjacent = p + np.roll(p, -1)
    w = np.concatenate([[0.0], 2.0 * p, adjacent,
                        (adjacent + np.roll(adjacent, -1)) / 2,
                        (2.0 * p + adjacent) / 2])
    # Searched as they are: a peak of at most 2 normalizes onto itself.
    w = w[np.abs(w) <= 2.0]
    norm = float(np.abs(w).max())
    assert np.array_equal(normalize_to_max(w, norm), w)
    for count in range(2, 6):
        count = min(count, grid.size)
        tied = distinct = 0
        for c in w.tolist():
            a, b = (ref.nearest_phases(phi, grid, count)
                    for phi in ref.decompose(c))
            lo, hi = np.minimum.outer(a, b).ravel(), np.maximum.outer(a, b).ravel()
            err = np.abs(p[lo] + p[hi] - c)
            least = err == err.min()
            tied += least.sum() > 1
            distinct += len(set(zip(lo[least].tolist(), hi[least].tolist()))) > 1
        assert tied > 0 and distinct > 0
        _assert_matches_reference(w, grid, count, norm,
                                  approximate(w, grid, count, norm))


@pytest.mark.parametrize("bits,count", [(2, 2), (4, 3), (7, 5), (12, 1), (3, 8)])
def test_leading_shapes_match_row_by_row_reference(bits, count):
    grid = PhaseGrid(bits)
    rng = np.random.default_rng([bits, count, 1])
    norms = (1.0, 1.5, 2.0)

    # (T, 3, N) with one norm, and (T, 1, N) spread over three norms.
    stack = _disk(rng, (4, 3, 16))
    dps = approximate(stack, grid, count, 1.5)
    assert dps.pairs.shape == (4, 3, 16, 2) and dps.realized.shape == (4, 3, 16)
    # The result carries the weights it searched, read-only like the rest.
    assert np.array_equal(dps.normalized, normalize_to_max(stack, 1.5))
    for array in (dps.pairs, dps.realized, dps.normalized):
        assert not array.flags.writeable
    for t, k in np.ndindex(4, 3):
        _assert_matches_reference(stack[t, k], grid, count, 1.5,
                                  _row(dps, (t, k)))
    pesa = quantize_pesa(stack, grid)
    for t, k in np.ndindex(4, 3):
        assert np.array_equal(pesa[t, k], ref.quantize_pesa(stack[t, k], grid))

    trials = _disk(rng, (4, 1, 16))
    dps = approximate(trials, grid, count, norms)
    assert dps.realized.shape == (4, 3, 16)
    assert np.array_equal(dps.normalized, normalize_to_max(trials, norms))
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any arithmetic
        for w in ([1.0, np.nan], [1.0, np.inf], [complex(-np.inf, 1.0), 1.0]):
            with pytest.raises(ValueError, match="^weights must be finite$"):
                approximate(w, grid)
            with pytest.raises(ValueError, match="^weights must be finite$"):
                normalize_to_max(w)
        with pytest.raises(ValueError, match="finite"):
            quantize_pesa([1.0, complex(np.nan, 1.0)], grid)
        with pytest.raises(ValueError, match="finite"):
            _nearest(np.float64(np.inf), [grid], 2)


def test_nearest_phases_takes_arrays_of_phases():
    grid = PhaseGrid(5)
    phi = np.array([[0.0, 1.0, TWO_PI - 1e-12], [-3.0, 7.5, math.pi]])
    got = _nearest(phi, [grid], 3)[0]
    assert got.shape == (2, 3, 3)
    for index in np.ndindex(phi.shape):
        assert _as_set(got[index]) == _as_set(
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
