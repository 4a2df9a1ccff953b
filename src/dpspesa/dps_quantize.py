"""Two-phasor weight synthesis under limited phase-shifter resolution.

A complex weight of modulus at most 2 splits uniquely into a sum of two
unit phasors.  With B-bit phase shifters each phasor must come from the
uniform grid of 2**B phases, so a weight vector is realized by picking,
per antenna, the pair of grid phases whose phasor sum lands closest to
the wanted weight.  `decompose` computes the exact split of weights of
any shape.  `approximate` does the quantization with a top-L candidate
search around that split; `exhaustive_oracle` brute-forces all pairs for
small B, and `oracle_mismatches` compares the two for the tests and the
CLI's ``oracle-check``.  `approximate`, `quantize_pesa` and
`normalize_to_max` take arrays of any leading batch shape, weights
``(..., N)``, and run as one array kernel; `approximate` and
`quantize_pesa` also take a sequence of grids and quantize the same
weights on all of them together.  `exhaustive_oracle` takes weights of
any shape and scores them in bounded batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .array_model import (MAX_GRID_ENTRIES, TWO_PI, _check_real, _exact,
                          _is_count)

MAX_ORACLE_BITS = 12
MAX_GRID_BITS = 20
# Pair-table entries `exhaustive_oracle` scores in one numpy pass.
ORACLE_CHUNK_ENTRIES = 1 << 14


@dataclass(frozen=True)
class PhaseGrid:
    """The 2**bits realizable phases {0, 2*pi/2**B, ...} of a B-bit shifter."""

    bits: int

    def __post_init__(self):
        if not _is_count(self.bits) or not 1 <= self.bits <= MAX_GRID_BITS:
            raise ValueError(f"bits must be in [1, {MAX_GRID_BITS}]")
        # A numpy integer would size the grid in its own fixed width.
        object.__setattr__(self, "bits", int(self.bits))

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def step(self) -> float:
        return TWO_PI / self.size

    @property
    def phases(self) -> np.ndarray:
        return _grid_tables(self)[0]

    @property
    def phasors(self) -> np.ndarray:
        return _grid_tables(self)[1]


@lru_cache(maxsize=MAX_GRID_BITS)
def _grid_tables(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """The read-only phases and phasors of ``grid``, built once per process
    and shared by every equal `PhaseGrid`, one per bits value."""
    phases = np.arange(grid.size) * grid.step
    phasors = np.exp(1j * phases)
    phases.setflags(write=False)
    phasors.setflags(write=False)
    return phases, phasors


@lru_cache(maxsize=MAX_GRID_BITS)
def _canonical_pairs(grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """The read-only phasor sums and codes ``lo * size + hi`` of ``grid``'s
    canonical pairs (lo <= hi), each ``(pairs, 1)``: the full-grid search's
    table, built once per process, one per bits value."""
    ks = np.arange(grid.size)
    lo, hi = (k[:, None] for k in np.nonzero(ks[:, None] <= ks))
    sums, code = grid.phasors[lo] + grid.phasors[hi], lo * grid.size + hi
    sums.setflags(write=False)
    code.setflags(write=False)
    return sums, code


@dataclass(frozen=True)
class DpsBeamformer:
    """Grid-phase pairs and the complex weights they realize.

    For weights of shape ``(..., N)``, ``pairs`` is an ``(..., N, 2)``
    integer array of canonical (lower, upper) grid indices, ``realized``
    holds the ``(..., N)`` phasor sums, modulus <= 2, and ``normalized``
    the ``(..., N)`` weights from `normalize_to_max` that they approximate.
    """

    grid: PhaseGrid
    pairs: np.ndarray
    realized: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        for array in (self.pairs, self.realized, self.normalized):
            array.setflags(write=False)


def _map(fn, *arrays) -> np.ndarray:
    """Apply a scalar ``math`` function elementwise over same-shape arrays."""
    shape = np.shape(arrays[0])
    values = map(fn, *(np.ravel(a).tolist() for a in arrays))
    return np.fromiter(values, float, count=math.prod(shape)).reshape(shape)


def decompose(c) -> tuple[np.ndarray, np.ndarray]:
    """Split weights ``c`` (modulus <= 2) into two unit phasors each.

    ``c`` is a scalar or an array of any shape; the result is the phase
    arrays ``(phi1, phi2)`` of that shape (numpy scalars for a scalar).
    With a = |c| and omega = arg(c), the phases are omega +/- acos(a/2),
    reduced to [0, 2*pi]; phi1 carries the positive offset.  The zero
    weight uses the omega = 0 convention, giving (pi/2, 3*pi/2).

    A non-finite weight raises `ValueError`.

    The modulus, arctangent and arccosine are the C library's scalar results
    (``np.hypot`` and the ``math`` functions).  numpy's vectorized
    ``abs``/``arctan2``/``arccos`` differ from them in the last bit on some
    hosts, which flips the ranking of a phase sitting on a tie between two
    candidate grid phases.  A phase x just below 0 reduces to 2*pi itself
    (the phasor of 0): ``x % (2*pi)`` is ``2*pi + x`` rounded to the nearest
    float.
    """
    c = np.asarray(c, dtype=complex)
    a = np.hypot(c.real, c.imag)
    if not np.all(np.isfinite(a)):
        raise ValueError("weights must be finite")
    if np.any(a > 2.0 + 1e-12):
        raise ValueError(
            f"amplitude no larger than 2 required, got |c| = {a.max()}"
        )
    omega = _map(math.atan2, c.imag, c.real)
    half = _map(math.acos, np.minimum(a / 2.0, 1.0))
    return (omega + half) % TWO_PI, (omega - half) % TWO_PI


def normalize_to_max(w, target=2.0) -> np.ndarray:
    """Rescale each weight vector so its largest modulus equals ``target``.

    ``w`` has shape ``(..., N)`` and each length-N vector is scaled on its
    own.  ``target`` is a float or an array broadcasting against the
    leading shape ``w.shape[:-1]``; the result has the broadcast leading
    shape.  Splitting is least phase-sensitive for moduli near 2, so the
    default drives the strongest element to the top of the representable
    disk.
    """
    w = np.asarray(w, dtype=complex)
    target = _check_norm_target(target)
    if w.ndim == 0 or w.size == 0:
        raise ValueError("weights must be a non-empty (..., N) array")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    peak = np.abs(w).max(axis=-1)
    if (peak == 0).any():
        raise ValueError("all-zero weights cannot be normalized")
    return w * (target / peak)[..., None]


def _check_norm_target(target) -> np.ndarray:
    """``target`` as a float array; every entry must lie in (0, 2], and the
    error names the first that does not."""
    target = np.asarray(_check_real("target", target), dtype=float)
    ok = (target > 0.0) & (target <= 2.0)
    if not ok.all():
        raise ValueError("norm target must lie in (0, 2], "
                         f"got {_exact(target[~ok].flat[0])}")
    return target


def _nearest(phi: np.ndarray, grids, count: int) -> np.ndarray:
    """Indices ``(G, ..., count)`` of the ``count`` phases of each of the G
    ``grids`` closest to each ``phi``, placed for every grid in one pass.

    ``count`` must not exceed any grid's size.  The candidates are a set, in
    no promised order: the ``count`` least by the float distance
    ``|(phase - phi + pi) % 2pi - pi|``, ties broken by the smaller index.
    With ``phi`` at u = base + f grid steps (f in [0, 1)), they are placed
    without ranking as the run s, s + 1, ..., s + count - 1 (mod n) with
    s = floor(u + 1 - count/2).  Only the run's two ends can tie with the
    phases outside it: for an odd count when f is within a rounding margin
    of 1/2, for an even count when it is within the margin of 0 or 1.  Such
    a phase, or one with |phi| above 4*pi, falls back to ranking (`_rank`)
    the window base - count .. base + count + 1, or the whole grid when it
    has at most 2*count + 2 phases; only the grids and phases that need it
    are ranked.

    The result is a view of a candidate-major ``(count, G, ...)`` array, so
    each candidate's indices on each grid are contiguous.
    """
    if not np.all(np.isfinite(phi)):
        raise ValueError("phases must be finite")
    # x % (2*pi) is x itself on [0, 2*pi), where `decompose` puts nearly
    # every phase, so only the phases outside are reduced; n is a power of
    # two, so & (n - 1) wraps an index as % n does.
    reduced = np.remainder(phi, TWO_PI, out=np.array(phi, dtype=float),
                           where=(phi < 0.0) | (phi >= TWO_PI))
    # Each grid's size n and step, on a leading grid axis.
    shape = (len(grids),) + (1,) * reduced.ndim
    n = np.array([grid.size for grid in grids]).reshape(shape)
    u = reduced / np.array([grid.step for grid in grids]).reshape(shape)
    base = u.astype(np.int64)
    f = u - base
    # Exactly, with s = step = T/n for the float T = 2*pi (exact, as n is a
    # power of two), phase k sits k*s on the circle of length T.  The count
    # integers nearest u on the line form the run, distinct mod n; every
    # index outside has all its copies outside, so it is at least as far on
    # the circle as the nearest integer outside the run, 2|f - 1/2| (odd
    # count) or 2 min(f, 1 - f) (even count) steps beyond the run's farthest.
    # The reference rounds five times on values below 32 when |phi| <= 4*pi:
    # k*s (below 8, at most 2^-51), minus phi and plus pi (below 32, 2^-49
    # each), % T (the fmod is exact, adding T back rounds below 8, 2^-51) and
    # minus pi (below 4, 2^-52).  The circular distance moves no more than
    # its argument, and either side of the wrap at pi has the same absolute
    # value, so each float distance is within E = 21 * 2^-52 rad of the exact
    # one.  In steps E is below n * 2^-50, and f itself is off by less than
    # n * 2^-52 (u rounds once, the reduction once).  So the run is the float
    # set, and f's side of 1/2 (odd) or the floor base (even) is exact, when
    # f is more than n * 2^-49 from 1/2 (odd) or from 0 and 1 (even); the
    # margin keeps 8x of that.  An odd run hangs on the nearest point alone,
    # which a rounding of f across 0 or 1 does not move.
    margin = n * 2.0**-46
    g = np.abs(f - 0.5)
    tie = (g < margin) if count % 2 else (g > 0.5 - margin)
    tie |= np.abs(phi) > 2 * TWO_PI
    start = base - count // 2 + ((f > 0.5) if count % 2 else 1)
    ks = np.add.outer(np.arange(count), start) & (n - 1)
    ks = ks.transpose(*range(1, ks.ndim), 0)
    for i in np.flatnonzero(tie.reshape(len(grids), -1).any(axis=1)):
        grid, t = grids[i], tie[i]
        half = min(grid.size, 2 * count + 2) // 2
        window = ((base[i][t][:, None] + np.arange(1 - half, half + 1))
                  & (grid.size - 1))
        ks[i][t] = _rank(phi[t], window, grid, count)
    return ks


def _rank(phi: np.ndarray, ks: np.ndarray, grid: PhaseGrid,
          count: int) -> np.ndarray:
    """The ``count`` indices of ``ks`` ``(..., K)`` nearest each ``phi``,
    sorted by the float distance and then the smaller index."""
    dist = np.abs((grid.phases[ks] - phi[..., None] + np.pi) % TWO_PI - np.pi)
    order = np.lexsort((ks, dist), axis=-1)
    return np.take_along_axis(ks, order[..., :count], axis=-1)


def approximate(w, grid, candidates: int = 3, norm_target=2.0):
    """Realize beamformers on a quantized double-phase-shifter array.

    Normalizes ``w`` to maximum modulus ``norm_target`` along its last
    axis, splits each element into two unit phasors, collects the
    ``candidates`` nearest grid phases for each, and keeps the pair
    combination whose sum is closest to the element.  Exact ties resolve
    to the lexicographically smallest (lower, upper) pair, as in
    `exhaustive_oracle`.

    Parameters
    ----------
    w : array_like
        Complex weights of shape ``(..., N)``; no length-N vector all zero.
    grid : PhaseGrid or sequence of PhaseGrid
        Realizable phases of the shifters.  For a sequence, the weights are
        normalized once and split at most once (only if some grid ranks
        candidates; a full-grid search scores every pair without it).
    candidates : int
        Top-L list length per phasor (clamped to each grid's size).  L**2
        must not exceed `array_model.MAX_GRID_ENTRIES`, checked before any
        pair is built.  Weights are searched independently, in chunks
        whose count x count pairs per weight on each grid, and whose
        ``(G, 2, chunk, L)`` candidates of one `_nearest` pass over the G
        ranked grids, stay within that many entries (a chunk holds at
        least one weight).
    norm_target : float or array_like
        Maximum modulus after normalization, in (0, 2]; an array broadcasts
        against ``w.shape[:-1]`` (see `normalize_to_max`).

    Returns
    -------
    DpsBeamformer or list of DpsBeamformer
        Selected index pairs, the weights they realize and the normalized
        weights they approximate; for a sequence of grids, one per grid,
        all sharing one normalized array.
    """
    grids = _as_grids(grid)
    wn = normalize_to_max(w, norm_target)
    counts = _check_candidates(candidates, grids)
    candidates = int(candidates)
    # A grid ranks only when candidates < its size.
    ranked = [g for g in grids if candidates < g.size]
    chunk = max(1, MAX_GRID_ENTRIES // max(max(counts)**2,
                                           2 * len(ranked) * candidates))
    flat = wn.reshape(-1)
    split = np.stack(decompose(flat)) if ranked else None
    parts = [[] for _ in grids]
    for i in range(0, flat.size, chunk):
        cands = iter(_nearest(split[:, i:i + chunk], ranked, candidates)
                     if ranked else ())
        for g, part in zip(grids, parts):
            c = next(cands) if candidates < g.size else None
            part.append(_best_pairs(flat[i:i + chunk], c, g))
    found = []
    for g, part in zip(grids, parts):
        pairs, realized = (np.concatenate(x) for x in zip(*part))
        found.append(DpsBeamformer(grid=g,
                                   pairs=pairs.reshape(wn.shape + (2,)),
                                   realized=realized.reshape(wn.shape),
                                   normalized=wn))
    return found[0] if isinstance(grid, PhaseGrid) else found


def _as_grids(grid) -> list[PhaseGrid]:
    """``grid``, one `PhaseGrid` or a sequence of them, as a non-empty list."""
    grids = [grid] if isinstance(grid, PhaseGrid) else list(grid)
    if not grids:
        raise ValueError("at least one grid is required")
    return grids


def _check_candidates(candidates: int, grids) -> list[int]:
    """Each grid's candidate count, ``candidates`` clamped to its size.
    ``candidates`` must be a positive integer, and no count's count x count
    pairs per weight may exceed `MAX_GRID_ENTRIES`."""
    if not _is_count(candidates) or candidates < 1:
        raise ValueError("candidates must be a positive integer")
    counts = [min(int(candidates), grid.size) for grid in grids]
    for count in counts:
        if count**2 > MAX_GRID_ENTRIES:
            raise ValueError(
                f"a candidate search with {count} candidates per phase builds "
                f"{count}^2 pairs per weight, more than {MAX_GRID_ENTRIES}; "
                f"use fewer candidates"
            )
    return counts


def _best_pairs(wn: np.ndarray, cands: np.ndarray | None,
                grid: PhaseGrid) -> tuple[np.ndarray, np.ndarray]:
    """Best index pairs ``(E, 2)`` of the weights ``wn`` ``(E,)`` among
    their candidates, and the sums they realize ``(E,)``.  ``cands`` holds
    the L candidates ``(2, E, L)`` of the weights' two phases, as
    `_nearest` places them; a full-grid search, where every grid phase is
    a candidate, takes None.

    The pairs are scored candidate-major, ``(pairs, E)``, so each pick
    below reduces over the leading axis in contiguous passes.

    Every weight of a full-grid search scores the same canonical pairs, read
    from the grid's `_canonical_pairs` table, so no call or chunk rebuilds
    them.  Only grids of at most 11 bits reach that branch
    (`_check_candidates` bounds L**2 = size**2 by `MAX_GRID_ENTRIES`); the
    tables of bits 1-11 would hold about 67 MB together, 50 MB of it at 11
    bits, as much as the temporaries of one weight's search there."""
    if cands is None:
        # The pick below does not depend on the pairs' order.
        sums, code = _canonical_pairs(grid)
    else:
        # Each phase's candidates ``(L, E)``, views without a copy.
        idx_a, idx_b = cands.swapaxes(1, 2)
        idx_a, idx_b = idx_a[:, None], idx_b[None, :]
        lo = np.minimum(idx_a, idx_b).reshape(-1, wn.size)
        hi = np.maximum(idx_a, idx_b).reshape(-1, wn.size)
        sums, code = grid.phasors[lo] + grid.phasors[hi], lo * grid.size + hi
    err = np.abs(sums - wn)
    # The first lexicographically smallest (err, lo, hi): among the pairs of
    # least error, the least code lo * size + hi, which orders (lo, hi) pairs.
    code = np.minimum.reduce(
        np.where(err == np.minimum.reduce(err, axis=0), code, grid.size**2),
        axis=0)
    lo, hi = code >> grid.bits, code & (grid.size - 1)
    return np.stack((lo, hi), axis=-1), grid.phasors[lo] + grid.phasors[hi]


def exhaustive_oracle(w, grid: PhaseGrid) -> np.ndarray:
    """Best canonical phase pairs of finite weights, by brute force.

    ``w`` is a scalar or an array of any shape; the result is an int64
    array of shape ``np.shape(w) + (2,)`` holding each weight's pair, the
    first canonical pair (i, j >= i) in lexicographic order that minimizes
    the phasor-sum error, i.e. the same tie-break as `approximate`.  All
    n x n ordered sums p[i] + p[j], n = 2**B, are scored; pair (i, j) is
    the code i * n + j, and a code with j < i ties its smaller twin (j, i),
    so it is never picked.  The square is scored in runs of whole rows,
    each against as many weights as keep one pass within
    `ORACLE_CHUNK_ENTRIES` entries (one row against one weight if a row is
    longer), so temporaries stay within a few MB.  Time still grows as
    4**B per weight, hence the bits cap.
    """
    if grid.bits > MAX_ORACLE_BITS:
        raise ValueError(
            f"exhaustive search is limited to bits <= {MAX_ORACLE_BITS}"
        )
    c = np.asarray(w, dtype=complex).reshape(-1)
    finite = np.isfinite(c)
    if not finite.all():
        bad = complex(c[finite.argmin()])
        raise ValueError(f"the oracle needs a finite weight, got {bad!r}")
    phasors, n = grid.phasors, grid.size
    # Each weight's least error so far and its pair, as the code i * n + j.
    # A weight whose every error overflows to inf keeps (0, 0), the first.
    best_err = np.full(c.size, np.inf)
    best = np.zeros(c.size, dtype=np.int64)
    rows = min(n, max(1, ORACLE_CHUNK_ENTRIES // n))
    group = max(1, ORACLE_CHUNK_ENTRIES // (rows * n))
    for i0 in range(0, n, rows):
        # Sums commute, so a pair (i, j >= i) and its twin (j, i) tie, and
        # the twin lies in the same run or a later one: argmin keeps a run's
        # first minimum and a later run wins only strictly, so (i, j) stays.
        sums = np.add(phasors[i0:i0 + rows, None], phasors).reshape(-1)
        for g0 in range(0, c.size, group):
            part = slice(g0, g0 + group)
            e = np.abs(np.subtract(sums, c[part, None]))
            # The least code of least error per weight.
            k = e.argmin(axis=1)
            e = e[np.arange(k.size), k]
            win = e < best_err[part]
            best_err[part][win] = e[win]
            best[part][win] = i0 * n + k[win]
    pairs = np.empty((c.size, 2), dtype=np.int64)
    np.divmod(best, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs.reshape(np.shape(w) + (2,))


class OracleMismatch(NamedTuple):
    """One weight on which the candidate search and the oracle disagree."""

    weight: complex
    search_pair: tuple
    search_error: float
    oracle_pair: tuple
    oracle_error: float


def oracle_mismatches(w, grid: PhaseGrid) -> list[OracleMismatch]:
    """Compare the full-grid candidate search with `exhaustive_oracle`.

    ``w`` of shape ``(..., N)`` is quantized as `approximate` does it with
    every grid phase as a candidate and normalization target 2; the whole
    normalized stack is then solved by one oracle call.  Returns, in
    element order, the weights whose pair differs.  That is the whole
    test: equal pairs realize the same phasor sum, so their errors are
    equal too.
    """
    dps = approximate(w, grid, grid.size)
    wn = dps.normalized.reshape(-1)
    oracle = exhaustive_oracle(wn, grid).reshape(-1, 2)
    search = dps.pairs.reshape(-1, 2)
    p = grid.phasors
    mismatches = []
    # Python scalars throughout, so a mismatch prints without numpy reprs.
    for k in np.flatnonzero((oracle != search).any(axis=-1)).tolist():
        c = wn[k].item()
        found = []
        for i, j in (search[k].tolist(), oracle[k].tolist()):
            found += [(i, j), abs(complex(p[i] + p[j]) - c)]
        mismatches.append(OracleMismatch(c, *found))
    return mismatches


def quantize_pesa(w, grid):
    """Phase-only quantization: snap each weight's phase to the grid.

    Returns unit-modulus weights of the input's shape; the modulus of the
    input is discarded, which is all a single-shifter array can realize.
    A non-finite or zero weight raises `ValueError`.  ``grid`` is a
    `PhaseGrid`, or a sequence of them for a list with one result per
    grid; the phases of ``w`` do not depend on the grid, so they are
    computed once.
    """
    grids = _as_grids(grid)
    w = np.asarray(w, dtype=complex)
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w == 0):
        raise ValueError("zero weights have no phase to quantize")
    phase = _map(math.atan2, w.imag, w.real)
    found = [g.phasors[ks[..., 0]]
             for g, ks in zip(grids, _nearest(phase, grids, 1))]
    return found[0] if isinstance(grid, PhaseGrid) else found
