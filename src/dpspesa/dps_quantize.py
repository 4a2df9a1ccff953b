"""Two-phasor weight synthesis under limited phase-shifter resolution.

A complex weight of modulus at most 2 splits uniquely into a sum of two
unit phasors.  With B-bit phase shifters each phasor must come from the
uniform grid of 2**B phases, so a weight vector is realized by picking,
per antenna, the pair of grid phases whose phasor sum lands closest to
the wanted weight.  `approximate` does this with a top-L candidate search
around the exact split; `exhaustive_oracle` brute-forces all pairs for
small B, and `oracle_mismatches` compares the two for the tests and the
CLI's ``oracle-check``.  `approximate`, `quantize_pesa` and
`normalize_to_max` take arrays of any leading batch shape, weights
``(..., N)``, and run as one array kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .array_model import TWO_PI

MAX_ORACLE_BITS = 12
MAX_GRID_BITS = 20


@dataclass(frozen=True)
class PhaseGrid:
    """The 2**bits realizable phases {0, 2*pi/2**B, ...} of a B-bit shifter."""

    bits: int

    def __post_init__(self):
        if not 1 <= self.bits <= MAX_GRID_BITS:
            raise ValueError(f"bits must be in [1, {MAX_GRID_BITS}]")

    @property
    def size(self) -> int:
        return 1 << self.bits

    @property
    def step(self) -> float:
        return TWO_PI / self.size

    @cached_property
    def phases(self) -> np.ndarray:
        p = np.arange(self.size) * self.step
        p.setflags(write=False)
        return p

    @cached_property
    def phasors(self) -> np.ndarray:
        e = np.exp(1j * self.phases)
        e.setflags(write=False)
        return e


class Decomposition(NamedTuple):
    """Unit-phasor pair summing to a decomposed weight; phases in [0, 2*pi]."""

    phi1: float
    phi2: float


@dataclass(frozen=True)
class DpsBeamformer:
    """Grid-phase pairs and the complex weights they realize.

    For weights of shape ``(..., N)``, ``pairs`` is an ``(..., N, 2)``
    integer array of canonical (lower, upper) grid indices and
    ``realized`` holds the ``(..., N)`` phasor sums, modulus <= 2.
    """

    grid: PhaseGrid
    pairs: np.ndarray
    realized: np.ndarray

    def __post_init__(self):
        self.pairs.setflags(write=False)
        self.realized.setflags(write=False)


def _map(fn, *arrays) -> np.ndarray:
    """Apply a scalar ``math`` function elementwise over same-shape arrays."""
    shape = np.shape(arrays[0])
    values = map(fn, *(np.ravel(a).tolist() for a in arrays))
    return np.fromiter(values, float, count=math.prod(shape)).reshape(shape)


def _split(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Phases ``(phi1, phi2)`` in [0, 2*pi] of the phasor pair summing to ``c``.

    The modulus, arctangent and arccosine are the C library's scalar results
    (``np.hypot`` and the ``math`` functions).  numpy's vectorized
    ``abs``/``arctan2``/``arccos`` differ from them in the last bit on some
    hosts, which flips the ranking of a phase sitting on a tie between two
    candidate grid phases.  A phase x just below 0 reduces to 2*pi itself:
    ``x % (2*pi)`` is ``2*pi + x`` rounded to the nearest float.
    """
    a = np.hypot(c.real, c.imag)
    if np.any(a > 2.0 + 1e-12):
        raise ValueError(
            f"amplitude no larger than 2 required, got |c| = {a.max()}"
        )
    omega = _map(math.atan2, c.imag, c.real)
    half = _map(math.acos, np.minimum(a / 2.0, 1.0))
    return (omega + half) % TWO_PI, (omega - half) % TWO_PI


def decompose(c: complex) -> Decomposition:
    """Split ``c`` (modulus <= 2) into two unit phasors.

    With a = |c| and omega = arg(c), the phases are omega +/- acos(a/2),
    reduced to [0, 2*pi] (a phase just below 0 rounds to 2*pi, the phasor
    of 0; see `_split`); phi1 carries the positive offset.  The zero
    weight uses the omega = 0 convention, giving (pi/2, 3*pi/2).
    """
    phi1, phi2 = _split(np.asarray(c, dtype=complex))
    return Decomposition(float(phi1), float(phi2))


def recompose(d: Decomposition) -> complex:
    """Sum the two unit phasors of a decomposition."""
    return cmath.exp(1j * d.phi1) + cmath.exp(1j * d.phi2)


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
    target = np.asarray(target, dtype=float)
    if not np.all((target > 0.0) & (target <= 2.0)):
        raise ValueError("target must lie in (0, 2]")
    if w.ndim == 0 or w.size == 0:
        raise ValueError("weights must be a non-empty (..., N) array")
    peak = np.abs(w).max(axis=-1)
    if np.any(peak == 0):
        raise ValueError("all-zero weights cannot be normalized")
    return w * (target / peak)[..., None]


def circular_distance(x: float, y: float) -> float:
    """Shortest angular distance between two phases, in [0, pi]."""
    return abs((x - y + math.pi) % TWO_PI - math.pi)


def _nearest(phi: np.ndarray, grid: PhaseGrid, count: int) -> np.ndarray:
    """Indices ``(..., count)`` of the grid phases closest to each ``phi``.

    ``count`` must not exceed the grid size.  Sorted by distance ascending,
    ties broken by the smaller index.
    """
    if not np.all(np.isfinite(phi)):
        raise ValueError("phases must be finite")
    n = grid.size
    # The top-count set is a contiguous arc around phi, so only a small
    # window of indices ever needs ranking.
    if 2 * count + 2 >= n:
        ks = np.broadcast_to(np.arange(n), phi.shape + (n,))
    else:
        base = ((phi % TWO_PI) / grid.step).astype(np.int64)
        ks = (base[..., None] + np.arange(-count, count + 2)) % n
    dist = np.abs((grid.phases[ks] - phi[..., None] + np.pi) % TWO_PI - np.pi)
    order = np.lexsort((ks, dist), axis=-1)
    return np.take_along_axis(ks, order[..., :count], axis=-1)


def approximate(w, grid: PhaseGrid, candidates: int = 3,
                norm_target=2.0) -> DpsBeamformer:
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
    grid : PhaseGrid
        Realizable phases of the shifters.
    candidates : int
        Top-L list length per phasor (clamped to the grid size).
    norm_target : float or array_like
        Maximum modulus after normalization, in (0, 2]; an array broadcasts
        against ``w.shape[:-1]`` (see `normalize_to_max`).

    Returns
    -------
    DpsBeamformer
        Selected index pairs and the weights they realize, with the
        normalized weights' shape.
    """
    wn = normalize_to_max(w, norm_target)
    return _search(wn, np.stack(_split(wn)), grid, candidates)


def _search(wn: np.ndarray, split: np.ndarray, grid: PhaseGrid,
            candidates: int) -> DpsBeamformer:
    """The candidate search of `approximate` on normalized weights ``wn``
    and their stacked split ``np.stack(_split(wn))``; the split does not
    depend on the grid, so callers sweeping bits compute it once."""
    if candidates < 1:
        raise ValueError("candidates must be a positive integer")
    idx_a, idx_b = _nearest(split, grid, min(candidates, grid.size))
    idx_a, idx_b = idx_a[..., :, None], idx_b[..., None, :]
    lo = np.minimum(idx_a, idx_b).reshape(wn.shape + (-1,))
    hi = np.maximum(idx_a, idx_b).reshape(wn.shape + (-1,))
    sums = grid.phasors[lo] + grid.phasors[hi]
    err = np.abs(sums - wn[..., None])
    best = np.lexsort((hi, lo, err), axis=-1)[..., :1]

    def pick(x):
        return np.take_along_axis(x, best, axis=-1)[..., 0]

    pairs = np.stack((pick(lo), pick(hi)), axis=-1)
    return DpsBeamformer(grid=grid, pairs=pairs, realized=pick(sums))


def exhaustive_oracle(w_n: complex, grid: PhaseGrid) -> tuple[int, int]:
    """Best canonical phase pair for one weight, by brute force.

    Enumerates all (2**B + 1) * 2**B / 2 unordered pairs in lexicographic
    order and returns the first that minimizes the phasor-sum error, i.e.
    the same tie-break as `approximate`.  Cost grows as 4**B, hence the
    bits cap.
    """
    if grid.bits > MAX_ORACLE_BITS:
        raise ValueError(
            f"exhaustive search is limited to bits <= {MAX_ORACLE_BITS}"
        )
    c = complex(w_n)
    phasors = grid.phasors
    best = (math.inf, -1, -1)
    for i in range(grid.size):
        err = np.abs(phasors[i] + phasors[i:] - c)
        j = int(np.argmin(err))
        if err[j] < best[0]:
            best = (float(err[j]), i, i + j)
    return best[1], best[2]


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
    every grid phase as a candidate and normalization target 2; each
    normalized element is then solved by the oracle.  Returns, in element
    order, the weights whose pair or exact phasor-sum error differs.
    """
    wn = normalize_to_max(w, 2.0)
    dps = _search(wn, np.stack(_split(wn)), grid, grid.size)
    phasors = grid.phasors
    mismatches = []
    # Python scalars throughout, so a mismatch prints without numpy reprs.
    for c, pair, realized in zip(wn.reshape(-1).tolist(),
                                 dps.pairs.reshape(-1, 2).tolist(),
                                 dps.realized.reshape(-1).tolist()):
        search_pair = tuple(pair)
        search_error = abs(realized - c)
        oracle_pair = exhaustive_oracle(c, grid)
        oracle_error = abs(complex(phasors[oracle_pair[0]]
                                   + phasors[oracle_pair[1]]) - c)
        if search_error != oracle_error or search_pair != oracle_pair:
            mismatches.append(OracleMismatch(c, search_pair, search_error,
                                             oracle_pair, oracle_error))
    return mismatches


def quantize_pesa(w, grid: PhaseGrid) -> np.ndarray:
    """Phase-only quantization: snap each weight's phase to the grid.

    Returns unit-modulus weights of the input's shape; the modulus of the
    input is discarded, which is all a single-shifter array can realize.
    """
    w = np.asarray(w, dtype=complex)
    if np.any(w == 0):
        raise ValueError("zero weights have no phase to quantize")
    phase = _map(math.atan2, w.imag, w.real)
    return grid.phasors[_nearest(phase, grid, 1)[..., 0]]
