"""Frozen per-element quantizer: the reference the batched kernel must match.

This is the candidate search as it was written before `dpspesa.dps_quantize`
became one array kernel: a Python loop over antennas that decomposes each
weight with the scalar ``math`` functions, ranks a window of grid phases per
phasor and picks the best of the L x L pairs.  `exhaustive_oracle` is the
brute force as it was written before it scored the pair table in chunks: one
numpy pass per grid row.  Do not edit them to follow the library; they pin
the pairs and realized weights the library must reproduce.
"""

import math

import numpy as np

TWO_PI = 2.0 * math.pi


def decompose(c: complex) -> tuple[float, float]:
    c = complex(c)
    a = abs(c)
    if a > 2.0 + 1e-12:
        raise ValueError(f"amplitude no larger than 2 required, got |c| = {a}")
    omega = math.atan2(c.imag, c.real)
    half = math.acos(min(a / 2.0, 1.0))
    return (omega + half) % TWO_PI, (omega - half) % TWO_PI


def normalize_to_max(w, target: float = 2.0) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if not 0.0 < target <= 2.0:
        raise ValueError("target must lie in (0, 2]")
    if w.size == 0:
        raise ValueError("weights must be non-empty")
    peak = np.abs(w).max()
    if peak == 0:
        raise ValueError("all-zero weights cannot be normalized")
    return w * (target / peak)


def nearest_phases(phi: float, grid, count: int) -> np.ndarray:
    n = grid.size
    count = min(count, n)
    if 2 * count + 2 >= n:
        ks = np.arange(n)
    else:
        base = int((phi % TWO_PI) / grid.step)
        ks = (base + np.arange(-count, count + 2)) % n
    dist = np.abs((grid.phases[ks] - phi + np.pi) % TWO_PI - np.pi)
    order = np.lexsort((ks, dist))
    return ks[order[:count]]


def _best_pair(c, phasors, idx_a, idx_b):
    ca = np.repeat(idx_a, idx_b.size)
    cb = np.tile(idx_b, idx_a.size)
    lo = np.minimum(ca, cb)
    hi = np.maximum(ca, cb)
    err = np.abs(phasors[lo] + phasors[hi] - c)
    k = np.lexsort((hi, lo, err))[0]
    return int(lo[k]), int(hi[k]), complex(phasors[lo[k]] + phasors[hi[k]])


def approximate(w, grid, candidates: int = 3, norm_target: float = 2.0):
    """Pairs (N, 2) and realized weights (N,) of one weight vector."""
    wn = normalize_to_max(w, norm_target)
    pairs = np.empty((wn.size, 2), dtype=np.int64)
    realized = np.empty(wn.size, dtype=complex)
    for i, c in enumerate(wn):
        c = complex(c)
        phi1, phi2 = decompose(c)
        idx_a = nearest_phases(phi1, grid, candidates)
        idx_b = nearest_phases(phi2, grid, candidates)
        lo, hi, value = _best_pair(c, grid.phasors, idx_a, idx_b)
        pairs[i] = lo, hi
        realized[i] = value
    return pairs, realized


def quantize_pesa(w, grid) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    idx = [
        int(nearest_phases(math.atan2(c.imag, c.real), grid, 1)[0])
        for c in w
    ]
    return grid.phasors[idx].copy()


def exhaustive_oracle(w_n: complex, grid) -> tuple[int, int]:
    """Best canonical pair by brute force, one grid row i at a time."""
    c = complex(w_n)
    phasors = grid.phasors
    best = (math.inf, -1, -1)
    for i in range(grid.size):
        err = np.abs(phasors[i] + phasors[i:] - c)
        j = int(np.argmin(err))
        if err[j] < best[0]:
            best = (float(err[j]), i, i + j)
    return best[1], best[2]
