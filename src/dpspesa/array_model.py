"""Uniform linear array geometry, steering vectors, and beampatterns.

A beamformer is a complex ndarray of length ``config.n_antennas``; the
beampattern sampler and the level sampler `levels_db` also take stacks
of them, shape ``(..., N)``.  Angles are degrees in [-90, 90] everywhere;
only the steering functions convert them, right before the sine.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

DEFAULT_FLOOR_DB = -80.0
DEFAULT_GRID_STEP_DEG = 0.1
# Bound on the entries of one complex128 matrix (64 MiB): grid points x N
# of a sampled steering matrix, about 97 times N=24 on the 0.1-degree grid
# (43,224), N x N of each MVDR system, which is built and solved one
# scenario at a time (N <= 2048), and the candidate pairs of one chunk of
# the DPS search (L x L per weight).
MAX_GRID_ENTRIES = 1 << 22
# Grid step, in points, of the first pass of `levels_db`'s peak search.
PEAK_COARSE_ROWS = 16

# glibc gives the free top of its heap back to the system once it exceeds
# twice the mmap threshold, which starts at 128 KiB and rises to the size
# of the largest mmap'd block freed so far.  A 64-weight full-grid search
# at 4 bits frees about 0.5 MB there, so at the start-up threshold every
# such `oracle-check` call returned those pages and faulted them back in
# (about 120 minor faults and nearly twice the time per call).  Freeing
# one 4 MiB block raises the threshold once, so temporaries up to that
# size reuse the heap, in every command: none imports scipy.linalg, whose
# import had raised it to about 400 KiB.  On other allocators this is one
# short-lived, untouched allocation.
np.empty(4 << 20, np.uint8)


def _is_count(n) -> bool:
    """Whether ``n`` is an integral, non-bool number (numpy integers pass):
    the one type check of antenna, bit, candidate and trial counts."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _check_real(name: str, x):
    """``x``, if it is a real number or an array of them (numpy's pass):
    the one type check of spacings, grid steps, floors, gammas and norms.
    A str, which ``float`` and numpy would parse, or a bool raises."""
    if np.asarray(x).dtype.kind not in "iuf":
        raise ValueError(f"{name} must be a real number, got {x!r}")
    return x


def _exact(x) -> str:
    """``x`` as the shortest text that reads back as the same float, without
    a trailing ``.0``: an error message names the value it rejects, not a
    rounding of it back into range."""
    return repr(float(x)).removesuffix(".0")


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count and spacing in carrier wavelengths."""

    n_antennas: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if not _is_count(self.n_antennas) or self.n_antennas < 1:
            raise ValueError("n_antennas must be a positive integer")
        _check_real("spacing_wavelengths", self.spacing_wavelengths)
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")
        if not np.isfinite(self.spacing_wavelengths):
            raise ValueError("spacing_wavelengths must be finite")


@dataclass(frozen=True)
class BeampatternTrace:
    """Power patterns sampled on an angle grid.

    ``power_linear`` and ``power_db`` have shape ``(..., G)`` for a grid of
    G angles: one pattern, or a stack of them.  ``power_db`` is
    peak-normalized per pattern (max entry 0 dB when any power is
    positive) and clamped below at ``floor_db``.
    """

    angles_deg: np.ndarray
    power_linear: np.ndarray
    power_db: np.ndarray
    floor_db: float

    def __post_init__(self):
        for arr in (self.angles_deg, self.power_linear, self.power_db):
            arr.setflags(write=False)


def _check_angles(angles_deg) -> np.ndarray:
    """Angles as a float array; each must be finite and lie in [-90, 90]
    degrees."""
    angles_deg = np.asarray(angles_deg, dtype=float)
    bad = ~(np.abs(angles_deg) <= 90.0)
    if bad.any():
        raise ValueError("angles must be finite and lie in [-90, 90] degrees, "
                         f"got {_exact(angles_deg[bad].flat[0])}")
    return angles_deg


def _as_weights(config: ArrayConfig, w) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    if w.ndim == 0 or w.shape[-1] != config.n_antennas:
        raise ValueError(
            f"expected {config.n_antennas} weights along the last axis, "
            f"got shape {w.shape}"
        )
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    return w


def steering_vector(config: ArrayConfig, angle_deg) -> np.ndarray:
    """Steering vector for a plane wave toward ``angle_deg`` degrees.

    Entry ``n`` is ``exp(1j * 2*pi * n * d/lambda * sin(theta))`` with
    ``theta`` the angle in radians; entry 0 is exactly 1 and all entries
    have unit modulus.  An array of angles ``(...)`` gives one vector per
    angle, ``(..., N)``, each equal bit for bit to its scalar call (unlike
    `steering_matrix`, whose product is taken in another order).
    """
    theta = np.radians(_check_angles(angle_deg))
    n = np.arange(config.n_antennas)
    return np.exp(1j * TWO_PI * n * config.spacing_wavelengths
                  * np.sin(theta)[..., None])


def steering_matrix(config: ArrayConfig, angles_deg) -> np.ndarray:
    """Stack steering vectors row-wise: shape ``(len(angles_deg), n_antennas)``."""
    thetas = np.radians(_check_angles(angles_deg))
    n = np.arange(config.n_antennas)
    phase = TWO_PI * config.spacing_wavelengths * np.outer(np.sin(thetas), n)
    return np.exp(1j * phase)


def _check_floor(floor_db: float) -> None:
    """A dB floor must be a negative, finite number."""
    if not _check_real("floor_db", floor_db) < 0:
        raise ValueError("floor_db must be negative")
    if not math.isfinite(floor_db):
        raise ValueError("floor_db must be finite")


def _normalized_db(power: np.ndarray, peak: np.ndarray, floor_db: float) -> np.ndarray:
    """``power`` in dB relative to ``peak`` (broadcasting), clamped below at
    ``floor_db``; ``floor_db`` wherever the peak is zero."""
    _check_floor(floor_db)
    with np.errstate(divide="ignore", invalid="ignore"):
        power_db = np.maximum(10.0 * np.log10(power / peak), floor_db)
    return np.where(peak > 0, power_db, floor_db)


# Eight geometries at most; one entry at N=24 on the 0.1-degree grid is ~0.7 MB.
@functools.lru_cache(maxsize=8)
def _grid_response(config: ArrayConfig, step_deg: float):
    """Read-only degree grid and conjugate steering matrix for one geometry."""
    _grid_points(step_deg, config.n_antennas)
    grid_deg = angle_grid_deg(step_deg)
    response = steering_matrix(config, grid_deg).conj()
    grid_deg.setflags(write=False)
    response.setflags(write=False)
    return grid_deg, response


def beampattern_trace(config: ArrayConfig, w,
                      step_deg: float = DEFAULT_GRID_STEP_DEG,
                      floor_db: float = DEFAULT_FLOOR_DB) -> BeampatternTrace:
    """Sample the power patterns of ``w`` over ``angle_grid_deg(step_deg)``.

    The grid and its steering matrix are cached per ``(config, step_deg)``,
    so repeated traces of one geometry cost one matrix-vector product per
    weight vector.

    Parameters
    ----------
    config : ArrayConfig
        Array geometry.
    w : array_like
        Complex weights, shape ``(..., config.n_antennas)``; the trace's
        power arrays have shape ``(..., G)``.
    step_deg : float
        Grid step in degrees; must divide 180 evenly.
    floor_db : float
        Clamp for the peak-normalized dB pattern (must be negative).
    """
    w = _as_weights(config, w)
    grid_deg, response = _grid_response(
        config, float(_check_real("step_deg", step_deg)))
    power = np.abs(_field(response, w)) ** 2
    peak = power.max(axis=-1, keepdims=True)
    return BeampatternTrace(grid_deg, power, _normalized_db(power, peak, floor_db),
                            float(floor_db))


def levels_db(config: ArrayConfig, w, angles_deg,
              step_deg: float = DEFAULT_GRID_STEP_DEG,
              floor_db: float = DEFAULT_FLOOR_DB) -> np.ndarray:
    """Peak-normalized dB levels of ``w`` at the grid points nearest
    ``angles_deg``.

    Equal, bit for bit, to ``beampattern_trace(config, w, step_deg,
    floor_db).power_db[..., idx]`` with ``idx`` the index of the closest
    grid point to each angle (the first one on a tie).  ``w`` has shape
    ``(..., N)``; with angles ``(K,)`` the result is ``(..., K)``.  Angles
    ``(T, K)`` give each of T blocks its own: ``w`` is then ``(T, ..., N)``
    and block t is read at ``angles_deg[t]``, as one call per block would
    read it.  The angles must lie in [-90, 90] degrees.

    The peak is found in two passes instead of over the whole grid.  The
    first computes the powers at every `PEAK_COARSE_ROWS`-th grid point and
    the last one, for every block at once.  Between two neighbouring points
    a < b of that pass, with u = sin(angle), the field magnitude of a
    vector is at most ``(|F(a)| + |F(b)| + lip * (u_b - u_a)) / 2``, where
    ``lip`` is ``2*pi*d * sum(|n - (N-1)/2| * |w_n|)``.  The second pass
    computes, per block, its K target points and every point between a and
    b where, for some vector of the block, that bound is within rounding of
    the vector's first-pass peak.  Each power comes from a matrix-vector
    product over a subset of at least two of the grid's rows, so the peak
    is the whole grid's peak bit for bit only if such a product equals the
    same rows of the whole-grid product.  That is probed once per geometry
    (`_subset_rows_exact`); where it fails, the whole grid is computed.
    """
    w = _as_weights(config, w)
    step_deg = float(_check_real("step_deg", step_deg))
    grid_deg, response = _grid_response(config, step_deg)
    angles_deg = np.asarray(angles_deg, dtype=float)
    if angles_deg.ndim > 2:
        raise ValueError(f"angles must be (K,) or (T, K), got shape "
                         f"{angles_deg.shape}")
    if angles_deg.ndim == 2:
        if w.ndim < 2 or w.shape[0] != len(angles_deg):
            raise ValueError(f"angles of {len(angles_deg)} blocks need weights "
                             f"(T, ..., N) with T = {len(angles_deg)}, got "
                             f"shape {w.shape}")
        idx = _grid_index(grid_deg, angles_deg).reshape(angles_deg.shape)
        blocks = w.reshape(len(w), math.prod(w.shape[1:-1]), w.shape[-1])
    else:
        idx = _grid_index(grid_deg, angles_deg)[None]
        blocks = w.reshape(1, math.prod(w.shape[:-1]), w.shape[-1])
    shape = w.shape[:-1] + idx.shape[-1:]
    if not _subset_rows_exact(config, step_deg):
        levels = beampattern_trace(config, w, step_deg, floor_db).power_db
        return np.take_along_axis(levels.reshape(blocks.shape[:-1] + (-1,)),
                                  idx[:, None], axis=-1).reshape(shape)

    # A one-row product takes numpy's dot path and rounds differently: the
    # coarse rows include both grid endpoints, and a lone second-pass row is
    # computed twice.
    coarse = _coarse_rows(grid_deg.size)
    magnitude = np.abs(_field(response[coarse], blocks))
    fine = _rows_to_refine(config, blocks, np.sin(np.radians(grid_deg[coarse])),
                           coarse, magnitude)
    peak = (magnitude**2).max(axis=-1, keepdims=True)
    power = np.empty(blocks.shape[:-1] + idx.shape[-1:])
    for t, rows in enumerate(fine):
        at = slice(rows.size, rows.size + idx.shape[-1])
        rows = np.concatenate((rows, idx[t]))
        if rows.size == 1:
            rows = np.repeat(rows, 2)
        block = np.abs(_field(response[rows], blocks[t])) ** 2
        peak[t] = np.maximum(peak[t], block.max(axis=-1, keepdims=True,
                                                initial=0.0))
        power[t] = block[..., at]
    return _normalized_db(power, peak, floor_db).reshape(shape)


def _coarse_rows(points: int) -> np.ndarray:
    """Every `PEAK_COARSE_ROWS`-th index of a ``points``-point grid, and the
    last one."""
    rows = np.arange(0, points, PEAK_COARSE_ROWS)
    return rows if rows[-1] == points - 1 else np.append(rows, points - 1)


def _rows_to_refine(config: ArrayConfig, w: np.ndarray, sines: np.ndarray,
                    rows: np.ndarray, magnitude: np.ndarray) -> list:
    """Per block of ``w`` ``(T, V, N)``, the grid indices between the
    sorted ``rows``, which include 0, whose field magnitude may exceed the
    largest of ``magnitude`` ``(T, V, R)``, the computed magnitudes of ``w``
    at ``rows``, for some vector of the block; ``sines`` holds sin(angle)
    at ``rows``."""
    n = config.n_antennas
    d = config.spacing_wavelengths
    abs_w = np.abs(w)
    lip = TWO_PI * d * (abs_w @ np.abs(np.arange(n) - (n - 1) / 2))
    top = magnitude.max(axis=-1)
    # Rounding of the computed magnitudes: relative to the peak, and
    # absolute for the products, whose phases carry errors up to
    # 2*pi*d*N ulps; the peak may sit far below sum|w_n| at small spacing.
    eps = np.finfo(float).eps
    slack = 1e-9 * top + 16 * n * (1 + TWO_PI * d) * eps * abs_w.sum(axis=-1)
    bound = (magnitude[..., :-1] + magnitude[..., 1:]
             + lip[..., None] * np.diff(sines)) / 2
    keep = (bound > (top - slack)[..., None]).any(axis=-2)
    # Index g with rows[k] < g <= rows[k + 1] lies in interval k.
    inside = np.repeat(keep, np.diff(rows), axis=-1)
    inside[:, rows[1:] - 1] = False
    return [1 + np.flatnonzero(block) for block in inside]


def _grid_index(grid_deg: np.ndarray, angles_deg) -> np.ndarray:
    """Index of the point of ``grid_deg``, an `angle_grid_deg` grid, closest
    to each of ``angles_deg``, the first one on a tie.  The angles must be
    finite and lie in [-90, 90] degrees, the span of every grid."""
    angles_deg = np.ravel(_check_angles(angles_deg))
    # The grid is uniform, so each angle lies between the points lo and
    # lo + 1 of its rounded-down position; the closer one wins, lo on a tie.
    last = grid_deg.size - 1
    lo = np.minimum(((angles_deg + 90.0) * (last / 180.0)).astype(np.int64),
                    last - 1)
    return lo + (np.abs(grid_deg[lo + 1] - angles_deg)
                 < np.abs(grid_deg[lo] - angles_deg))


def _field(response: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Complex field ``(..., R)`` of ``w`` ``(..., N)`` at the R rows of a
    conjugate steering matrix."""
    # One matrix-vector product per weight vector: a single matrix-matrix
    # product would sum in another order and change the last bits.
    return np.matmul(response, w[..., None])[..., 0]


@functools.lru_cache(maxsize=8)
def _subset_rows_exact(config: ArrayConfig, step_deg: float) -> bool:
    """Whether, with the BLAS in use, the field over subsets of at least two
    rows of the cached response equals the same rows of the field over the
    whole response, in every call shape `levels_db` uses: one probe vector
    against several row sets, a stack of blocks ``(T, V, N)`` against the
    coarse rows, and each block against its own gathered rows."""
    _, response = _grid_response(config, step_deg)
    points = len(response)
    n = np.arange(config.n_antennas)
    probes = (1.0 + n) * np.exp(1j * (0.7 * n + 0.3 * n**2
                                      + np.arange(6).reshape(2, 3, 1)))
    full = _field(response, probes)
    every = np.arange(points)
    coarse = _coarse_rows(points)
    # Row counts of every remainder mod 4, at several row alignments.
    subsets = (coarse, every[1::7], every[points // 2:], every[-2:],
               every[:3], every[points // 3:points // 3 + 4], every[1::2])
    # A block's fine rows, then its target rows, in no particular order.
    gathered = (np.concatenate((every[points // 4:points // 2],
                                every[[-1, 0, points // 2]])),
                np.concatenate((every[1::5], every[[points // 3, 0]])))
    return (all(np.array_equal(_field(response[rows], probes[0, 0]),
                               full[0, 0, rows])
                for rows in subsets if rows.size >= 2)
            and np.array_equal(_field(response[coarse], probes),
                               full[..., coarse])
            and all(np.array_equal(_field(response[rows], block),
                                   block_full[..., rows])
                    for rows, block, block_full in zip(gathered, probes, full)))


def _grid_points(step_deg: float, n_antennas: int = 1) -> int:
    """Point count of ``angle_grid_deg(step_deg)``, checked before any array
    exists: ``step_deg`` must divide 180 evenly, and the grid's steering
    matrix, points x ``n_antennas``, must not exceed `MAX_GRID_ENTRIES`."""
    if not _check_real("step_deg", step_deg) > 0:
        raise ValueError("step_deg must be positive")
    # Clamped so that a tiny step cannot overflow `round`.
    n_intervals = round(min(180.0 / step_deg, MAX_GRID_ENTRIES))
    if (n_intervals + 1) * n_antennas > MAX_GRID_ENTRIES:
        raise ValueError(
            f"a {_exact(step_deg)}-degree grid for {n_antennas} antennas "
            f"exceeds {MAX_GRID_ENTRIES} steering-matrix entries "
            "(grid points x antennas); use a coarser grid step"
        )
    if n_intervals < 1 or abs(n_intervals * step_deg - 180.0) > 1e-9:
        raise ValueError("step_deg must divide 180 degrees evenly")
    return n_intervals + 1


def angle_grid_deg(step_deg: float = DEFAULT_GRID_STEP_DEG) -> np.ndarray:
    """Symmetric degree grid over [-90, 90], inclusive of both endpoints."""
    return np.linspace(-90.0, 90.0, _grid_points(step_deg))


def _rms_db(levels) -> np.ndarray:
    """Root-mean-square dB difference of row 0 of ``levels`` ``(..., R, K)``
    from each later row (reference minus the other), shape ``(..., R - 1)``."""
    diff = levels[..., :1, :] - levels[..., 1:, :]
    return np.sqrt(np.mean(diff**2, axis=-1))
