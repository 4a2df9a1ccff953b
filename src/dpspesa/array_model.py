"""Uniform linear array geometry, steering vectors, and beampatterns.

A beamformer is a complex ndarray of length ``config.n_antennas``; the
beampattern sampler and the level sampler `levels_db` also take stacks
of them, shape ``(..., N)``.  Single angles are radians; sampled angle
grids (`BeampatternTrace`) carry degrees, which is what every downstream
consumer (experiments, CSV output) works in.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi
HALF_PI = 0.5 * np.pi

DEFAULT_FLOOR_DB = -80.0
DEFAULT_GRID_STEP_DEG = 0.1
# Bound on the entries of one complex128 matrix (64 MiB): grid points x N
# of a sampled steering matrix, about 97 times N=24 on the 0.1-degree grid
# (43,224), and N x N of the MVDR system matrix (N <= 2048).
MAX_GRID_ENTRIES = 1 << 22


@dataclass(frozen=True)
class ArrayConfig:
    """Uniform linear array: element count and spacing in carrier wavelengths."""

    n_antennas: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("n_antennas must be a positive integer")
        if not self.spacing_wavelengths > 0:
            raise ValueError("spacing_wavelengths must be positive")


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


def _check_angles(thetas) -> np.ndarray:
    """Look directions (radians) as a float array; each must lie in [-pi/2, pi/2]."""
    thetas = np.asarray(thetas, dtype=float)
    bad = ~(np.abs(thetas) <= HALF_PI)
    if bad.any():
        raise ValueError(
            f"look direction must lie in [-pi/2, pi/2], got {thetas[bad].flat[0]}"
        )
    return thetas


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


def steering_vector(config: ArrayConfig, theta: float) -> np.ndarray:
    """Steering vector for a plane wave toward direction ``theta`` (radians).

    Entry ``n`` is ``exp(1j * 2*pi * n * d/lambda * sin(theta))``; entry 0
    is exactly 1 and all entries have unit modulus.
    """
    theta = float(theta)
    _check_angles(theta)
    n = np.arange(config.n_antennas)
    return np.exp(1j * TWO_PI * n * config.spacing_wavelengths * np.sin(theta))


def steering_matrix(config: ArrayConfig, thetas) -> np.ndarray:
    """Stack steering vectors row-wise: shape ``(len(thetas), n_antennas)``."""
    thetas = _check_angles(thetas)
    n = np.arange(config.n_antennas)
    phase = TWO_PI * config.spacing_wavelengths * np.outer(np.sin(thetas), n)
    return np.exp(1j * phase)


def _normalized_db(power: np.ndarray, peak: np.ndarray, floor_db: float) -> np.ndarray:
    """``power`` in dB relative to ``peak`` (broadcasting), clamped below at
    ``floor_db``; ``floor_db`` wherever the peak is zero."""
    if not floor_db < 0:
        raise ValueError("floor_db must be negative")
    with np.errstate(divide="ignore", invalid="ignore"):
        power_db = np.maximum(10.0 * np.log10(power / peak), floor_db)
    return np.where(peak > 0, power_db, floor_db)


# Eight geometries at most; one entry at N=24 on the 0.1-degree grid is ~0.7 MB.
@functools.lru_cache(maxsize=8)
def _grid_response(config: ArrayConfig, step_deg: float):
    """Read-only degree grid and conjugate steering matrix for one geometry."""
    _grid_points(step_deg, config.n_antennas)
    grid_deg = angle_grid_deg(step_deg)
    response = steering_matrix(config, np.radians(grid_deg)).conj()
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
    grid_deg, power, peak = _grid_powers(config, w, step_deg)
    return BeampatternTrace(grid_deg, power, _normalized_db(power, peak, floor_db),
                            float(floor_db))


def levels_db(config: ArrayConfig, w, angles_deg,
              step_deg: float = DEFAULT_GRID_STEP_DEG,
              floor_db: float = DEFAULT_FLOOR_DB) -> np.ndarray:
    """Peak-normalized dB levels of ``w`` at the grid points nearest
    ``angles_deg``.

    Equal, bit for bit, to ``beampattern_trace(config, w, step_deg,
    floor_db).power_db[..., idx]`` with ``idx`` the index of the closest
    grid point to each angle (the first one on a tie), but the dB
    conversion runs only at those K points.  ``w`` has shape ``(..., N)``;
    the result ``(..., K)``.
    """
    grid_deg, power, peak = _grid_powers(config, w, step_deg)
    angles_deg = np.ravel(np.asarray(angles_deg, dtype=float))
    if not np.all(np.isfinite(angles_deg)):
        raise ValueError("angles must be finite")
    idx = np.argmin(np.abs(grid_deg - angles_deg[:, None]), axis=-1)
    return _normalized_db(power[..., idx], peak, floor_db)


def _grid_powers(config: ArrayConfig, w, step_deg: float):
    """Cached degree grid, the linear powers ``(..., G)`` of ``w`` on it and
    their peak over the whole grid, ``(..., 1)``."""
    w = _as_weights(config, w)
    grid_deg, response = _grid_response(config, float(step_deg))
    # One matrix-vector product per weight vector: a single matrix-matrix
    # product would sum in another order and change the last bits.
    field = np.matmul(response, w[..., None])[..., 0]
    power = np.abs(field) ** 2
    return grid_deg, power, power.max(axis=-1, keepdims=True)


def _grid_points(step_deg: float, n_antennas: int = 1) -> int:
    """Point count of ``angle_grid_deg(step_deg)``, checked before any array
    exists: ``step_deg`` must divide 180 evenly, and the grid's steering
    matrix, points x ``n_antennas``, must not exceed `MAX_GRID_ENTRIES`."""
    if not step_deg > 0:
        raise ValueError("step_deg must be positive")
    # Clamped so that a tiny step cannot overflow `round`.
    n_intervals = round(min(180.0 / step_deg, MAX_GRID_ENTRIES))
    if (n_intervals + 1) * n_antennas > MAX_GRID_ENTRIES:
        raise ValueError(
            f"a {step_deg:g}-degree grid for {n_antennas} antennas exceeds "
            f"{MAX_GRID_ENTRIES} steering-matrix entries (grid points x "
            "antennas); use a coarser grid step"
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
