"""Reference multi-target beamformer: regularized MVDR.

The single-target reference is the steering vector itself
(`array_model.steering_vector`).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import zpotrf, zpotrs

from .array_model import (
    MAX_GRID_ENTRIES,
    ArrayConfig,
    _check_angles,
    steering_vector,
)


@dataclass(frozen=True)
class TargetScenario:
    """Known target directions in degrees, each in [-90, 90] and pairwise
    distinct, and the index of the one to illuminate."""

    target_angles_deg: tuple
    desired_index: int = 0

    def __post_init__(self):
        angles = tuple(float(t) for t in self.target_angles_deg)
        object.__setattr__(self, "target_angles_deg", angles)
        if len(angles) < 1:
            raise ValueError("at least one target angle is required")
        _check_angles(angles)
        if len(set(angles)) != len(angles):
            raise ValueError("target angles must be pairwise distinct")
        if not 0 <= self.desired_index < len(angles):
            raise ValueError("desired_index out of range")

    @property
    def n_targets(self) -> int:
        return len(self.target_angles_deg)

    @property
    def desired_angle_deg(self) -> float:
        return self.target_angles_deg[self.desired_index]


def _check_gamma(gamma: float | None) -> None:
    """A given gamma must be finite and strictly positive."""
    if gamma is not None:
        if not gamma > 0:
            raise ValueError("gamma must be strictly positive when present")
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma:g}")


def mvdr_beamformer(config: ArrayConfig, scenario: TargetScenario,
                    gamma: float) -> np.ndarray:
    """Multi-target beamformer pointing at the desired target with nulls elsewhere.

    Solves ``(gamma*I + A A^H) w = a(theta_desired)`` where the columns of
    ``A`` are the steering vectors of all targets.  ``gamma`` trades null
    depth against conditioning and must be finite and strictly positive
    (the gamma=0 system is singular whenever there are fewer targets than
    antennas).
    N x N must not exceed `array_model.MAX_GRID_ENTRIES`, checked before
    any array is built.

    Parameters
    ----------
    config : ArrayConfig
        Array geometry.
    scenario : TargetScenario
        Target directions and the desired index.
    gamma : float
        Null-depth regularizer, finite and > 0.

    Returns
    -------
    ndarray
        Complex weights of length ``config.n_antennas``.
    """
    [w] = _mvdr(config, [scenario.target_angles_deg],
                [scenario.desired_index], gamma)
    return w


def _mvdr(config: ArrayConfig, angles_deg, desired, gamma: float) -> np.ndarray:
    """`mvdr_beamformer` weights ``(T, N)`` of T scenarios: target angles
    ``(T, K)`` and desired indices ``(T,)``.

    One batched product builds every system matrix; each system is then
    factored and solved on its own (`_cholesky_solve`), so every row equals
    the one-scenario solve bit for bit.
    """
    if gamma is None:
        raise ValueError("MVDR needs a gamma, got None")
    _check_gamma(gamma)
    n = config.n_antennas
    if n * n > MAX_GRID_ENTRIES:
        raise ValueError(
            f"a {n} x {n} MVDR matrix exceeds {MAX_GRID_ENTRIES} entries; "
            "use fewer antennas"
        )
    angles_deg = np.asarray(angles_deg, dtype=float)
    if angles_deg.shape[-1] > n:
        warnings.warn(
            f"nulling {angles_deg.shape[-1]} targets with only {n} antennas "
            "exceeds the array's degrees of freedom",
            stacklevel=3,
        )
    # Each A is C-ordered with the steering vectors as columns, as
    # np.column_stack builds it, so each product takes the same BLAS call.
    a_mat = np.ascontiguousarray(
        steering_vector(config, angles_deg).swapaxes(-1, -2))
    lhs = gamma * np.eye(n) + a_mat @ a_mat.conj().swapaxes(-1, -2)
    rhs = a_mat[np.arange(len(a_mat)), :, desired]
    return np.stack([_cholesky_solve(m, b) for m, b in zip(lhs, rhs)])


def _cholesky_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the Hermitian positive-definite system ``m x = b`` through
    LAPACK ``zpotrf``/``zpotrs`` on the upper triangle: the calls, bits and
    error types of scipy's ``cho_solve(cho_factor(m), b)`` without its
    wrappers.  The MVDR matrices are finite by construction (finite gamma,
    unit-modulus steering entries), so there is no finiteness check."""
    c, info = zpotrf(m, lower=0, clean=0)
    if info > 0:
        raise LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info == 0:
        x, info = zpotrs(c, b, lower=0)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         "argument of a Cholesky routine")
    return x
