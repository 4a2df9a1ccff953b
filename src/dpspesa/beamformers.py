"""Reference multi-target beamformer: regularized MVDR, given the target
angles and the index of the one to illuminate.

The single-target reference is the steering vector itself
(`array_model.steering_vector`).

The MVDR systems are solved through scipy's LAPACK, which is imported on
the first solve, not with this module: a command that solves none (a
steering or PESA pattern, a single-target run, the oracle check) never
loads ``scipy.linalg``.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from numpy.linalg import LinAlgError

from .array_model import (
    MAX_GRID_ENTRIES,
    ArrayConfig,
    _check_angles,
    _is_count,
    steering_vector,
)


def _check_targets(target_angles_deg, desired_index) -> tuple:
    """The target directions as a tuple of floats: at least one, each in
    [-90, 90] degrees, pairwise distinct, and ``desired_index`` one of
    their indices."""
    angles = tuple(float(t) for t in target_angles_deg)
    if len(angles) < 1:
        raise ValueError("at least one target angle is required")
    _check_angles(angles)
    if len(set(angles)) != len(angles):
        raise ValueError("target angles must be pairwise distinct")
    if not _is_count(desired_index):
        raise ValueError("desired_index must be an integer")
    if not 0 <= desired_index < len(angles):
        raise ValueError("desired_index out of range")
    return angles


def _check_gamma(gamma: float | None) -> None:
    """A given gamma must be finite and strictly positive."""
    if gamma is not None:
        if not gamma > 0:
            raise ValueError("gamma must be strictly positive when present")
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {gamma:g}")


def mvdr_beamformer(config: ArrayConfig, target_angles_deg, gamma: float,
                    desired_index: int = 0) -> np.ndarray:
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
    target_angles_deg : sequence of float
        Target directions in degrees, at least one, each in [-90, 90] and
        pairwise distinct.
    gamma : float
        Null-depth regularizer, finite and > 0.
    desired_index : int
        Index of the target to illuminate.

    Returns
    -------
    ndarray
        Complex weights of length ``config.n_antennas``.
    """
    [w] = _mvdr(config, [_check_targets(target_angles_deg, desired_index)],
                [desired_index], gamma)
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
    from scipy.linalg import lapack  # about 0.3 s, so only once a solve needs it

    return np.stack([_cholesky_solve(lapack, m, b) for m, b in zip(lhs, rhs)])


def _cholesky_solve(lapack, m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the Hermitian positive-definite system ``m x = b`` through
    ``lapack.zpotrf``/``zpotrs`` on the upper triangle: the calls, bits and
    error types of scipy's ``cho_solve(cho_factor(m), b)`` without its
    wrappers.  ``lapack`` is ``scipy.linalg.lapack``, which `_mvdr` imports
    on the first solve: `clutter`, `sweep` and the `mvdr` and multi-target
    or gamma `dps` patterns load it, the other commands never do.  The
    MVDR matrices are finite by construction (finite gamma,
    unit-modulus steering entries), so there is no finiteness check."""
    c, info = lapack.zpotrf(m, lower=0, clean=0)
    if info > 0:
        raise LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    if info == 0:
        x, info = lapack.zpotrs(c, b, lower=0)
    if info < 0:
        raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                         "argument of a Cholesky routine")
    return x
