"""Reference multi-target beamformer: regularized MVDR, given the target
angles and the index of the one to illuminate, for one scenario or a
stack of them.

The single-target reference is the steering vector itself
(`array_model.steering_vector`).

The MVDR systems are solved through scipy's compiled LAPACK extension,
``scipy/linalg/_flapack``, loaded on its own at the first solve (`_lapack`)
and not through the ``scipy.linalg`` package, whose import costs about
0.15 s and 25 MB for the one routine used.  `clutter`, `sweep` and the
`mvdr` and multi-target or gamma `dps` patterns load the extension; a
command that solves none (a steering or PESA pattern, a single-target run,
the oracle check) never does, and no command imports ``scipy.linalg``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import warnings

import numpy as np
from numpy.linalg import LinAlgError

from .array_model import (
    MAX_GRID_ENTRIES,
    ArrayConfig,
    _check_angles,
    _check_real,
    _exact,
    _is_count,
    steering_vector,
)


def _check_targets(target_angles_deg, desired_index):
    """The target directions as a float array ``(..., K)`` and the desired
    indices as an integer array ``(...)``: per scenario at least one
    target, each in [-90, 90] degrees, pairwise distinct, and its desired
    index one of their indices."""
    angles = np.asarray(target_angles_deg, dtype=float)
    if angles.ndim == 0 or angles.shape[-1] < 1:
        raise ValueError("at least one target angle is required")
    _check_angles(angles)
    ordered = np.sort(angles, axis=-1)
    if (ordered[..., 1:] == ordered[..., :-1]).any():
        raise ValueError("target angles must be pairwise distinct")
    desired = np.asarray(desired_index)
    # A Python int beyond int64 makes an object array; it is out of range.
    if not (_is_count(desired_index) or desired.dtype.kind in "iu"):
        raise ValueError("desired_index must be an integer")
    if desired.shape != angles.shape[:-1]:
        raise ValueError(f"desired_index must have shape {angles.shape[:-1]}, "
                         f"one index per scenario, got {desired.shape}")
    if not np.all((0 <= desired) & (desired < angles.shape[-1])):
        raise ValueError("desired_index out of range")
    return angles, desired


def _check_gamma(gamma: float | None) -> None:
    """A given gamma must be a finite, strictly positive number."""
    if gamma is not None:
        if not _check_real("gamma", gamma) > 0:
            raise ValueError("gamma must be strictly positive when present")
        if not math.isfinite(gamma):
            raise ValueError(f"gamma must be finite, got {_exact(gamma)}")


def _check_mvdr_size(n: int) -> None:
    """An N x N MVDR system must not exceed `array_model.MAX_GRID_ENTRIES`
    entries."""
    if n * n > MAX_GRID_ENTRIES:
        raise ValueError(
            f"a {n} x {n} MVDR matrix exceeds {MAX_GRID_ENTRIES} entries; "
            "use fewer antennas"
        )


@functools.cache
def _lapack():
    """scipy's compiled LAPACK extension, ``scipy/linalg/_flapack``: the
    module that ``scipy.linalg.lapack`` re-exports, so the same routines
    and bits, loaded without the ``scipy.linalg`` package.

    The module is not filed under ``scipy.linalg._flapack``, so a later
    ``import scipy.linalg`` loads scipy's own copy as usual (CPython files
    it under the bare name ``_flapack``).  Every scipy the package
    supports ships the extension, so there is no fallback.
    """
    import scipy  # the top-level package only, a few ms

    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")])
    if spec is None:
        raise ImportError("scipy/linalg/_flapack, scipy's compiled LAPACK "
                          "extension, was not found")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mvdr_beamformer(config: ArrayConfig, target_angles_deg, gamma: float,
                    desired_index=0) -> np.ndarray:
    """Multi-target beamformer pointing at the desired target with nulls elsewhere.

    Solves ``(gamma*I + A A^H) w = a(theta_desired)`` where the columns of
    ``A`` are the steering vectors of all targets.  ``gamma`` trades null
    depth against conditioning and must be finite and strictly positive
    (the gamma=0 system is singular whenever there are fewer targets than
    antennas).
    N x N must not exceed `array_model.MAX_GRID_ENTRIES`, checked before
    any array is built.

    A stack of scenarios solves in one call, one system at a time: each
    scenario's system matrix is built, factored and solved on its own, so
    memory holds one N x N matrix and every row equals its one-scenario
    call bit for bit.

    Parameters
    ----------
    config : ArrayConfig
        Array geometry.
    target_angles_deg : array_like of float
        Target directions in degrees, ``(K,)`` for one scenario or
        ``(..., K)`` for a stack; per scenario at least one, each in
        [-90, 90] and pairwise distinct.
    gamma : float
        Null-depth regularizer, finite and > 0.
    desired_index : int or array_like of int
        Index of the target to illuminate, of shape ``(...)``: one per
        scenario.

    Returns
    -------
    ndarray
        Complex weights, ``(..., config.n_antennas)``.
    """
    angles_deg, desired = _check_targets(target_angles_deg, desired_index)
    if gamma is None:
        raise ValueError("MVDR needs a gamma, got None")
    _check_gamma(gamma)
    n = config.n_antennas
    _check_mvdr_size(n)
    k = angles_deg.shape[-1]
    if k > n:
        warnings.warn(
            f"nulling {k} targets with only {n} antennas "
            "exceeds the array's degrees of freedom",
            stacklevel=2,
        )
    # Each A is C-ordered with the steering vectors as columns, as
    # np.column_stack builds it, so each product takes the same BLAS call.
    a_mat = np.ascontiguousarray(
        steering_vector(config, angles_deg.reshape(-1, k)).swapaxes(-1, -2))
    lapack = _lapack()

    # zposv on the upper triangle runs zpotrf then zpotrs: the calls, bits
    # and error types of scipy's cho_solve(cho_factor(m), b) without its
    # wrappers.  The matrices are finite by construction (finite gamma,
    # unit-modulus steering entries), so there is no finiteness check.
    reg = gamma * np.eye(n)
    w = np.empty((len(a_mat), n), complex)
    for t, (a, d) in enumerate(zip(a_mat, desired.ravel())):
        _, w[t], info = lapack.zposv(reg + a @ a.conj().T, a[:, d], lower=0)
        if info > 0:
            raise LinAlgError(
                f"{info}-th leading minor of the array is not positive definite")
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in {-info}-th "
                             "argument of a Cholesky routine")
    return w.reshape(angles_deg.shape[:-1] + (n,))
