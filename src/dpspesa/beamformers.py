"""Reference multi-target beamformer: regularized MVDR.

The single-target reference is the steering vector itself
(`array_model.steering_vector`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

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


def mvdr_beamformer(config: ArrayConfig, scenario: TargetScenario,
                    gamma: float) -> np.ndarray:
    """Multi-target beamformer pointing at the desired target with nulls elsewhere.

    Solves ``(gamma*I + A A^H) w = a(theta_desired)`` where the columns of
    ``A`` are the steering vectors of all targets.  ``gamma`` trades null
    depth against conditioning and must be strictly positive (the gamma=0
    system is singular whenever there are fewer targets than antennas).
    N x N must not exceed `array_model.MAX_GRID_ENTRIES`, checked before
    any array is built.

    Parameters
    ----------
    config : ArrayConfig
        Array geometry.
    scenario : TargetScenario
        Target directions and the desired index.
    gamma : float
        Null-depth regularizer, > 0.

    Returns
    -------
    ndarray
        Complex weights of length ``config.n_antennas``.
    """
    if not gamma > 0:
        raise ValueError("gamma must be strictly positive")
    n = config.n_antennas
    if n * n > MAX_GRID_ENTRIES:
        raise ValueError(
            f"a {n} x {n} MVDR matrix exceeds {MAX_GRID_ENTRIES} entries; "
            "use fewer antennas"
        )
    if scenario.n_targets > n:
        warnings.warn(
            f"nulling {scenario.n_targets} targets with only {n} antennas "
            "exceeds the array's degrees of freedom",
            stacklevel=2,
        )
    a_mat = np.column_stack(
        [steering_vector(config, t) for t in scenario.target_angles_deg]
    )
    lhs = gamma * np.eye(n) + a_mat @ a_mat.conj().T
    rhs = a_mat[:, scenario.desired_index]
    return cho_solve(cho_factor(lhs), rhs)
