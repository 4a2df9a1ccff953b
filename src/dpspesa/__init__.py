"""Beamforming for passive arrays driven by paired quantized phase shifters.

Connecting each antenna to the single RF chain through two phase shifters
lets a passive array realize any complex weight of modulus at most 2, so
amplitude-and-phase designs such as the regularized multi-target (MVDR)
beamformer become reachable.  This package provides the array model, the
reference beamformers, the quantized two-phasor synthesis, and the
experiment harness plus CLI that exercise them.  The package namespace
holds the quick-start names and the experiment entry points; everything
else is imported from its submodule.
"""

from .array_model import ArrayConfig, beampattern_trace
from .beamformers import mvdr_beamformer
from .dps_quantize import PhaseGrid, approximate
from .experiments import (
    ScenarioSpec,
    run_monte_carlo,
    run_mvdr_clutter,
    run_single_target,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayConfig",
    "PhaseGrid",
    "ScenarioSpec",
    "approximate",
    "beampattern_trace",
    "mvdr_beamformer",
    "run_monte_carlo",
    "run_mvdr_clutter",
    "run_single_target",
    "__version__",
]
