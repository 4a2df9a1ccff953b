"""Host-speed reference for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
stretches of seconds to minutes, often for a whole run, and the lost time
is not steal time: the process's CPU time grows with its wall time.  A
worker therefore times a fixed reference kernel, which does not touch
dpspesa, between its calls, and divides each measured time by the local
slowdown, the kernel's time over `NOMINAL_S`.  The scaled figures read as
on a host where the kernel takes `NOMINAL_S`; the raw ones are kept
alongside.  The kernel mixes what the workloads do: interpreted loops,
small numpy operations and a complex matrix-vector product.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's time on a busy 2-vCPU Xeon guest with BLAS on one
# thread; the same guest runs it in 1.7 to 3.7 ms as its load changes.
NOMINAL_S = 0.0035
# Kernel samples on each side of a call that set its slowdown.
HALF_WINDOW = 3

_rng = np.random.default_rng(2204)
_MATRIX = _rng.standard_normal((600, 16)) + 1j * _rng.standard_normal((600, 16))
_VECTOR = _rng.standard_normal(16) + 0j


def _kernel() -> float:
    acc = 0.0
    x = np.arange(16.0)
    for k in range(250):
        acc += float(np.abs(x * 0.5 + k).min())
        acc += sum(i * k for i in range(16)) * 1e-9
        acc += len("".join({i: str(i) for i in range(6)}.values()))
    return acc + float(np.abs(_MATRIX @ _VECTOR).sum())


def kernel_s(reps: int = 1) -> float:
    """Mean time of ``reps`` back-to-back runs of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return (time.perf_counter() - t0) / reps


def slowdowns(ref_s: list, calls: int) -> list:
    """Host slowdown during each call, from kernel samples around it.

    ``ref_s[i]`` is the kernel time taken just before call ``i`` and
    ``ref_s[i + 1]`` the one just after it.  A call's slowdown is the mean
    of the `HALF_WINDOW` samples on each side over `NOMINAL_S`.  A mean,
    not a median: a call lasting many kernel times also averages over the
    host's fast and slow moments.
    """
    if len(ref_s) != calls + 1:
        raise ValueError(f"{len(ref_s)} kernel samples for {calls} calls")
    return [statistics.fmean(ref_s[max(0, i + 1 - HALF_WINDOW):i + 1 + HALF_WINDOW])
            / NOMINAL_S for i in range(calls)]
