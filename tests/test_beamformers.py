import importlib.machinery
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import cho_factor, cho_solve

from dpspesa import beamformers
from dpspesa.array_model import (
    ArrayConfig,
    beampattern_trace,
    levels_db,
    steering_vector,
)
from dpspesa.beamformers import mvdr_beamformer
from dpspesa.experiments import ScenarioSpec, draw_target_angles, trial_rng

FIG3_TARGETS = (-47.0, 30.0, 49.0)


def _residual(config, angles, desired_index, gamma, w):
    a_mat = np.column_stack([steering_vector(config, t) for t in angles])
    lhs = gamma * np.eye(config.n_antennas) + a_mat @ a_mat.conj().T
    return np.linalg.norm(lhs @ w - a_mat[:, desired_index])


def test_scenario_validation():
    # The solver and the experiments' spec check the targets alike.
    cfg = ArrayConfig(8, 0.5)
    for angles, desired_index, message in [
        ((), 0, "^at least one target angle is required$"),
        ((6.0, 6.0), 0, "^target angles must be pairwise distinct$"),
        ((6.0, 11.0), 2, "^desired_index out of range$"),
        ((95.0,), 0, r"^angles must be finite and lie in \[-90, 90\] "
                     "degrees, got 95$"),
    ]:
        with pytest.raises(ValueError, match=message):
            mvdr_beamformer(cfg, angles, 0.1, desired_index)
        if angles:  # a spec without targets serves the sweep
            with pytest.raises(ValueError, match=message):
                ScenarioSpec(cfg, angles, desired_index)


@pytest.mark.parametrize("desired_index", [1.0, True, np.float64(0)])
def test_a_non_integral_desired_index_is_refused(desired_index, monkeypatch):
    # Refused before any solve, by the solver and the spec alike.
    monkeypatch.setattr(beamformers, "steering_vector", None)
    cfg = ArrayConfig(8, 0.5)
    with pytest.raises(ValueError, match="^desired_index must be an integer$"):
        mvdr_beamformer(cfg, FIG3_TARGETS, 0.1, desired_index)
    with pytest.raises(ValueError, match="^desired_index must be an integer$"):
        ScenarioSpec(cfg, FIG3_TARGETS, desired_index)


def test_a_numpy_integer_desired_index_is_taken():
    cfg = ArrayConfig(8, 0.5)
    assert np.array_equal(mvdr_beamformer(cfg, FIG3_TARGETS, 0.1, np.int64(2)),
                          mvdr_beamformer(cfg, FIG3_TARGETS, 0.1, 2))


def test_steering_beamformer_matches_steering_vector():
    # The single-target beamformer is the steering vector itself: it peaks
    # at N^2 toward its own look direction.
    cfg = ArrayConfig(4, 0.5)
    assert_allclose(steering_vector(cfg, 0.0), np.ones(4), rtol=0, atol=0)
    assert_allclose(
        steering_vector(ArrayConfig(2, 0.5), 30.0), [1.0, 1j], atol=1e-12
    )
    tr = beampattern_trace(cfg, steering_vector(cfg, -12.0), 0.1)
    assert tr.angles_deg[np.argmax(tr.power_linear)] == pytest.approx(-12.0)
    assert tr.power_linear.max() == pytest.approx(16.0, rel=1e-9)


def test_mvdr_single_target_closed_form():
    # For one target, (gamma*I + a a^H)^{-1} a = a / (gamma + N).
    cfg = ArrayConfig(16, 0.5)
    w = mvdr_beamformer(cfg, (17.0,), gamma=0.1)
    assert_allclose(w, steering_vector(cfg, 17.0) / 16.1, atol=1e-10)
    assert _residual(cfg, (17.0,), 0, 0.1, w) < 1e-10 * 4.0


def test_mvdr_large_gamma_tends_to_steering():
    cfg = ArrayConfig(16, 0.5)
    w = mvdr_beamformer(cfg, FIG3_TARGETS, gamma=1e6, desired_index=2)
    tr = beampattern_trace(cfg, w, 0.1)
    assert tr.angles_deg[np.argmax(tr.power_linear)] == pytest.approx(49.0, abs=0.1)


def test_mvdr_reference_scenario_nulls():
    cfg = ArrayConfig(16, 0.5)
    w = mvdr_beamformer(cfg, FIG3_TARGETS, gamma=0.1, desired_index=2)
    assert _residual(cfg, FIG3_TARGETS, 2, 0.1, w) < 1e-10 * 4.0
    # Local minima at the undesired targets, against the levels one degree
    # (ten grid steps) to either side.
    for clutter in (-47.0, 30.0):
        below, at, above = levels_db(cfg, w, [clutter - 1.0, clutter,
                                              clutter + 1.0], 0.1)
        assert at < below
        assert at < above


def test_mvdr_rejects_nonpositive_gamma():
    cfg = ArrayConfig(8, 0.5)
    for gamma in (0.0, -0.1):
        with pytest.raises(ValueError):
            mvdr_beamformer(cfg, (6.0, 29.0), gamma)
    with pytest.raises(ValueError, match="^gamma must be finite, got inf$"):
        mvdr_beamformer(cfg, (6.0, 29.0), math.inf)


def test_mvdr_requires_a_gamma():
    with pytest.raises(ValueError, match="^MVDR needs a gamma, got None$"):
        mvdr_beamformer(ArrayConfig(8, 0.5), (6.0, 29.0), None)


def test_mvdr_bounds_n_squared_before_building_arrays(monkeypatch):
    # A lowered bound stands in for a huge N: 9 x 9 exceeds 64 entries, and
    # the check must run before any steering vector or matrix is built.
    monkeypatch.setattr(beamformers, "MAX_GRID_ENTRIES", 64)
    targets = (6.0, 29.0)
    assert mvdr_beamformer(ArrayConfig(8, 0.5), targets, 0.1).shape == (8,)

    def forbidden(*args, **kwargs):
        raise AssertionError("built an array before the N x N bound check")

    monkeypatch.setattr(beamformers, "steering_vector", forbidden)
    monkeypatch.setattr(np, "eye", forbidden)
    with pytest.raises(ValueError, match="9 x 9 MVDR matrix exceeds 64"):
        mvdr_beamformer(ArrayConfig(9, 0.5), targets, 0.1)


@pytest.mark.parametrize("n", [np.int16(4096), np.int32(65536), 4096],
                         ids=["int16", "int32", "int"])
def test_mvdr_bound_squares_a_numpy_count_without_wrapping(n):
    # 4096 * 4096 wraps to 0 in int16 and 65536 * 65536 in int32, which
    # would get a numpy count round the bound that refuses the Python int.
    with pytest.raises(ValueError, match=f"^a {n} x {n} MVDR matrix exceeds"):
        beamformers._check_mvdr_size(n)


@pytest.mark.parametrize("n_antennas, spacing, gamma", [
    (16, 0.5, 0.1), (12, 0.37, 0.05), (5, 0.8, 1.0)])
def test_batched_mvdr_equals_the_inline_solve_bit_for_bit(n_antennas, spacing,
                                                          gamma):
    # The sweep's three-target draws, solved per scenario with the steering
    # vectors stacked as columns, as the solver was written before it took
    # blocks of scenarios.
    cfg = ArrayConfig(n_antennas, spacing)
    n = np.arange(n_antennas)
    angles, desired = [], []
    for index in range(300):
        rng = trial_rng(11, index)
        angles.append(draw_target_angles(rng, count=3))
        desired.append(int(rng.integers(3)))
    angles = np.stack(angles)
    got = mvdr_beamformer(cfg, angles, gamma, desired)
    assert got.shape == (300, n_antennas)
    for t, k in enumerate(desired):
        a_mat = np.column_stack([
            np.exp(1j * 2.0 * np.pi * n * spacing * np.sin(np.radians(a)))
            for a in angles[t].tolist()])
        lhs = gamma * np.eye(n_antennas) + a_mat @ a_mat.conj().T
        want = cho_solve(cho_factor(lhs), a_mat[:, k])
        assert np.array_equal(got[t], want)
        assert np.array_equal(mvdr_beamformer(cfg, angles[t], gamma, k), want)


def test_batched_mvdr_checks_like_the_one_scenario_solve(monkeypatch):
    cfg = ArrayConfig(4, 0.5)
    angles = [[-46.0, -23.0, 0.0, 23.0, 46.0], [-40.0, -20.0, 0.0, 20.0, 40.0]]
    with pytest.warns(UserWarning, match="nulling 5 targets"):
        assert mvdr_beamformer(cfg, angles, 0.1, [0, 3]).shape == (2, 4)
    for gamma, message in ((None, "needs a gamma"), (0.0, "strictly positive"),
                           (math.inf, "finite")):
        with pytest.raises(ValueError, match=message):
            mvdr_beamformer(cfg, angles, gamma, [0, 3])
    with pytest.raises(np.linalg.LinAlgError):
        mvdr_beamformer(ArrayConfig(16, 0.5), [[0.0, 30.0, 50.0]], 1e-30, [0])
    monkeypatch.setattr(beamformers, "MAX_GRID_ENTRIES", 8)
    monkeypatch.setattr(beamformers, "steering_vector", None)
    with pytest.raises(ValueError, match="3 x 3 MVDR matrix exceeds 8"):
        mvdr_beamformer(ArrayConfig(3, 0.5), [[0.0, 30.0]], 0.1, [0])


def test_a_stack_of_scenarios_gives_one_solve_per_row():
    cfg = ArrayConfig(16, 0.5)
    angles = np.array([[[-47.0, 30.0, 49.0], [-10.0, 5.0, 60.0],
                        [0.0, 20.0, -35.0]],
                       [[12.0, -70.0, 33.0], [1.0, 2.0, 3.0],
                        [-85.0, 85.0, 0.5]]])
    desired = np.array([[2, 0, 1], [1, 2, 0]])
    got = mvdr_beamformer(cfg, angles, 0.1, desired)
    assert got.shape == (2, 3, 16)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(
            got[i, j], mvdr_beamformer(cfg, angles[i, j], 0.1, desired[i, j]))


def test_a_stack_of_scenarios_holds_one_system_matrix_at_a_time():
    # 64 scenarios at N = 128: each N x N system is built and solved on its
    # own, so the peak stays far below the 64 matrices of a built stack.
    cfg = ArrayConfig(128, 0.5)
    angles = np.stack([draw_target_angles(trial_rng(3, index), count=3)
                       for index in range(64)])
    desired = np.zeros(64, dtype=int)
    mvdr_beamformer(cfg, angles, 0.1, desired)  # loads LAPACK untraced
    tracemalloc.start()
    try:
        mvdr_beamformer(cfg, angles, 0.1, desired)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (128 * 128 * 16), peak  # 16 complex N x N matrices


@pytest.mark.parametrize("angles, desired, message", [
    ([[-47.0, 30.0, 49.0], [6.0, 6.0, 11.0]], [2, 0],
     "^target angles must be pairwise distinct$"),
    ([[-47.0, 30.0, 49.0], [6.0, 7.0, 11.0]], [2, 3],
     "^desired_index out of range$"),
    ([[-47.0, 30.0, 49.0], [6.0, 7.0, 11.0]], [2.0, 0.0],
     "^desired_index must be an integer$"),
    ([[-47.0, 30.0, 49.0], [6.0, 7.0, 11.0]], [True, False],
     "^desired_index must be an integer$"),
    ([[-47.0, 30.0, 49.0], [6.0, 7.0, 11.0]], [2, 0, 1],
     r"^desired_index must have shape \(2,\)"),
    ([[-47.0, 30.0, 49.0], [6.0, 7.0, 11.0]], 2,
     r"^desired_index must have shape \(2,\)"),
], ids=["duplicate-angles", "index-equal-to-k", "float-indices",
        "bool-indices", "too-many-indices", "one-index-for-two-scenarios"])
def test_one_bad_scenario_refuses_the_batch_before_any_array(
        angles, desired, message, monkeypatch):
    monkeypatch.setattr(beamformers, "steering_vector", None)
    with pytest.raises(ValueError, match=message):
        mvdr_beamformer(ArrayConfig(8, 0.5), angles, 0.1, desired)


@pytest.mark.parametrize("routine", ["zpotrf", "zpotrs"])
def test_an_illegal_lapack_argument_is_a_value_error(monkeypatch, routine):
    # LAPACK reports an illegal argument as a negative info, from the
    # factorization (zpotrf) or the solve (zpotrs) that zposv runs; neither
    # is taken for a failing minor.  A stage that rejects an argument
    # returns before it writes, so zposv hands back the matrix (zpotrf) or
    # its factor (zpotrs) with the right-hand side unsolved.
    # `mvdr_beamformer` looks `zposv` up on the extension `_lapack` loads.
    lapack = beamformers._lapack()
    real = lapack.zposv

    def illegal(a, b, lower=0):
        c = a if routine == "zpotrf" else real(a, b, lower=lower)[0]
        return c, b, -2

    monkeypatch.setattr(lapack, "zposv", illegal)
    with pytest.raises(ValueError, match="illegal value in 2-th argument") \
            as raised:
        mvdr_beamformer(ArrayConfig(8, 0.5), FIG3_TARGETS, 0.1, 2)
    assert not isinstance(raised.value, np.linalg.LinAlgError)


# In a fresh interpreter, loads the extension before or after
# ``scipy.linalg`` (argv[1]) and prints how many of 60 Hermitian positive
# definite systems, N = 1-39, it solves to the bits of scipy's `zposv` and
# of `cho_solve(cho_factor(m), b)`, and whether the docstrings are equal.
_LAPACK_AGAINST_SCIPY = (
    "import sys\n"
    "import numpy as np\n"
    "from dpspesa.beamformers import _lapack\n"
    "if sys.argv[1] == 'extension-first':\n"
    "    ext = _lapack()\n"
    "import scipy.linalg\n"
    "from scipy.linalg import cho_factor, cho_solve, lapack\n"
    "ext = _lapack()\n"
    "rng = np.random.default_rng(31)\n"
    "same = 0\n"
    "for t in range(60):\n"
    "    n = 1 + t % 39\n"
    "    x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))\n"
    "    m = x @ x.conj().T + 0.1 * np.eye(n)\n"
    "    b = rng.normal(size=n) + 1j * rng.normal(size=n)\n"
    "    c, w, info = ext.zposv(m, b, lower=0)\n"
    "    want_c, want_w, want_info = lapack.zposv(m, b, lower=0)\n"
    "    same += (info == want_info == 0 and np.array_equal(c, want_c)\n"
    "             and np.array_equal(w, want_w)\n"
    "             and np.array_equal(w, cho_solve(cho_factor(m), b)))\n"
    "print(same, ext.zposv.__doc__ == lapack.zposv.__doc__)\n")


@pytest.mark.parametrize("order", ["extension-first", "scipy-linalg-first"])
def test_the_lapack_extension_solves_to_scipy_linalg_bits(order, fresh_python):
    run = fresh_python("-c", _LAPACK_AGAINST_SCIPY, order)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == "60 True\n"


def test_a_missing_lapack_extension_is_an_import_error(monkeypatch):
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        classmethod(lambda cls, name, path=None, target=None:
                                    None))
    beamformers._lapack.cache_clear()
    with pytest.raises(ImportError, match="scipy/linalg/_flapack"):
        beamformers._lapack()


def test_a_failing_minor_is_a_linalg_error():
    with pytest.raises(np.linalg.LinAlgError, match=(
            "^4-th leading minor of the array is not positive definite$")):
        mvdr_beamformer(ArrayConfig(16, 0.5), FIG3_TARGETS, 1e-30, 2)


def test_mvdr_warns_when_targets_exceed_antennas():
    cfg = ArrayConfig(4, 0.5)
    with pytest.warns(UserWarning):
        w = mvdr_beamformer(cfg, (-46.0, -23.0, 0.0, 23.0, 46.0), gamma=0.1)
    assert w.shape == (4,)


def test_mvdr_residual_property_random_scenarios():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        cfg = ArrayConfig(n, 0.5)
        angles = draw_target_angles(rng, count=k)
        desired = int(rng.integers(k))
        gamma = float(rng.choice([0.1, 1.0]))
        w = mvdr_beamformer(cfg, angles, gamma, desired)
        assert _residual(cfg, angles, desired, gamma, w) < 1e-10 * math.sqrt(n)


def test_regularized_matrix_is_hermitian_positive_definite():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.choice([4, 8, 16]))
        k = int(rng.integers(1, 5))
        cfg = ArrayConfig(n, 0.5)
        angles = draw_target_angles(rng, count=k)
        a_mat = np.column_stack([steering_vector(cfg, t) for t in angles])
        gamma = float(10.0 ** rng.uniform(-3, 2))
        lhs = gamma * np.eye(n) + a_mat @ a_mat.conj().T
        assert np.all(np.real(np.diag(lhs)) > 0)
        np.linalg.cholesky(lhs)  # raises LinAlgError if not PD


def test_mvdr_small_gamma_deep_nulls():
    # Well-separated targets, gamma -> 0: undesired targets at least 40 dB
    # below the desired level.
    cfg = ArrayConfig(16, 0.5)
    w = mvdr_beamformer(cfg, (-40.0, 10.0, 49.0), gamma=1e-6, desired_index=1)
    desired_level, *clutter_levels = levels_db(cfg, w, [10.0, -40.0, 49.0], 0.1)
    for level in clutter_levels:
        assert level <= desired_level - 40.0


def _off_endfire_targets(rng):
    """Three integer angles in [-60, 60] degrees, at least 10 apart."""
    while True:
        angles = rng.integers(-60, 61, size=3).astype(float)
        if np.diff(np.sort(angles)).min() >= 10.0:
            return angles


def test_mvdr_argmax_near_desired_target():
    # Keeps targets away from endfire: past ~65 degrees the steered main
    # lobe spills over the visible-region edge and wraps to the far side,
    # so the global argmax no longer tracks the desired angle.
    cfg = ArrayConfig(16, 0.5)
    rng = np.random.default_rng(4)
    for _ in range(20):
        angles = _off_endfire_targets(rng)
        desired = int(rng.integers(3))
        w = mvdr_beamformer(cfg, angles, gamma=0.1, desired_index=desired)
        tr = beampattern_trace(cfg, w, 0.1)
        peak = tr.angles_deg[np.argmax(tr.power_linear)]
        assert abs(peak - angles[desired]) <= 1.0
