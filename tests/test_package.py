import ast
import importlib
import platform
import re
from pathlib import Path

import pytest

import dpspesa


def test_public_names_are_the_quick_start_and_entry_points():
    assert dpspesa.__all__ == [
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
    for name in dpspesa.__all__:
        assert getattr(dpspesa, name) is not None
    assert not hasattr(dpspesa, "steering_beamformer")
    assert not hasattr(dpspesa, "beampattern_power")


def test_readme_quick_start_runs(capsys):
    # The documented API must match the code: run the README's block.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    # It prints the two clutter levels, both below the 0 dB peak.
    printed = capsys.readouterr().out.strip().strip("[]").split()
    assert len(printed) == 2 and all(float(v) < 0 for v in printed), printed


_CFG = dpspesa.ArrayConfig(4)
_SPEC = dpspesa.ScenarioSpec(_CFG, grid_step_deg=1.0)
_W = [1.0, 1j, -1.0, 0.5]


@pytest.mark.parametrize("name, call", [
    ("each norm", lambda: dpspesa.run_monte_carlo(_SPEC, (4,), ("1", "2"), 2)),
    ("target", lambda: dpspesa.ScenarioSpec(_CFG, grid_step_deg=1.0,
                                            norm_target="2")),
    ("target", lambda: dpspesa.approximate(_W, dpspesa.PhaseGrid(4), 3, "2")),
    ("step_deg", lambda: dpspesa.beampattern_trace(_CFG, _W, "1.0")),
    ("floor_db", lambda: dpspesa.beampattern_trace(_CFG, _W, floor_db="-60")),
    ("gamma", lambda: dpspesa.ScenarioSpec(_CFG, grid_step_deg=1.0,
                                           gamma="0.5")),
    ("floor_db", lambda: dpspesa.ScenarioSpec(_CFG, grid_step_deg=1.0,
                                              floor_db="-60")),
    ("step_deg", lambda: dpspesa.ScenarioSpec(_CFG, grid_step_deg="1.0")),
    ("spacing_wavelengths", lambda: dpspesa.ArrayConfig(4, "0.5")),
    ("gamma", lambda: dpspesa.mvdr_beamformer(_CFG, (0.0, 30.0), "0.1")),
], ids=["sweep-norm", "spec-norm", "approximate-norm", "trace-step",
        "trace-floor", "spec-gamma", "spec-floor", "spec-step", "spacing",
        "mvdr-gamma"])
def test_library_calls_refuse_a_string_where_a_number_is_wanted(name, call):
    # numpy and float() would parse each string; the library names the
    # parameter instead of computing with it or failing on a comparison.
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got '"):
        call()


def _private_imports(module: str) -> list:
    """(module, name) of each private name that the package module
    ``module`` imports from another package module."""
    source = Path(dpspesa.__file__).with_name(f"{module}.py").read_text()
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "dpspesa")
        for alias in node.names if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_name_of_another_module():
    # The CLI hands values to the library, which alone checks them; it
    # reaches no module's private helpers.
    assert _private_imports("cli") == []


def test_experiments_solve_mvdr_through_the_public_beamformer():
    # The experiments share the beamformers' and quantizers' checks but
    # solve through `mvdr_beamformer` and quantize through `approximate`
    # and `quantize_pesa`, the kernels, which tracing and profiling see
    # under those names.
    private = [(module, name) for module, name in _private_imports("experiments")
               if module.split(".")[-1] in ("beamformers", "dps_quantize")
               and not name.startswith("_check_")]
    assert private == []


def _scipy_linalg_imports(source: str) -> list:
    """The ``scipy.linalg`` imports of a module's source, in any of the
    forms ``import scipy.linalg...``, ``from scipy.linalg... import`` and
    ``from scipy import linalg``."""
    def named(module):
        return module == "scipy.linalg" or module.startswith("scipy.linalg.")

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if named(alias.name)]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if named(node.module or ""):
                found.append(node.module)
            elif node.module == "scipy":
                found += ["scipy.linalg" for alias in node.names
                          if alias.name == "linalg"]
    return found


def test_the_package_never_imports_scipy_linalg():
    # The MVDR solve loads scipy's LAPACK extension on its own
    # (`beamformers._lapack`); importing the scipy.linalg package would
    # add about 0.15 s and 25 MB to every command that solves one.
    for form in ("import scipy.linalg", "import scipy.linalg.lapack as l",
                 "from scipy.linalg import lapack",
                 "from scipy.linalg.lapack import zposv",
                 "from scipy import linalg", "from scipy import stats, linalg"):
        assert _scipy_linalg_imports(form), form
    assert _scipy_linalg_imports("import scipy\nfrom scipy import stats") == []
    for path in sorted(Path(dpspesa.__file__).parent.glob("*.py")):
        assert _scipy_linalg_imports(path.read_text()) == [], path.name


def _short_g_fields(source: str) -> list:
    """The spec of each f-string field in a ``raise`` statement that formats
    with a ``g`` spec of precision below 17 (6 when none is given)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Raise):
            continue
        for field in ast.walk(node):
            if isinstance(field, ast.FormattedValue) and field.format_spec:
                spec = "".join(part.value for part in field.format_spec.values
                               if isinstance(part, ast.Constant))
                g = re.search(r"(?:\.(\d+))?[gG]$", spec)
                if g and int(g[1] or 6) < 17:
                    found.append(spec)
    return found


def test_error_messages_print_rejected_values_in_full():
    # Six significant digits would print 90.0000001 as 90, a rejected value
    # rounded back into range; a message prints a value so that it reads
    # back as the same float.
    for spec in ("g", ".6g", "8.3G", ".16g"):
        assert _short_g_fields(f'raise ValueError(f"got {{x:{spec}}}")') \
            == [spec]
    for ok in ('raise ValueError(f"got {x:.17g}")',
               'raise ValueError(f"got {x!r} {x:.3f}")',
               'print(f"{x:g}")'):
        assert _short_g_fields(ok) == [], ok
    for path in sorted(Path(dpspesa.__file__).parent.glob("*.py")):
        assert _short_g_fields(path.read_text()) == [], path.name


# The functions that the benchmark's traced run wraps and finds.  A name
# it cannot resolve is skipped without a word and its metrics read 0, so
# deleting one of these is a change to the benchmark as well.
TRACED_FUNCTIONS = (
    "array_model.steering_vector", "array_model.steering_matrix",
    "array_model.beampattern_trace", "array_model.angle_grid_deg",
    "beamformers.mvdr_beamformer", "dps_quantize.approximate",
    "dps_quantize.quantize_pesa", "dps_quantize.exhaustive_oracle",
    "dps_quantize.normalize_to_max", "experiments.run_monte_carlo",
    "experiments.run_mvdr_clutter", "experiments.run_single_target",
    "experiments.draw_target_angles", "cli.main",
)


def test_the_traced_benchmark_run_still_finds_its_functions():
    source = (Path(__file__).parents[1] / "perfbench" / "spans.py").read_text()
    functions, = (ast.literal_eval(node.value)
                  for node in ast.parse(source).body
                  if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets]
                  == ["FUNCTIONS"])
    for name in TRACED_FUNCTIONS:
        assert name in functions, name
        module, function = name.split(".")
        found = getattr(importlib.import_module(f"dpspesa.{module}"),
                        function, None)
        assert callable(found), name


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap trim threshold is glibc's")
def test_importing_the_package_keeps_mb_sized_temporaries_on_the_heap(
        fresh_python):
    # In a fresh interpreter: after the import, a 2 MiB temporary made and
    # freed again and again is served from the heap, not mapped and
    # faulted in anew each round as at glibc's start-up threshold (and at
    # the 400 KiB or so that importing scipy.linalg had left).
    code = (
        "import resource\n"
        "import numpy as np\n"
        "import dpspesa\n"
        "def faults():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "np.ones(2 << 20, np.uint8)\n"
        "before = faults()\n"
        "for _ in range(20):\n"
        "    np.ones(2 << 20, np.uint8)\n"
        "print(faults() - before)\n")
    run = fresh_python("-c", code)
    assert (run.returncode, run.stderr) == (0, "")
    assert int(run.stdout) < 50
