import ast
from pathlib import Path

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


def test_cli_imports_no_private_name_of_another_module():
    # The CLI hands values to the library, which alone checks them; it
    # reaches no module's private helpers.
    source = Path(dpspesa.__file__).with_name("cli.py").read_text()
    private = [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "dpspesa")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []
