import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def fresh_python(tmp_path):
    """Run a fresh interpreter with the given arguments in ``tmp_path``,
    with the package's source first on its path and no ``DPS_SEED``."""
    env = {key: value for key, value in os.environ.items() if key != "DPS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env=env, cwd=tmp_path, timeout=120)

    return run
