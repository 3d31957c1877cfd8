"""Which commands load scipy.

The classical commands (sweep, correlate, sample) only take Gibbs averages,
so neither ``import gibbs_ground`` nor those commands may import scipy;
verify builds operators and must.  Each check runs in a fresh interpreter,
since this test process has long since loaded scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gibbs_ground

SRC = str(Path(gibbs_ground.__file__).resolve().parents[1])

CONFIG = {
    "schema": 1,
    "lattice": {"d": 1, "L": 6},
    "couplings": {"preset": "xx", "J": -1.0},
    "potential": {"preset": "ising-nn", "K": 1.0},
    "alphas": [0.5, 1.0],
    "pairs": [[0, 3]],
    "mc": {"sweeps": 500, "burn_in": 50, "seed": 7},
    "checks": {"trials": 4, "seed": 11},
}


def _scipy_loaded_after(code: str, cwd: Path) -> bool:
    script = f"{code}\nimport sys\nprint('scipy' in sys.modules)\n"
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def _command(name: str) -> str:
    return (
        "from gibbs_ground.cli import main\n"
        f"assert main([{name!r}, '--config', 'config.json', '--out', 'out']) == 0"
    )


def test_library_import_does_not_load_scipy(tmp_path):
    assert not _scipy_loaded_after("import gibbs_ground", tmp_path)


@pytest.mark.parametrize("command", ["sweep", "correlate", "sample"])
def test_classical_commands_do_not_load_scipy(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert not _scipy_loaded_after(_command(command), tmp_path)


def test_verify_loads_scipy(tmp_path):
    # Positive control: without it the checks above could pass because the
    # probe never sees scipy at all.
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert _scipy_loaded_after(_command("verify"), tmp_path)
