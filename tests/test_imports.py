"""Which commands load scipy.

The classical commands (sweep, correlate, sample) only take Gibbs averages,
and build and verify compute everything from the flip terms with numpy,
the Lanczos route above the dense cap included, so neither ``import
gibbs_ground`` nor those commands may import scipy.  Only a dense
flip-graph block of SUBSET_EIGH_MIN_BLOCK states or more goes to scipy's
eigh.  Each check runs in a fresh interpreter, since this test process has
long since loaded scipy.
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


def _command(name: str, setup: str = "") -> str:
    return (
        f"{setup}from gibbs_ground.cli import main\n"
        f"assert main([{name!r}, '--config', 'config.json', '--out', 'out']) == 0"
    )


def test_library_import_does_not_load_scipy(tmp_path):
    assert not _scipy_loaded_after("import gibbs_ground", tmp_path)


@pytest.mark.parametrize("command", ["sweep", "correlate", "sample"])
def test_classical_commands_do_not_load_scipy(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert not _scipy_loaded_after(_command(command), tmp_path)


@pytest.mark.parametrize("command", ["build", "verify"])
def test_operator_commands_under_the_dense_cap_do_not_load_scipy(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert not _scipy_loaded_after(_command(command), tmp_path)


def test_verify_above_the_dense_cap_does_not_load_scipy(tmp_path):
    # Above the dense cap of 4 sites the ground energy comes from Lanczos
    # on the flip-term product.
    (tmp_path / "config.json").write_text(
        json.dumps({**CONFIG, "caps": {"dense_sites": 4}})
    )
    assert not _scipy_loaded_after(_command("verify"), tmp_path)


def test_verify_loads_scipy(tmp_path):
    # Positive control: without it the checks above could pass because the
    # probe never sees scipy at all.  With the subset-solver threshold at 2
    # states, every dense block of two or more goes to scipy's eigh.
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    setup = "import gibbs_ground.verify\ngibbs_ground.verify.SUBSET_EIGH_MIN_BLOCK = 2\n"
    assert _scipy_loaded_after(_command("verify", setup), tmp_path)
