"""Which commands load numpy, numpy.random, scipy and OpenSSL, and what the
CLI sets before numpy loads.

``import gibbs_ground`` loads no numpy: the package resolves its names
from the submodules on first use.  So ``import gibbs_ground.cli`` can set
OPENBLAS_THREAD_TIMEOUT, which OpenBLAS reads once when numpy loads it,
before that happens; a value the user set is kept.

The classical commands (sweep, correlate, sample) only take Gibbs averages,
and build and verify compute everything from the flip terms with numpy,
every dense block and the Lanczos route above the dense cap included, so
neither ``import gibbs_ground`` nor any command may import scipy: the
package depends on numpy alone, and scipy comes with the test extra.
Each command runs on a small chain and on a one-block model of 2048
states.  A script that imports scipy.linalg shows that the probe sees it.

Loading hashlib maps OpenSSL (``_hashlib``), and loading numpy.random
loads it too, through ``secrets``: together a few MB of resident memory.
verify hashes its model digest with the interpreter's own SHA-256 module,
and verify and the Metropolis chains draw from the package's own
SplitMix64, so no command loads either: not verify, on the dense or the
iterative route, and not sample or a sweep above the enumeration cap.  A
script that imports numpy.random shows that the probe sees both.

Only build and verify load gibbs_ground.verify: the classical commands
neither import nor compile it.

Each check runs in a fresh interpreter, since this test process has long
since loaded both.
"""

import importlib
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


def _last_line(script: str, cwd: Path, **env: str | None) -> str:
    """The last line a fresh interpreter prints running script; env sets
    (or, given None, removes) environment variables."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    environ = {**os.environ, "PYTHONPATH": path, **env}
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env={k: v for k, v in environ.items() if v is not None},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# An XX chain on 11 sites plus X on site 0, which links the two parity
# sectors: one flip-graph block of 2048 states, the size from which verify
# once sent a block to scipy's eigh.
ONE_BLOCK = {
    **CONFIG,
    "lattice": {"d": 1, "L": 11},
    "couplings": {
        "entries": [
            {sites: [x, x + 1], "phi": -1.0} for x in range(10) for sites in ("x_sites", "y_sites")
        ]
        + [{"x_sites": [0], "phi": -0.5}]
    },
    "alphas": [1.0],
}


def _loaded_after(code: str, cwd: Path, module: str) -> bool:
    script = f"{code}\nimport sys\nprint({module!r} in sys.modules)\n"
    return _last_line(script, cwd) == "True"


def _command(name: str, setup: str = "") -> str:
    return (
        f"{setup}from gibbs_ground.cli import main\n"
        f"assert main([{name!r}, '--config', 'config.json', '--out', 'out']) == 0"
    )


def test_library_import_does_not_load_numpy(tmp_path):
    assert not _loaded_after("import gibbs_ground", tmp_path, "numpy")


# The environment at the moment numpy is imported, then after the import
# of the CLI; the "import" audit event fires before the module runs.
_TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys
seen = []
def hook(event, args):
    if event == "import" and args[0] == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.addaudithook(hook)
import gibbs_ground.cli
print(seen, os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
"""


def test_cli_sets_the_openblas_thread_timeout_before_numpy_loads(tmp_path):
    # None removes the variable, which this process may have set by
    # importing the CLI itself.
    line = _last_line(_TIMEOUT_AT_NUMPY_IMPORT, tmp_path, OPENBLAS_THREAD_TIMEOUT=None)
    assert line == "['20'] 20"


def test_cli_keeps_a_user_set_openblas_thread_timeout(tmp_path):
    line = _last_line(_TIMEOUT_AT_NUMPY_IMPORT, tmp_path, OPENBLAS_THREAD_TIMEOUT="4")
    assert line == "['4'] 4"


def test_library_import_leaves_the_environment_alone(tmp_path):
    # Only the CLI sets the timeout: importing the library, its numpy
    # included, changes nothing in its host's environment.
    script = "import gibbs_ground.verify, os\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _last_line(script, tmp_path, OPENBLAS_THREAD_TIMEOUT=None) == "None"


# The names the package exported when it imported them eagerly.
EXPORTS = {
    "classical": [
        "ClassicalPotential", "ScanRow", "classical_expectation", "flip_weight",
        "order_parameter_scan", "partition_function", "spin_product",
        "squared_magnetization",
    ],
    "errors": [
        "ConfigError", "ConstraintError", "ConvergenceError", "GibbsGroundError",
        "InternalConsistencyError", "NonHermitianError", "NumericRangeError",
        "SizeCapError",
    ],
    "lattice": [
        "Caps", "Lattice", "build_hypercube", "mask_from_sites",
        "nearest_neighbor_pairs", "sites_from_mask",
    ],
    "models": [
        "CouplingTable", "DiagonalCoupling", "ModelInstance", "diagonal_couplings",
    ],
    "operators": ["OperatorMatrix", "apply", "product_operator"],
    "verify": [
        "CheckRecord", "HypothesisReport", "SpectralResult", "VerificationReport",
        "eigen_residual", "groundstate_hypotheses", "min_eigenvalue",
        "quantum_expectation", "sx_product_bound", "trial_vector_checks",
        "verify_model",
    ],
}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_lazy_exports_are_the_submodules_objects(module):
    submodule = importlib.import_module(f"gibbs_ground.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from gibbs_ground import {name}", namespace)
        assert namespace[name] is getattr(submodule, name), name


def test_lazy_exports_are_listed_and_nothing_else_resolves():
    exported = {name for names in EXPORTS.values() for name in names}
    assert set(gibbs_ground.__all__) == exported | {"__version__"}
    assert exported <= set(dir(gibbs_ground))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        gibbs_ground.no_such_name
    with pytest.raises(ImportError):
        exec("from gibbs_ground import no_such_name", {})


def test_library_import_does_not_load_scipy(tmp_path):
    assert not _loaded_after("import gibbs_ground", tmp_path, "scipy")


def _scipy_loaded_by(tmp_path: Path, command: str, config: dict) -> bool:
    (tmp_path / "config.json").write_text(json.dumps(config))
    return _loaded_after(_command(command), tmp_path, "scipy")


@pytest.mark.parametrize("command", ["sweep", "correlate", "sample"])
def test_classical_commands_do_not_load_scipy(tmp_path, command):
    for config in (CONFIG, ONE_BLOCK):
        assert not _scipy_loaded_by(tmp_path, command, config)


@pytest.mark.parametrize("command", ["build", "verify"])
def test_operator_commands_under_the_dense_cap_do_not_load_scipy(tmp_path, command):
    for config in (CONFIG, ONE_BLOCK):
        assert not _scipy_loaded_by(tmp_path, command, config)
    if command == "verify":
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (ground,) = [c for c in report["reports"][0]["checks"] if c["name"] == "ground_energy"]
        details = ground["details"]
        assert (details["method"], details["blocks"], details["largest_block"]) == (
            "dense",
            1,
            2048,
        )


def test_verify_above_the_dense_cap_does_not_load_scipy(tmp_path):
    # Above a dense cap of 4 or 10 sites the ground energy comes from
    # Lanczos on the flip-term product.
    for config, dense_sites in ((CONFIG, 4), (ONE_BLOCK, 10)):
        assert not _scipy_loaded_by(
            tmp_path, "verify", {**config, "caps": {"dense_sites": dense_sites}}
        )


def test_probe_sees_scipy(tmp_path):
    # Positive control: without it the checks above could pass because the
    # probe never sees scipy at all.
    assert _loaded_after("import scipy.linalg", tmp_path, "scipy")


@pytest.mark.parametrize(
    "command, loads",
    [("sweep", False), ("correlate", False), ("sample", False), ("build", True), ("verify", True)],
)
def test_only_build_and_verify_load_the_verify_module(tmp_path, command, loads):
    # verify.py is the package's largest module: a command that runs no
    # check neither loads nor compiles it.
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert _loaded_after(_command(command), tmp_path, "gibbs_ground.verify") is loads


def test_library_import_does_not_load_openssl(tmp_path):
    assert not _loaded_after("import gibbs_ground", tmp_path, "_hashlib")


@pytest.mark.parametrize("command", ["sweep", "correlate", "build"])
def test_exact_scans_and_build_do_not_load_openssl(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    assert not _loaded_after(_command(command), tmp_path, "_hashlib")


def _loaded_after_script(tmp_path, script: str) -> str:
    """The printed list [numpy.random loaded, _hashlib loaded] after script
    has run."""
    probe = "\nimport sys\nprint([m in sys.modules for m in ('numpy.random', '_hashlib')])"
    return _last_line(script + probe, tmp_path)


def _loaded_after_command(tmp_path, command: str, config: dict) -> str:
    """_loaded_after_script for the command run on config."""
    (tmp_path / "config.json").write_text(json.dumps(config))
    return _loaded_after_script(tmp_path, _command(command))


@pytest.mark.parametrize(
    "method, caps", [("dense", {}), ("iterative", {"dense_sites": 4})], ids=["dense", "iterative"]
)
def test_verify_loads_neither_openssl_nor_numpy_random(tmp_path, method, caps):
    loaded = _loaded_after_command(tmp_path, "verify", {**CONFIG, "caps": caps})
    assert loaded == "[False, False]"
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    for checks in (r["checks"] for r in report["reports"]):
        (ground,) = [c for c in checks if c["name"] == "ground_energy"]
        assert ground["details"]["method"] == method


@pytest.mark.parametrize(
    "command, caps", [("sample", {}), ("sweep", {"enumeration_sites": 4})], ids=["sample", "sweep"]
)
def test_metropolis_loads_neither_openssl_nor_numpy_random(tmp_path, command, caps):
    # Above the enumeration cap of 4 sites, sweep's rows come from Metropolis
    # chains, as all of sample's estimates do.
    loaded = _loaded_after_command(tmp_path, command, {**CONFIG, "caps": caps})
    assert loaded == "[False, False]"
    if command == "sweep":
        text = (tmp_path / "out" / "sweep.csv").read_text()
        assert {line.split(",")[-1] for line in text.splitlines()[1:]} == {"metropolis"}


def test_probe_sees_openssl_and_numpy_random(tmp_path):
    # Positive control: without it the checks above could pass because the
    # probe never sees either module.  numpy.random imports secrets, which
    # loads _hashlib.
    assert _loaded_after_script(tmp_path, "import numpy.random") == "[True, True]"
