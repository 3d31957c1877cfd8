"""Self times and per-layer metrics from spans, and the traced command's
hygiene: its artifacts must equal those of the plain CLI byte for byte.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent


def span(name, start, end, parent, **counters):
    return [name, start, end, parent, counters]


def test_self_time_subtracts_direct_children_only():
    recorded = [
        span("cli.run", 0.0, 10.0, -1),
        span("verify.verify_model", 1.0, 9.0, 0),
        span("verify.min_eigenvalue", 2.0, 7.0, 1),
        span("operators.OperatorMatrix.to_dense", 2.5, 3.0, 2),
        span("models.build_h", 7.0, 8.0, 1),
    ]
    assert spans.self_times(recorded) == pytest.approx([2.0, 2.0, 4.5, 0.5, 1.0])


def test_layer_metrics_of_an_enumeration():
    n = 4
    recorded = [
        span("cli.parse_config", 0.0, 0.1, -1),
        span("cli.run", 0.2, 2.2, -1),
        span("verify.order_parameter_scan", 0.3, 2.1, 1),
        span("classical.gibbs_averages", 0.4, 2.0, 2, configs=1 << n),
        span("classical.spins_from_masks", 0.5, 0.7, 3, rows=1 << n),
        span("classical.ClassicalPotential.value_many", 0.8, 1.0, 3, rows=1 << n),
        span("classical.ClassicalPotential.value_many", 1.1, 1.3, 3, rows=1 << n),
        span("classical.ClassicalPotential.flip_energy_many", 1.4, 1.5, 3, rows=1 << n),
    ]
    m = spans.layer_metrics(recorded, n_sites=n, n_alphas=1)
    assert m["cli.parse_config_s"] == pytest.approx(0.1)
    assert m["cli.self_s"] == pytest.approx(0.2)
    assert m["verify.order_parameter_scan_s"] == pytest.approx(0.2)
    assert m["classical.enumeration_s"] == pytest.approx(1.6 - 0.7)
    assert m["classical.decode_s"] == pytest.approx(0.2)
    assert m["classical.energy_s"] == pytest.approx(0.5)
    assert m["classical.energy_rows"] == 3 << n
    assert m["classical.enum_passes"] == 2.0
    assert m["classical.enum_configs_per_s"] == pytest.approx((1 << n) / 1.6)
    assert m["verify.min_eigenvalue_s"] == 0
    assert spans.dominant_layer(m) == "classical.enumeration"


def test_layer_metrics_of_a_sampler():
    recorded = [
        span("cli.run", 0.0, 5.0, -1),
        span("classical.metropolis_samples", 0.1, 4.1, 0, proposals=4000, accepted=1000),
        span("classical.estimate_from_samples", 4.2, 4.3, 0),
    ]
    m = spans.layer_metrics(recorded, n_sites=64, n_alphas=1)
    assert m["classical.flips_per_s"] == pytest.approx(1000.0)
    assert m["classical.acceptance"] == pytest.approx(0.25)
    assert m["classical.metropolis_s"] == pytest.approx(4.0)
    assert spans.dominant_layer(m) == "classical.metropolis"


SMALL = {
    "verify": {"lattice": {"d": 1, "L": 5}, "alphas": [0.5, 1.0], "pairs": [[0, 2]]},
    "sweep": {"lattice": {"d": 1, "L": 6}, "alphas": [0.5, 1.0], "pairs": [[0, 3]]},
    "sample": {"lattice": {"d": 1, "L": 6}, "alphas": [1.0], "pairs": [[0, 3]],
               "mc": {"sweeps": 200, "burn_in": 20}},
}
ARTIFACT = {"verify": "report.json", "sweep": "sweep.csv", "sample": "samples.json"}


@pytest.mark.parametrize("command", sorted(SMALL))
def test_traced_command_writes_the_same_bytes_as_the_cli(command, tmp_path):
    config = {"schema": 1, "couplings": {"preset": "xx", "J": -1.0},
              "potential": {"preset": "ising-nn", "K": 1.0}, **SMALL[command]}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    common = ["--config", str(cfg), "--seed", "3"]
    subprocess.run(
        [sys.executable, "-c", "import sys; from gibbs_ground.cli import main; sys.exit(main())",
         command, *common, "--out", str(plain)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    subprocess.run(
        [sys.executable, str(HERE.parent / "spans.py"), command, *common,
         "--out", str(traced), "--spans", str(tmp_path / "spans.json")],
        env=env, check=True, capture_output=True, timeout=120,
    )
    name = ARTIFACT[command]
    assert (plain / name).read_bytes() == (traced / name).read_bytes()
    recorded = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {s[0] for s in recorded}
    assert {"cli.parse_config", "cli.run"} <= names
    assert any(n.startswith("classical.") for n in names)
