import csv
import json
import math
import warnings

import pytest

from gibbs_ground import cli
from gibbs_ground.errors import ConfigError, SizeCapError


def _config(**overrides):
    doc = {
        "schema": 1,
        "lattice": {"d": 1, "L": 6},
        "couplings": {"preset": "xx", "J": -1.0},
        "potential": {"preset": "ising-nn", "K": 1.0},
        "alpha": 1.0,
        "pairs": [[0, 3]],
        "mc": {"sweeps": 2000, "burn_in": 200, "seed": 7},
        "checks": {"trials": 8, "seed": 11},
    }
    doc.update(overrides)
    return doc


def _write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_xx_preset_expands_per_pair():
    config = cli.parse_config(json.dumps(_config()))
    assert len(config.table.entries) == 2 * 5  # two entries per nn pair
    assert config.alphas == [1.0]
    assert config.pairs == [(0, 3)]


def test_parse_ising_preset_counts():
    doc = _config(lattice={"d": 2, "L": 3}, pairs=[[0, 4]])
    config = cli.parse_config(json.dumps(doc))
    assert len(config.potential.terms) == 12  # open 3x3 edge count


def test_parse_explicit_entries_and_terms():
    doc = _config(
        couplings={
            "entries": [
                {"x_sites": [0, 1], "phi": -0.5},
                {"y_sites": [0, 1], "phi": -0.5},
                {"x_sites": [2], "y_sites": [3, 4], "phi": 0.25},
            ]
        },
        potential={"terms": [{"sites": [0], "coeff": 0.3}]},
    )
    config = cli.parse_config(json.dumps(doc))
    assert len(config.table.entries) == 3
    assert config.potential.terms == ((1, 0.3),)


def test_parse_rejects_overlapping_sets():
    doc = _config(
        couplings={"entries": [{"x_sites": [0, 1], "y_sites": [1], "phi": 1.0}]}
    )
    with pytest.raises(ConfigError, match="overlap"):
        cli.parse_config(json.dumps(doc))


def test_parse_error_carries_position():
    with pytest.raises(ConfigError, match=r"line 1 column \d+"):
        cli.parse_config('{"schema" 1}')


def test_parse_rejects_bad_schema():
    with pytest.raises(ConfigError, match="schema"):
        cli.parse_config(json.dumps(_config(schema=2)))


def test_parse_requires_exactly_one_alpha_form():
    doc = _config()
    doc["alphas"] = [0.5, 1.0]
    with pytest.raises(ConfigError, match="alpha"):
        cli.parse_config(json.dumps(doc))
    del doc["alpha"]
    config = cli.parse_config(json.dumps(doc))
    assert config.alphas == [0.5, 1.0]


def test_parse_rejects_out_of_range_site():
    doc = _config(pairs=[[0, 6]])
    with pytest.raises(ConfigError, match="site index 6"):
        cli.parse_config(json.dumps(doc))


def test_parse_xxz_preset_defaults_to_height_potential():
    doc = _config(couplings={"preset": "xxz", "J": -1.0})
    del doc["potential"]
    config = cli.parse_config(json.dumps(doc))
    assert len(config.potential.terms) == 5  # height 0 site carries no term
    doc["potential"] = {"preset": "ising-nn", "K": 1.0}
    with pytest.raises(ConfigError, match="linear-height"):
        cli.parse_config(json.dumps(doc))


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def test_build_reports_hypothesis_flags(tmp_path, capsys):
    doc = _config(
        couplings={
            "entries": [
                {"x_sites": [0, 1], "phi": -0.5},
                {"y_sites": [2], "phi": 0.3},
            ]
        }
    )
    path = _write_config(tmp_path, doc)
    code = cli.main(["build", "--config", str(path), "--out", str(tmp_path)])
    assert code == 0  # informational flags never fail the build
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["hypotheses_satisfied"] is False
    assert any("odd" in w for w in summary["warnings"])
    assert summary["matrices"][0]["hermitian"] is False


def test_verify_command_passes_and_is_deterministic(tmp_path):
    path = _write_config(tmp_path, _config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    b2 = (out2 / "report.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["all_passed"] is True
    assert report["reports"][0]["checks"]


def test_verify_iterative_route_is_byte_identical(tmp_path):
    # dense_sites below the lattice size sends ground_energy down Lanczos,
    # whose start vector must be seeded for reruns to repeat exactly
    path = _write_config(tmp_path, _config(caps={"dense_sites": 4}))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli.main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    assert b1 == (out2 / "report.json").read_bytes()
    checks = {c["name"]: c for c in json.loads(b1)["reports"][0]["checks"]}
    details = checks["ground_energy"]["details"]
    assert details["method"] == "iterative"
    assert (details["blocks"], details["largest_block"]) == (1, 64)


def test_verify_multithreaded_matches_single(tmp_path):
    doc = _config()
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.8]
    path = _write_config(tmp_path, doc)
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert cli.main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert (
        cli.main(
            ["verify", "--config", str(path), "--out", str(out2), "--threads", "2"]
        )
        == 0
    )
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_verify_fails_when_a_check_fails(tmp_path, monkeypatch):
    from gibbs_ground.verify import CheckRecord, VerificationReport

    def fake_verify(model, **kwargs):
        report = VerificationReport(model_digest="deadbeef", alpha=model.alpha)
        report.records.append(
            CheckRecord(
                name="synthetic",
                passed=False,
                asserted=True,
                value=1.0,
                threshold=0.5,
                details={},
            )
        )
        return report

    monkeypatch.setattr(cli, "verify_model", fake_verify)
    path = _write_config(tmp_path, _config())
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_verify_rejects_above_quantum_cap(tmp_path, capsys):
    doc = _config(lattice={"d": 2, "L": 6}, pairs=[[0, 1]])
    path = _write_config(tmp_path, doc)
    code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "GibbsGroundError"


def test_sweep_matches_closed_form(tmp_path):
    doc = _config()
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.5, 1.0, 2.0, 5.0]
    doc["lattice"] = {"d": 1, "L": 8}
    doc["couplings"] = {"preset": "xx", "J": -1.0}
    path = _write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    with (tmp_path / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        want = math.tanh(float(row["alpha"])) ** 3
        assert float(row["sz_sz"]) == pytest.approx(want, rel=1e-9, abs=1e-12)
        assert row["method"] == "exact"


# sweep.csv of an exact 8-site scan, pinned from the per-alpha enumeration
# route that preceded the batched one; the batched route must reproduce it
# byte for byte.
GOLDEN_SWEEP_L8 = """\
alpha,x,y,sx_sx,sx_sx_se,sz_sz,sz_sz_se,mz_sq,mz_sq_se,mx,mx_se,method\r
0.0,0,3,1.0,0.0,0.0,0.0,0.125,0.0,1.0,0.0,exact\r
0.0,2,7,1.0,0.0,0.0,0.0,0.125,0.0,1.0,0.0,exact\r
0.5,0,3,0.6974367008496385,0.0,0.09868616656821615,0.0,0.28997453880885893,0.0,0.811540520716964,0.0,exact\r
0.5,2,7,0.6974367008496385,0.0,0.02107465459554468,0.0,0.28997453880885893,0.0,0.811540520716964,0.0,exact\r
1.5,0,3,0.07681767569418936,0.0,0.7415819550010926,0.0,0.7832831855867369,0.0,0.24180398792830657,0.0,exact\r
1.5,2,7,0.07681767569418937,0.0,0.6075731724264168,0.0,0.7832831855867369,0.0,0.24180398792830657,0.0,exact\r
"""


def test_sweep_golden_csv(tmp_path):
    doc = _config(lattice={"d": 1, "L": 8}, pairs=[[0, 3], [2, 7]])
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.5, 1.5]
    path = _write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == GOLDEN_SWEEP_L8.encode()


def _error_of(capsys) -> dict:
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_verify_overflow_exits_2_with_named_error(tmp_path, capsys):
    # Negative control: Z at alpha=120 on the 8-site chain exceeds double
    # precision (exp(840) from the shift rescaling).
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 8}, alpha=120.0))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "NumericRangeError"
    assert "alpha=120" in error["message"]
    assert not (tmp_path / "report.json").exists()


def test_sweep_non_finite_average_exits_2(tmp_path, capsys):
    # Negative control: at alpha=800 exp(-(alpha/2) W) overflows where the
    # Boltzmann weight underflows, which used to write nan and exit 0.
    doc = _config(lattice={"d": 1, "L": 8})
    del doc["alpha"]
    doc["alphas"] = [800.0]
    path = _write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert _error_of(capsys)["error"] == "NumericRangeError"
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "command, alphas",
    [("verify", [120.0]), ("sweep", [800.0])],
)
def test_overflow_error_is_the_only_stderr_output(tmp_path, capsys, command, alphas):
    # The runs above used to print numpy RuntimeWarnings (an overflowing
    # state norm at alpha=120, overflowing flip weights at alpha=800) before
    # the JSON error line; as errors they would escape as tracebacks.
    doc = _config(lattice={"d": 1, "L": 8})
    del doc["alpha"]
    doc["alphas"] = alphas
    path = _write_config(tmp_path, doc)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        status = cli.main([command, "--config", str(path), "--out", str(tmp_path)])
    assert status == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"] == "NumericRangeError"


def test_build_honours_quantum_cap(tmp_path):
    doc = _config(lattice={"d": 1, "L": 15}, caps={"quantum_sites": 16, "dense_sites": 8})
    path = _write_config(tmp_path, doc)
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path)]) == 0
    (matrix,) = json.loads((tmp_path / "summary.json").read_text())["matrices"]
    assert matrix["dimension"] == 1 << 15
    assert matrix["hermitian"]
    assert matrix["two_route_gap"] <= matrix["two_route_tolerance"]


def test_default_quantum_cap_still_stops_15_sites(tmp_path, capsys):
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 15}))
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "summary.json").read_text())["matrices"] is None
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "quantum cap of 14" in _error_of(capsys)["message"]
    model = cli._model(cli.parse_config(path.read_text()), 1.0)
    with pytest.raises(SizeCapError, match="cap of 14"):
        model.h


def test_verify_honours_enumeration_cap(tmp_path, capsys):
    doc = _config(lattice={"d": 1, "L": 10}, caps={"enumeration_sites": 8})
    path = _write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "SizeCapError"
    assert "cap of 8" in error["message"]


def test_correlate_writes_csv(tmp_path):
    path = _write_config(tmp_path, _config(pairs=[[0, 1], [0, 3]]))
    assert cli.main(["correlate", "--config", str(path), "--out", str(tmp_path)]) == 0
    with (tmp_path / "correlations.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {row["x"] for row in rows} == {"0"}
    assert all(0 < float(row["sx_sx"]) <= 1 for row in rows)


def test_sample_deterministic_and_seed_echo(tmp_path):
    path = _write_config(tmp_path, _config())
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert cli.main(["sample", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["sample", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "samples.json").read_bytes()
    assert b1 == (out2 / "samples.json").read_bytes()
    payload = json.loads(b1)
    assert payload["seed"] == 7
    assert payload["results"][0]["pairs"][0]["sz_sz_se"] >= 0


def test_seed_flag_overrides_config(tmp_path):
    path = _write_config(tmp_path, _config())
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert (
        cli.main(
            ["sample", "--config", str(path), "--out", str(out1), "--seed", "99"]
        )
        == 0
    )
    assert (
        cli.main(
            ["sample", "--config", str(path), "--out", str(out2), "--seed", "100"]
        )
        == 0
    )
    p1 = json.loads((out1 / "samples.json").read_text())
    p2 = json.loads((out2 / "samples.json").read_text())
    assert p1["seed"] == 99 and p2["seed"] == 100
    assert p1["results"] != p2["results"]


def test_missing_config_file_exits_2(capsys):
    assert cli.main(["build", "--config", "/nonexistent.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err
