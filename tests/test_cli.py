import contextlib
import csv
import functools
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gibbs_ground import classical, cli
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


@pytest.mark.parametrize(
    "couplings, potential",
    [
        ({"entries": [{"x_sites": [0, 0], "phi": -0.5}]}, None),
        ({"entries": [{"x_sites": [2], "y_sites": [1, 1], "phi": -0.5}]}, None),
        ({"preset": "xx", "J": -1.0}, {"terms": [{"sites": [1, 1], "coeff": 1.0}]}),
    ],
)
def test_parse_rejects_a_repeated_site(couplings, potential):
    # X_0 X_0 = I and s_1 s_1 = 1: a repeated site does not mean the set
    # that holds it once
    doc = _config(couplings=couplings)
    if potential is not None:
        doc["potential"] = potential
    with pytest.raises(ConfigError, match="duplicate site index"):
        cli.parse_config(json.dumps(doc))


@pytest.mark.parametrize(
    "command, section, value, field",
    [
        # zero trials would pass reversibility and dirichlet_form at 0.0
        # from no samples
        ("verify", "checks", {"trials": 0, "seed": 11}, "checks.trials"),
        # a negative burn-in would return uninitialised sample rows
        ("sample", "mc", {"sweeps": 8, "burn_in": -5, "seed": 7}, "mc.burn_in"),
    ],
)
def test_zero_trials_and_negative_burn_in_exit_2(
    tmp_path, capsys, command, section, value, field
):
    doc = _config(lattice={"d": 1, "L": 4}, **{section: value})
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and field in error["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "command, overrides, field",
    [
        # one sweep is one batch: the standard error was inf, written to
        # samples.json as the non-standard JSON token Infinity
        ("sample", {"mc": {"sweeps": 1, "burn_in": 0, "seed": 7}}, "mc.sweeps"),
        # an infinite alpha got past the config check to a ConstraintError
        ("verify", {"alpha": float("inf")}, "alpha"),
        ("sweep", {"alphas": [0.5, float("inf")]}, "alpha"),
    ],
    ids=["one-sweep", "alpha-infinity", "alphas-infinity"],
)
def test_one_sweep_and_infinite_alpha_exit_2(tmp_path, capsys, command, overrides, field):
    doc = _config(lattice={"d": 1, "L": 4}, **overrides)
    if "alphas" in overrides:
        del doc["alpha"]
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and field in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize(
    "cap", ["lattice_sites", "quantum_sites", "enumeration_sites", "dense_sites"]
)
def test_caps_below_one_exit_2(tmp_path, capsys, cap, value):
    # dense_sites -1 once ended verify in a bare "negative shift count"
    # ValueError, and enumeration_sites -3 in a SizeCapError naming a cap of -3
    doc = _config(lattice={"d": 1, "L": 5}, caps={cap: value})
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and f"caps.{cap}" in error["message"]
    assert not out.exists()


def test_lattice_cap_above_64_exit_2(tmp_path, capsys):
    # configuration masks are uint64 words: a 100-site cap let a 100-site
    # lattice through to a bare OverflowError in monomial_signs
    doc = _config(lattice={"d": 2, "L": 10}, caps={"lattice_sites": 100})
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and "caps.lattice_sites" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, flag, field",
    [
        ({"mc": {"seed": -1}}, [], "mc.seed"),
        ({"checks": {"seed": -1}}, [], "checks.seed"),
        ({}, ["--seed", "-1"], "--seed"),
    ],
    ids=["mc.seed", "checks.seed", "flag"],
)
def test_negative_seed_exits_2(tmp_path, capsys, overrides, flag, field):
    # each used to end in numpy's "expected non-negative integer" traceback
    # with exit 1, the status verify keeps for a failed check
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 4}, **overrides))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out), *flag]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and f"'{field}'" in error["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, flag, field",
    [
        ({"mc": {"seed": 2**64}}, [], "mc.seed"),
        ({"checks": {"seed": 2**64}}, [], "checks.seed"),
        ({}, ["--seed", str(2**64)], "--seed"),
    ],
    ids=["mc.seed", "checks.seed", "flag"],
)
def test_check_seed_beyond_64_bits_exits_2(tmp_path, capsys, overrides, flag, field):
    # every SplitMix64 seed is one uint64 word, which the stream must not wrap
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 4}, **overrides))
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out), *flag]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and f"'{field}'" in error["message"]
    assert "2^64 - 1" in error["message"]
    assert not out.exists()


def test_seed_bounds_of_the_config():
    # one rule for both seeds: the largest uint64 word is legal, 2^64 is not
    # (mc.seed, read by numpy's generator, once kept no upper bound)
    top = 2**64 - 1
    doc = _config(mc={"sweeps": 10, "seed": top}, checks={"trials": 2, "seed": top})
    config = cli.parse_config(json.dumps(doc))
    assert config.mc_seed == config.check_seed == top
    with pytest.raises(ConfigError, match=r"'mc.seed': seed must be at most 2\^64 - 1"):
        cli.parse_config(json.dumps(_config(mc={"sweeps": 10, "seed": 2**64})))


@pytest.mark.parametrize(
    "lattice, wanted",
    [
        # 3^10000 once overflowed the digit limit while formatting its message
        ('{"d": 10000, "L": 3}', "L^d"),
        # 2^1000 once printed a 302-digit site count
        ('{"d": 1000, "L": 2}', "L^d"),
        # an integer literal past the 4300-digit limit once escaped json.loads
        # as a bare ValueError
        ('{"d": 1, "L": 1' + "0" * 5000 + "}", "not valid JSON"),
    ],
    ids=["3^10000", "2^1000", "5001-digit-L"],
)
def test_oversized_lattice_integers_exit_2(tmp_path, capsys, lattice, wanted):
    text = json.dumps(_config(lattice="LATTICE")).replace('"LATTICE"', lattice)
    path = tmp_path / "config.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and wanted in error["message"]
    assert len(error["message"]) < 200
    assert not out.exists()


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    # json.loads used to let its RecursionError escape: a traceback, exit 1
    path = tmp_path / "config.json"
    path.write_text("[" * 100000)
    out = tmp_path / "out"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error == {"error": "ConfigError", "message": "config is not valid JSON: nested too deeply"}
    assert not out.exists()


def test_unknown_caps_key_exit_2(tmp_path, capsys):
    # a misspelt cap used to parse silently to the default caps
    doc = _config(caps={"enumeration_site": 8, "dense": 4})
    path = _write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and "caps.enumeration_site" in error["message"]
    assert not out.exists()
    with pytest.raises(ConfigError, match="caps.dense'"):
        cli.parse_config(json.dumps(_config(caps={"dense": 4})))


_ENTRY = {"x_sites": [0, 1], "phi": -0.5}
_TERM = {"sites": [0], "coeff": 0.1}


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"alpah": 3}, "config.alpah"),
        ({"lattice": {"d": 1, "L": 6, "side": 9}}, "lattice.side"),
        ({"couplings": {"preset": "xx", "J": -1.0, "K": 1.0}}, "couplings.K"),
        ({"couplings": {"entries": [_ENTRY], "J": -1.0}}, "couplings.J"),
        (
            {"couplings": {"entries": [_ENTRY, {"y_site": [0, 1], "phi": -0.5}]}},
            "couplings.entries[1].y_site",
        ),
        ({"potential": {"preset": "ising-nn", "K": 1.0, "J": 1.0}}, "potential.J"),
        ({"potential": {"terms": [_TERM], "K": 1.0}}, "potential.K"),
        (
            {"potential": {"terms": [_TERM, {"site": [1], "coeff": 0.2}]}},
            "potential.terms[1].site",
        ),
        ({"mc": {"sweep": 10}}, "mc.sweep"),
        ({"checks": {"trail": 5}}, "checks.trail"),
    ],
)
def test_unknown_key_in_any_section_exit_2(tmp_path, capsys, overrides, field):
    # each of these used to parse silently to the defaults
    path = _write_config(tmp_path, _config(**overrides))
    out = tmp_path / "out"
    assert cli.main(["build", "--config", str(path), "--out", str(out)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and f"'{field}'" in error["message"]
    assert not out.exists()


def test_xxz_preset_with_a_non_object_potential_is_a_config_error():
    # this used to end in an AttributeError traceback
    doc = _config(couplings={"preset": "xxz", "J": -1.0}, potential=5)
    with pytest.raises(ConfigError, match="linear-height"):
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


def test_verify_two_alpha_rerun_is_byte_identical(tmp_path):
    doc = _config()
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.8]
    path = _write_config(tmp_path, doc)
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    assert cli.main(["verify", "--config", str(path), "--out", str(out1)]) == 0
    assert cli.main(["verify", "--config", str(path), "--out", str(out2)]) == 0
    b1 = (out1 / "report.json").read_bytes()
    assert b1 == (out2 / "report.json").read_bytes()
    assert [r["alpha"] for r in json.loads(b1)["reports"]] == [0.0, 0.8]
    with pytest.raises(SystemExit):
        cli.main(["verify", "--config", str(path), "--threads", "2"])


def test_verify_fails_when_a_check_fails(tmp_path, monkeypatch):
    from gibbs_ground import verify
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

    # cli imports verify_model from its module when the command runs
    monkeypatch.setattr(verify, "verify_model", fake_verify)
    path = _write_config(tmp_path, _config())
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "route, failing, passing",
    [
        (
            "offdiagonal_from_couplings",
            "hamiltonian_two_route,offdiagonal_grouping",
            "conjugate_two_route",
        ),
        ("conjugate_hamiltonian", "conjugate_two_route", "hamiltonian_two_route"),
    ],
)
def test_verify_reports_a_disagreeing_assembly_route(
    tmp_path, monkeypatch, route, failing, passing
):
    # Negative control: one route's first term, off by a relative 1e-9, must
    # fail the records that compare it and the command with a written report,
    # not stop it.  That term is the diagonal of the conjugate, which holds
    # |H|_max here, and the first off-diagonal term of the grouped route,
    # whose entries are |H0|_max or zero; either gap is at least 10 times
    # each record's threshold.
    from gibbs_ground import models
    from gibbs_ground.operators import OperatorMatrix

    build = getattr(models, route)

    def perturbed(model):
        terms = dict(build(model).terms)
        first = min(terms)
        terms[first] = terms[first] * (1.0 + 1e-9)
        return OperatorMatrix(model.lattice.n_sites, terms)

    monkeypatch.setattr(models, route, perturbed)
    path = _write_config(tmp_path, _config())
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["all_passed"] is False
    (model_report,) = report["reports"]
    assert model_report["all_passed"] is False
    checks = {c["name"]: c for c in model_report["checks"]}
    for name in failing.split(","):
        assert (checks[name]["passed"], checks[name]["asserted"]) == (False, True)
        assert checks[name]["value"] > checks[name]["threshold"]
    assert checks[passing]["passed"] is True


def test_verify_rejects_above_quantum_cap(tmp_path, capsys):
    doc = _config(lattice={"d": 2, "L": 6}, pairs=[[0, 1]])
    path = _write_config(tmp_path, doc)
    code = cli.main(["verify", "--config", str(path), "--out", str(tmp_path)])
    assert code == 2
    error = _error_of(capsys)
    assert error["error"] == "SizeCapError"
    assert "quantum cap of 14" in error["message"]


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
# byte for byte.  Recaptured once when the exact sums moved from BLAS dot to
# np.add.reduce (last digits only).
GOLDEN_SWEEP_L8 = """\
alpha,x,y,sx_sx,sx_sx_se,sz_sz,sz_sz_se,mz_sq,mz_sq_se,mx,mx_se,method\r
0.0,0,3,1.0,0.0,0.0,0.0,0.125,0.0,1.0,0.0,exact\r
0.0,2,7,1.0,0.0,0.0,0.0,0.125,0.0,1.0,0.0,exact\r
0.5,0,3,0.6974367008496386,0.0,0.09868616656821615,0.0,0.28997453880885893,0.0,0.8115405207169641,0.0,exact\r
0.5,2,7,0.6974367008496385,0.0,0.021074654595544844,0.0,0.28997453880885893,0.0,0.8115405207169641,0.0,exact\r
1.5,0,3,0.07681767569418939,0.0,0.7415819550010928,0.0,0.783283185586737,0.0,0.24180398792830657,0.0,exact\r
1.5,2,7,0.07681767569418936,0.0,0.6075731724264167,0.0,0.783283185586737,0.0,0.24180398792830657,0.0,exact\r
"""


def test_sweep_golden_csv(tmp_path):
    doc = _config(lattice={"d": 1, "L": 8}, pairs=[[0, 3], [2, 7]])
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.5, 1.5]
    path = _write_config(tmp_path, doc)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == GOLDEN_SWEEP_L8.encode()


def test_sweep_bytes_ignore_blas_threads(tmp_path):
    # An 18-site exact scan: four blocks of 2^16 masks, sixteen leaves of
    # 2^14 on the worker threads.  A BLAS dot of a whole leaf would split
    # across OpenBLAS's threads and move the last digits; each run is a
    # fresh interpreter, since BLAS reads its thread count once, at load.
    doc = _config(lattice={"d": 1, "L": 18}, pairs=[[0, 5], [4, 12]])
    del doc["alpha"]
    doc["alphas"] = [0.5, 2.0]
    path = _write_config(tmp_path, doc)
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        code = (
            "import sys; from gibbs_ground.cli import main; "
            f"sys.exit(main(['sweep', '--config', {str(path)!r}, '--out', {str(out)!r}]))"
        )
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "sweep.csv").read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"exact") == 4


# A generic model for build: three entries on the union set {0, 1}, odd
# y-sets, and a potential with a constant and a 3-body term.
GOLDEN_BUILD_CONFIG = {
    "schema": 1,
    "lattice": {"d": 1, "L": 6},
    "couplings": {
        "entries": [
            {"x_sites": [0, 1], "phi": -0.5},
            {"y_sites": [0, 1], "phi": -0.5},
            {"x_sites": [0], "y_sites": [1], "phi": 0.3},
            {"x_sites": [2], "y_sites": [3, 4], "phi": 0.25},
            {"y_sites": [5], "phi": 0.4},
            {"x_sites": [3, 4], "phi": -0.7},
        ]
    },
    "potential": {
        "terms": [
            {"sites": [], "coeff": 0.5},
            {"sites": [0], "coeff": 0.3},
            {"sites": [1, 2], "coeff": -0.8},
            {"sites": [2, 3, 4], "coeff": 0.6},
        ]
    },
    "alphas": [0.5, 1.25],
}

# summary.json of GOLDEN_BUILD_CONFIG, pinned from the per-builder COO
# assembly that preceded flip_operator; the flip-term assembly must
# reproduce it byte for byte.
GOLDEN_BUILD_SUMMARY = """\
{
  "alphas": [
    0.5,
    1.25
  ],
  "command": "build",
  "couplings": {
    "entries": 6,
    "odd_y_sets": [
      [
        1,
        2
      ],
      [
        0,
        32
      ]
    ]
  },
  "hypotheses_satisfied": false,
  "lattice": {
    "L": 6,
    "d": 1,
    "n_sites": 6
  },
  "matrices": [
    {
      "alpha": 0.5,
      "dimension": 64,
      "h_norm_max": 3.0774195098617154,
      "hermitian": false,
      "nnz": 320,
      "two_route_gap": 0.0,
      "two_route_tolerance": 3.0774195098617153e-12
    },
    {
      "alpha": 1.25,
      "dimension": 64,
      "h_norm_max": 6.296869762837604,
      "hermitian": false,
      "nnz": 320,
      "two_route_gap": 0.0,
      "two_route_tolerance": 6.2968697628376035e-12
    }
  ],
  "potential_terms": 4,
  "schema": 1,
  "warnings": [
    "ground-state hypotheses violated: odd y-sets present",
    "ground-state hypotheses violated: positive diagonal couplings"
  ]
}
"""


def test_build_golden_summary(tmp_path):
    path = _write_config(tmp_path, GOLDEN_BUILD_CONFIG)
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "summary.json").read_bytes() == GOLDEN_BUILD_SUMMARY.encode()

# report.json of verify on two XX/Ising chains, pinned on the CSR-based
# operator layer that preceded the flip-term one.  On both routes the
# eigensolver has changed since (numpy blocks on the dense route, numpy
# thick-restart Lanczos in place of ARPACK on the iterative one), so the
# ground energy and its residual (roundoff-sized for these models) are
# blanked; every other byte is pinned.
GOLDEN = Path(__file__).parent / "golden"


def _verify_report(tmp_path, doc) -> str:
    path = _write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
    return (tmp_path / "report.json").read_text()


def _blank_ground_energy(raw: str, method: str) -> str:
    doc = json.loads(raw)
    # Re-serialising reproduces the file, so blanking two fields below
    # leaves every other byte as written.
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == raw
    for report in doc["reports"]:
        (ground,) = [c for c in report["checks"] if c["name"] == "ground_energy"]
        assert ground["details"]["method"] == method
        assert abs(ground["value"]) <= 1e-12 and ground["details"]["residual"] <= 1e-12
        ground["value"] = None
        ground["details"]["residual"] = None
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_verify_golden_report_dense_route(tmp_path):
    raw = _verify_report(tmp_path, _config(lattice={"d": 1, "L": 8}))
    blanked = _blank_ground_energy(raw, "dense")
    assert blanked == (GOLDEN / "verify_chain8_dense.json").read_text()


def test_verify_golden_report_iterative_route(tmp_path):
    raw = _verify_report(tmp_path, _config(caps={"dense_sites": 4}))
    golden = (GOLDEN / "verify_chain6_iterative.json").read_text()
    assert _blank_ground_energy(raw, "iterative") == _blank_ground_energy(
        golden, "iterative"
    )


def _error_of(capsys) -> dict:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


@pytest.mark.parametrize("command, artifact", [("sweep", "sweep.csv"), ("correlate", "correlations.csv")])
def test_scan_without_pairs_is_a_config_error(tmp_path, capsys, command, artifact):
    # the base GibbsGroundError, which names no cause, used to reach stderr
    doc = _config(lattice={"d": 1, "L": 4})
    del doc["pairs"]
    path = _write_config(tmp_path, doc)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConfigError" and "'pairs'" in error["message"]
    assert not (tmp_path / artifact).exists()


def test_verify_overflow_exits_2_with_named_error(tmp_path, capsys):
    # Negative controls: Z at alpha=120 on the 8-site chain exceeds double
    # precision (exp(840) from the shift rescaling).  At alpha=1e308 on the
    # 6-site chain the rescaling's exponent overflows as well, which printed
    # a numpy warning before the error line, and under the suite's warning
    # filter ended in a traceback from the enumeration workers.
    for L, alpha, shown in [(8, 120.0, "alpha=120"), (6, 1e308, "alpha=1e+308")]:
        path = _write_config(tmp_path, _config(lattice={"d": 1, "L": L}, alpha=alpha))
        assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
        error = _error_of(capsys)
        assert error["error"] == "NumericRangeError"
        assert shown in error["message"]
        assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command, artifact", [("build", "summary.json"), ("verify", "report.json")])
def test_h_outside_double_range_exits_2_with_named_error(tmp_path, capsys, command, artifact):
    # Negative control: at J = -1e308 the XX coupling of an antiparallel
    # pair, 2J, leaves double precision.  build wrote "h_norm_max": Infinity
    # and "two_route_gap": NaN, which are not JSON, and exited 0 after numpy
    # warnings; verify judged NaN gaps against infinite thresholds.
    path = _write_config(tmp_path, _config(couplings={"preset": "xx", "J": -1e308}))
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "NumericRangeError"
    assert "H at alpha=1 has an entry outside double precision" in error["message"]
    assert not (tmp_path / artifact).exists()


def test_verify_underflow_exits_2_with_named_error(tmp_path, capsys):
    # Negative control: Z = 16 exp(-2100) for the constant U = 3 on 4 sites
    # at alpha=700 is 0.0, which once reached the checks as the zero state.
    doc = _config(
        lattice={"d": 1, "L": 4},
        potential={"terms": [{"sites": [], "coeff": 3.0}]},
        alpha=700.0,
    )
    path = _write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "NumericRangeError"
    assert "alpha=700" in error["message"]
    assert not (tmp_path / "report.json").exists()


def test_verify_trials_beyond_the_stream_exit_2_with_named_error(tmp_path, capsys):
    # 2^62 trial vectors of 16 states need more than 2^64 stream outputs;
    # drawn at once they ended in a traceback from numpy.
    doc = _config(lattice={"d": 1, "L": 4}, checks={"trials": 2**62, "seed": 11})
    path = _write_config(tmp_path, doc)
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConstraintError"
    assert "2^64 or more SplitMix64 outputs" in error["message"]
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "L, alpha, dense_sites", [(6, 2.0, 4), (6, 3.0, 4), (6, 5.0, 4), (8, 2.0, 7)]
)
def test_verify_iterative_route_converges_above_alpha_one(tmp_path, L, alpha, dense_sites):
    # ARPACK on the flipped spectrum c*I - H ran out of iterations on these
    # chains; Lanczos on H itself must pass and match the dense route.
    def ground_energy(name, **caps):
        doc = _config(lattice={"d": 1, "L": L}, alpha=alpha, **caps)
        path = _write_config(tmp_path, doc, f"{name}.json")
        out = tmp_path / name
        assert cli.main(["verify", "--config", str(path), "--out", str(out)]) == 0
        checks = json.loads((out / "report.json").read_text())["reports"][0]["checks"]
        by_name = {c["name"]: c for c in checks}
        return by_name["ground_energy"], by_name["eigenstate_residual"]["details"]["h_norm_max"]

    iterative, norm = ground_energy("iterative", caps={"dense_sites": dense_sites})
    dense, _ = ground_energy("dense")
    assert iterative["passed"] and iterative["details"]["method"] == "iterative"
    assert dense["details"]["method"] == "dense"
    assert abs(iterative["value"] - dense["value"]) <= 1e-12 * norm


def test_verify_lanczos_budget_exits_2_with_named_error(tmp_path, capsys, monkeypatch):
    # Negative control: a product budget too small for the 6-site chain.
    from gibbs_ground import verify

    monkeypatch.setattr(verify, "LANCZOS_MAX_PRODUCTS", 5)
    path = _write_config(tmp_path, _config(caps={"dense_sites": 4}))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConvergenceError"
    assert "within 5 products" in error["message"]
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


def _non_finite_report(value):
    def fake_verify(model, **kwargs):
        from gibbs_ground.verify import CheckRecord, VerificationReport

        report = VerificationReport(model_digest="deadbeef", alpha=model.alpha)
        report.records.append(CheckRecord("synthetic", True, True, value, 1.0, {"residual": value}))
        return report

    return fake_verify


def _non_finite_scan(value):
    def fake_scan(potential, alphas, pairs, **kwargs):
        (x, y), zeros = pairs[0], [0.0] * 5
        return [classical.ScanRow(alphas[0], x, y, 0.5, 0.0, value, *zeros, "exact")]

    return fake_scan


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["verify", "sweep", "correlate"])
def test_a_non_finite_artifact_value_exits_2_and_writes_nothing(
    tmp_path, capsys, monkeypatch, command, value
):
    # json.dumps wrote NaN and Infinity, which RFC 8259 forbids, and the CSV
    # writer wrote nan and inf cells.
    from gibbs_ground import verify

    artifact = _ARTIFACTS[command]
    if command == "verify":
        monkeypatch.setattr(verify, "verify_model", _non_finite_report(value))
    else:
        monkeypatch.setattr(cli, "order_parameter_scan", _non_finite_scan(value))
    path = _write_config(tmp_path, _config())
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "NumericRangeError"
    assert artifact in error["message"]
    assert not (tmp_path / artifact).exists()


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


def test_build_hypothesis_enumeration_follows_enumeration_cap(tmp_path, capsys):
    # one 21-site union set: 2^21 assignments, under the default cap of 24
    doc = _config(
        lattice={"d": 1, "L": 22},
        couplings={"entries": [{"x_sites": list(range(21)), "phi": -1.0}]},
    )
    path = _write_config(tmp_path, doc)
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
    summary = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert summary["hypotheses_satisfied"] and summary["matrices"] is None
    path = _write_config(tmp_path, {**doc, "caps": {"enumeration_sites": 20}})
    assert cli.main(["build", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
    error = _error_of(capsys)
    assert error["error"] == "SizeCapError" and "cap of 20" in error["message"]
    assert not (tmp_path / "b" / "summary.json").exists()


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


# correlations.csv of an exact 10-site scan with a generic potential (a
# constant, a field, a 3-body term and nonuniform bonds), pinned before the
# size caps moved onto the model and recaptured once when the exact sums
# moved from BLAS dot to np.add.reduce (last digits only).  No exact sum
# depends on the BLAS thread count (test_sweep_bytes_ignore_blas_threads).
GOLDEN_CORRELATE_L10 = """\
alpha,x,y,sx_sx,sx_sx_se,sz_sz,sz_sz_se,method\r
0.0,1,2,1.0,0.0,0.0,0.0,exact\r
0.0,3,8,1.0,0.0,0.0,0.0,exact\r
0.0,0,9,1.0,0.0,0.0,0.0,exact\r
0.75,1,2,0.722909739194233,0.0,0.5556043219059277,0.0,exact\r
0.75,3,8,0.663151813975774,0.0,0.026660399300736725,0.0,exact\r
0.75,0,9,0.7259386270372054,0.0,-3.6752892807828196e-17,0.0,exact\r
2.0,1,2,0.13205157271336793,0.0,0.963642400768989,0.0,exact\r
2.0,3,8,0.0682820563086341,0.0,0.4936920474178138,0.0,exact\r
2.0,0,9,0.1307079444957336,0.0,1.3360428453892585e-16,0.0,exact\r
"""


def test_correlate_golden_csv(tmp_path):
    doc = _config(
        lattice={"d": 1, "L": 10},
        potential={
            "terms": [
                {"sites": sites, "coeff": coeff}
                for sites, coeff in [
                    ([], 0.5), ([0], 0.3), ([0, 1], -0.9), ([1, 2], -0.8),
                    ([2, 3, 4], 0.6), ([3, 4], -0.7), ([4, 5], -1.1),
                    ([5, 6], -1.0), ([6, 7], -0.4), ([7, 8], -0.6), ([8, 9], -0.5),
                ]
            ]
        },
        pairs=[[1, 2], [3, 8], [0, 9]],
    )
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.75, 2.0]
    path = _write_config(tmp_path, doc)
    assert cli.main(["correlate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "correlations.csv").read_bytes() == GOLDEN_CORRELATE_L10.encode()


# The two goldens below span several summation blocks of 2^16 masks, so
# they pin the order in which the blocks' sums are added, and with it the
# exact scan's pairwise join of each block's leaves of 2^14 masks
# (classical._join_leaves).  Both were captured before the scan split its
# blocks.  sweep.csv of the benchmark's sweep-exact config: 20 sites,
# sixteen blocks.
SWEEP_EXACT_CONFIG = {
    "schema": 1,
    "lattice": {"d": 1, "L": 20},
    "couplings": {"preset": "xx", "J": -1.0},
    "potential": {"preset": "ising-nn", "K": 1.0},
    "alphas": [0.5, 1.0, 2.0],
    "pairs": [[0, 5], [4, 12]],
}

GOLDEN_SWEEP_L20 = """\
alpha,x,y,sx_sx,sx_sx_se,sz_sz,sz_sz_se,mz_sq,mz_sq_se,mx,mx_se,method\r
0.5,0,5,0.6974367008496388,0.0,0.021074654595544657,0.0,0.12792777287468077,0.0,0.7964848480663425,0.0,exact\r
0.5,4,12,0.618500036687247,0.0,0.0020797768737835422,0.0,0.12792777287468077,0.0,0.7964848480663425,0.0,exact\r
1.0,0,5,0.2721661669121462,0.0,0.2562229424460153,0.0,0.302743873972333,0.0,0.44278233481901197,0.0,exact\r
1.0,4,12,0.17637844761413463,0.0,0.11318498636487498,0.0,0.302743873972333,0.0,0.44278233481901197,0.0,exact\r
2.0,0,5,0.018779146714937314,0.0,0.8326208739622745,0.0,0.7951920861656011,0.0,0.09016596525125599,0.0,exact\r
2.0,4,12,0.004991539052432523,0.0,0.7459602249586849,0.0,0.7951920861656011,0.0,0.09016596525125599,0.0,exact\r
"""


def _sweep_exact_csv(tmp_path) -> bytes:
    path = _write_config(tmp_path, SWEEP_EXACT_CONFIG)
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    return (tmp_path / "sweep.csv").read_bytes()


def test_sweep_golden_csv_across_blocks(tmp_path):
    assert _sweep_exact_csv(tmp_path) == GOLDEN_SWEEP_L20.encode()


def _fold_all_leaves(enum, results):
    return results


def _fold_each_block(enum, results):
    width = 1 << enum.depth
    starts = range(0, len(results), width)
    return [functools.reduce(operator.add, results[k : k + width]) for k in starts]


def test_sweep_golden_fails_when_leaves_are_folded_left_to_right(tmp_path, monkeypatch):
    # Negative control: folding the leaves' sums one by one, across the
    # blocks or within each, instead of adding them pairwise, moves the
    # last digits.
    for join, line, moved in [
        (_fold_all_leaves, 1, ",0.12792777287468085,"),
        (_fold_each_block, 2, "0.6185000366872468,"),
    ]:
        monkeypatch.setattr(classical, "_join_leaves", join)
        got = _sweep_exact_csv(tmp_path).decode()
        assert got != GOLDEN_SWEEP_L20
        assert moved not in GOLDEN_SWEEP_L20
        assert moved in got.splitlines()[line]


# correlations.csv of an 18-site generic potential over nine alphas (two
# passes of _ALPHA_GROUP): a constant, a field, nonuniform bonds and the
# three-body term [15, 16, 17], which straddles the boundary of the blocks
# (at site 16); the leaves end at site 14.  Pairs (0, 15) and (3, 17) have
# a site in the leaves' high bits, (3, 17) one in the blocks'.
GOLDEN_CORRELATE_L18 = """\
alpha,x,y,sx_sx,sx_sx_se,sz_sz,sz_sz_se,method\r
0.0,1,2,1.0,0.0,0.0,0.0,exact\r
0.0,0,15,1.0,0.0,0.0,0.0,exact\r
0.0,3,17,1.0,0.0,0.0,0.0,exact\r
0.25,1,2,0.9642601526547538,0.0,0.19778588383583448,0.0,exact\r
0.25,0,15,0.9418707557973474,0.0,0.001943412708070158,0.0,exact\r
0.25,3,17,0.9365207267178572,0.0,3.511980936026871e-11,0.0,exact\r
0.5,1,2,0.8652962013800833,0.0,0.3852033149905002,0.0,exact\r
0.5,0,15,0.7886064381038025,0.0,0.015607404674876656,0.0,exact\r
0.5,3,17,0.772212933513337,0.0,3.4192010364291244e-07,0.0,exact\r
0.75,1,2,0.7229097391942327,0.0,0.5556043219059276,0.0,exact\r
0.75,0,15,0.5890883037337861,0.0,0.05386962521229603,0.0,exact\r
0.75,3,17,0.5650400848094779,0.0,4.5408387407615193e-05,0.0,exact\r
1.0,1,2,0.5632917125943339,0.0,0.7002708999318029,0.0,exact\r
1.0,0,15,0.3951179875817353,0.0,0.12669458542040446,0.0,exact\r
1.0,3,17,0.3709369144188221,0.0,0.0009540341110354141,0.0,exact\r
1.5,1,2,0.2892185344363721,0.0,0.8873926303104631,0.0,exact\r
1.5,0,15,0.13690460791066583,0.0,0.34901005074412916,0.0,exact\r
1.5,3,17,0.12430759763525001,0.0,0.028160816487145565,0.0,exact\r
2.0,1,2,0.13205157271336812,0.0,0.9636424007689888,0.0,exact\r
2.0,0,15,0.03842146788644869,0.0,0.5655218335981198,0.0,exact\r
2.0,3,17,0.03441960039137045,0.0,0.14358683204041864,0.0,exact\r
3.0,1,2,0.026230456757454224,0.0,0.9965415981506466,0.0,exact\r
3.0,0,15,0.0024259885130276065,0.0,0.8156270312553806,0.0,exact\r
3.0,3,17,0.002234834000368244,0.0,0.5245452097255064,0.0,exact\r
5.0,1,2,0.0011624631856846888,0.0,0.999964245838333,0.0,exact\r
5.0,0,15,7.915675558081653e-06,0.0,0.9636050595509281,0.0,exact\r
5.0,3,17,8.807690863819922e-06,0.0,0.913548437482363,0.0,exact\r
"""


def test_correlate_golden_csv_across_blocks(tmp_path):
    doc = _config(
        lattice={"d": 1, "L": 18},
        potential={
            "terms": [
                {"sites": sites, "coeff": coeff}
                for sites, coeff in [
                    ([], 0.5), ([0], 0.3), ([0, 1], -0.9), ([1, 2], -0.8),
                    ([2, 3, 4], 0.6), ([3, 4], -0.7), ([4, 5], -1.1), ([5, 6], -1.0),
                    ([6, 7], -0.4), ([7, 8], -0.6), ([8, 9], -0.5), ([9, 10], -0.85),
                    ([10, 11], -0.65), ([11, 12], -1.2), ([12, 13], -0.45),
                    ([13, 14], -0.95), ([14, 15], -0.55), ([15, 16, 17], 0.4),
                    ([15, 16], -0.75), ([16, 17], -1.05),
                ]
            ]
        },
        pairs=[[1, 2], [0, 15], [3, 17]],
    )
    del doc["alpha"]
    doc["alphas"] = [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 5.0]
    path = _write_config(tmp_path, doc)
    assert cli.main(["correlate", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "correlations.csv").read_bytes() == GOLDEN_CORRELATE_L18.encode()


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


# samples.json of a 6-site chain, pinned when the Metropolis chains moved
# from numpy's generator to SplitMix64; each proposal's draws depend on the
# seed, its sweep and its step alone, so no block size can change a byte.
GOLDEN_SAMPLES_L6 = """\
{
  "burn_in": 40,
  "command": "sample",
  "results": [
    {
      "acceptance_rate": 0.5450757575757575,
      "alpha": 0.5,
      "mz_sq": 0.33738425925925924,
      "mz_sq_se": 0.02195607962935564,
      "pairs": [
        {
          "sz_sz": 0.010416666666666657,
          "sz_sz_se": 0.06774063538818999,
          "x": 0,
          "y": 3
        },
        {
          "sz_sz": 0.4531249999999999,
          "sz_sz_se": 0.05197401161219438,
          "x": 1,
          "y": 2
        }
      ]
    },
    {
      "acceptance_rate": 0.20946969696969697,
      "alpha": 1.0,
      "mz_sq": 0.6993634259259258,
      "mz_sq_se": 0.03271525668611238,
      "pairs": [
        {
          "sz_sz": 0.49999999999999994,
          "sz_sz_se": 0.06566792204465648,
          "x": 0,
          "y": 3
        },
        {
          "sz_sz": 0.78125,
          "sz_sz_se": 0.03699442646677652,
          "x": 1,
          "y": 2
        }
      ]
    }
  ],
  "schema": 1,
  "seed": 7,
  "sweeps": 400
}
"""


@pytest.mark.parametrize("block", [1, 7, None], ids=["block-1", "block-7", "default"])
def test_sample_golden_json(tmp_path, monkeypatch, block):
    if block is not None:
        monkeypatch.setattr(classical, "_SWEEP_BLOCK", block)
    doc = _config(pairs=[[0, 3], [1, 2]], mc={"sweeps": 400, "burn_in": 40, "seed": 7})
    del doc["alpha"]
    doc["alphas"] = [0.5, 1.0]
    path = _write_config(tmp_path, doc)
    assert cli.main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "samples.json").read_bytes() == GOLDEN_SAMPLES_L6.encode()


@pytest.mark.parametrize(
    "sweeps, wanted",
    [(10**20, "2^64 or more SplitMix64 outputs"), (10**13, "do not fit in memory")],
    ids=["1e20", "1e13"],
)
def test_oversized_sweeps_exit_2(tmp_path, capsys, sweeps, wanted):
    # np.empty((sweeps, n)) once ended sample in numpy's "Maximum allowed
    # dimension exceeded" ValueError (10^20) or its _ArrayMemoryError
    # (10^13), a traceback with exit 1; the counter check comes first
    path = _write_config(tmp_path, _config(mc={"sweeps": sweeps, "seed": 7}))
    assert cli.main(["sample", "--config", str(path), "--out", str(tmp_path)]) == 2
    error = _error_of(capsys)
    assert error["error"] == "ConstraintError" and wanted in error["message"]
    assert not (tmp_path / "samples.json").exists()


def test_seed_flag_sets_the_check_seed_too(tmp_path):
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 4}))
    assert cli.main(["verify", "--config", str(path), "--out", str(tmp_path), "--seed", "99"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    checks = [c for r in report["reports"] for c in r["checks"] if "seed" in c.get("details", {})]
    assert {c["name"] for c in checks} == {"reversibility", "dirichlet_form"}
    assert {c["details"]["seed"] for c in checks} == {99}


def test_missing_config_file_exits_2(capsys):
    assert cli.main(["build", "--config", "/nonexistent.json"]) == 2
    assert "cannot read config" in capsys.readouterr().err


_ARTIFACTS = {
    "build": "summary.json",
    "verify": "report.json",
    "correlate": "correlations.csv",
    "sweep": "sweep.csv",
    "sample": "samples.json",
}


@pytest.mark.parametrize("target", ["file", "under-file", "artifact-is-dir"])
@pytest.mark.parametrize("command", sorted(_ARTIFACTS))
def test_unwritable_output_exits_2(tmp_path, capsys, command, target):
    # --out naming a file once ended in FileExistsError, a path under a file
    # in NotADirectoryError: tracebacks with exit 1, which for verify means
    # that an asserted check failed
    path = _write_config(tmp_path, _config(lattice={"d": 1, "L": 4}, mc={"sweeps": 64, "seed": 7}))
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = {"file": blocker, "under-file": blocker / "out"}.get(target, tmp_path / "out")
    if target == "artifact-is-dir":
        (out / _ARTIFACTS[command]).mkdir(parents=True)
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write output: ")
    assert blocker.read_text() == ""


# The whole-range contract of the command line, over every double: alpha
# from 0 and [5e-324, 1e308], J, K and phi from 0 and +-[5e-324, 1e308].
_MAGNITUDE = st.just(0.0) | st.floats(5e-324, 1e308, allow_subnormal=True)
_SIGNED = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), _MAGNITUDE)


def _refuse_constant(constant):
    raise ValueError(f"non-finite constant {constant}")


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(_ARTIFACTS)),
    n_sites=st.integers(2, 6),
    bonds=st.integers(0, 5),
    odd=st.booleans(),
    alpha=_MAGNITUDE,
    j=_SIGNED,
    k=_SIGNED,
    phi=_SIGNED,
    dense_sites=st.sampled_from([12, 2]),
)
# Each example below ended in a numpy RuntimeWarning or a traceback.
# The xx chain: five overflow warnings from apply inside
# trial_vector_checks, then the NaN backstop's exit 2.
@example("verify", 6, 5, False, 1.0, -3e306, 1.0, 0.0, 12)
# One XX+YY bond: LinAlgError from the projected matrix of _lanczos_lowest.
@example("verify", 3, 1, False, 0.0, 4.98e307, 0.0, 0.0, 2)
# X_0 Y_1 alone: an overflowing Hermitian gap in OperatorMatrix.is_hermitian.
@example("build", 2, 0, True, 1.0, 0.0, 0.0, 8.99e307, 12)
# A huge K at a subnormal-scale alpha: ModelInstance.shifted_energies.
@example("verify", 5, 4, False, 2.2e-308, -1.0, 2.25e307, 0.0, 12)
def test_every_double_exits_cleanly(command, n_sites, bonds, odd, alpha, j, k, phi, dense_sites):
    # The first `bonds` bonds of the chain carry XX + YY at J (all of them
    # is the xx preset); the optional odd y-set entry is X_0 Y_1 at phi.
    # Exit 0 or 1 means strict JSON and finite CSV cells, exit 2 exactly one
    # stderr line; never a traceback, never a RuntimeWarning.
    entries = []
    for x in range(min(bonds, n_sites - 1)):
        entries += [{"x_sites": [x, x + 1], "phi": j}, {"y_sites": [x, x + 1], "phi": j}]
    if odd:
        entries.append({"x_sites": [0], "y_sites": [1], "phi": phi})
    doc = _config(
        lattice={"d": 1, "L": n_sites},
        couplings={"entries": entries},
        potential={"preset": "ising-nn", "K": k},
        alpha=alpha,
        pairs=[[0, n_sites - 1]],
        mc={"sweeps": 16, "seed": 7},
        checks={},  # 20 trial vectors from seed 0, as the CLI draws them by default
        caps={"dense_sites": dense_sites},
    )
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = _write_config(Path(tmp), doc)
        out = Path(tmp) / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                status = cli.main([command, "--config", str(path), "--out", str(out)])
        warned = [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not [f"{w.filename}:{w.lineno}: {w.message}" for w in warned]
        assert status in (0, 1, 2)
        if status == 2:
            assert len(stderr.getvalue().splitlines()) == 1
            return
        text = (out / _ARTIFACTS[command]).read_text()
    if command in ("correlate", "sweep"):
        rows = list(csv.DictReader(io.StringIO(text)))
        assert all(math.isfinite(float(v)) for row in rows for c, v in row.items() if c != "method")
    else:
        json.loads(text, parse_constant=_refuse_constant)
