"""The closed forms against brute-force enumeration, and the artifact gate
against passing and corrupted artifacts.

    python3 -m pytest perfbench/tests
"""

import csv
import io
import itertools
import json
import math
from pathlib import Path

import pytest

import reference

WORKLOADS = Path(__file__).resolve().parent.parent / "workloads"


def brute_force(n: int, K: float, alpha: float):
    """Exact Gibbs averages of the open chain U(s) = -K sum s_b s_{b+1} by
    summing over all 2^n configurations in plain Python."""
    z = 0.0
    zz = [[0.0] * n for _ in range(n)]
    mz2 = 0.0
    flips: dict[tuple[int, ...], float] = {}
    site_sets = [(x,) for x in range(n)] + list(itertools.combinations(range(n), 2))

    def energy(s):
        return -K * sum(s[b] * s[b + 1] for b in range(n - 1))

    for s in itertools.product((1, -1), repeat=n):
        u = energy(s)
        w = math.exp(-alpha * u)
        z += w
        for x in range(n):
            for y in range(n):
                zz[x][y] += w * s[x] * s[y]
        mz2 += w * (sum(s) / n) ** 2
        for sites in site_sets:
            flipped = tuple(-v if i in sites else v for i, v in enumerate(s))
            flips[sites] = flips.get(sites, 0.0) + w * math.exp(-0.5 * alpha * (energy(flipped) - u))
    return (
        [[v / z for v in row] for row in zz],
        mz2 / z,
        {sites: v / z for sites, v in flips.items()},
    )


@pytest.mark.parametrize("n", [2, 3, 6, 10])
@pytest.mark.parametrize("K,alpha", [(1.0, 0.5), (1.0, 2.0), (-0.7, 1.3), (1.0, 0.0)])
def test_closed_forms_match_enumeration(n, K, alpha):
    zz, mz2, flips = brute_force(n, K, alpha)
    for x, y in itertools.combinations(range(n), 2):
        assert reference.sz_sz(alpha, K, x, y) == pytest.approx(zz[x][y], rel=1e-12, abs=1e-15)
        assert reference.sx_sx(alpha, K, n, x, y) == pytest.approx(flips[(x, y)], rel=1e-12)
    assert reference.mz_sq(alpha, K, n) == pytest.approx(mz2, rel=1e-12)
    mean_site = sum(flips[(x,)] for x in range(n)) / n
    assert reference.mx(alpha, K, n) == pytest.approx(mean_site, rel=1e-12)
    # The mean x-magnetization in the form [(n - 2) / c^2 + 2 / c] / n.
    c = math.cosh(alpha * K)
    assert reference.mx(alpha, K, n) == pytest.approx(((n - 2) / c**2 + 2 / c) / n, rel=1e-14)


def load(name: str) -> dict:
    return json.loads((WORKLOADS / f"{name}.json").read_text())


def exact_sweep(workload: dict) -> str:
    config = workload["config"]
    n, K = config["lattice"]["L"], config["potential"]["K"]
    columns = ["alpha", "x", "y", "sx_sx", "sx_sx_se", "sz_sz", "sz_sz_se",
               "mz_sq", "mz_sq_se", "mx", "mx_se", "method"]
    buf = io.StringIO(newline="")
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for alpha in config["alphas"]:
        for x, y in config["pairs"]:
            writer.writerow({
                "alpha": alpha, "x": x, "y": y,
                "sx_sx": reference.sx_sx(alpha, K, n, x, y), "sx_sx_se": 0.0,
                "sz_sz": reference.sz_sz(alpha, K, x, y), "sz_sz_se": 0.0,
                "mz_sq": reference.mz_sq(alpha, K, n), "mz_sq_se": 0.0,
                "mx": reference.mx(alpha, K, n), "mx_se": 0.0, "method": "exact",
            })
    return buf.getvalue()


def exact_samples(workload: dict, seed: int, se: float = 0.01) -> str:
    config = workload["config"]
    n, K = config["lattice"]["L"], config["potential"]["K"]
    results = [
        {
            "alpha": alpha,
            "acceptance_rate": 0.5,
            "mz_sq": reference.mz_sq(alpha, K, n) + se,
            "mz_sq_se": se,
            "pairs": [
                {"x": x, "y": y, "sz_sz": reference.sz_sz(alpha, K, x, y) - 2 * se, "sz_sz_se": se}
                for x, y in config["pairs"]
            ],
        }
        for alpha in config["alphas"]
    ]
    mc = config["mc"]
    return json.dumps({"command": "sample", "seed": seed, "sweeps": mc["sweeps"],
                       "burn_in": mc["burn_in"], "results": results})


def exact_report(workload: dict) -> str:
    config = workload["config"]
    n, K = config["lattice"]["L"], config["potential"]["K"]
    reports = []
    for alpha in config["alphas"]:
        checks = []
        for name in workload["expected_checks"]:
            details = {}
            if name.startswith("classical_reduction["):
                x, y = map(int, name[name.index("[") + 1 : -1].split(","))
                details["classical"] = reference.sz_sz(alpha, K, x, y)
            elif name.startswith("sx_product_bound["):
                sites = tuple(map(int, name[name.index("[") + 1 : -1].split(",")))
                details["classical"] = reference.flip_weight_mean(alpha, K, n, sites)
            elif name == "ground_energy":
                details = {"method": workload["ground_energy_method"], "residual": 1e-13}
            checks.append({"name": name, "passed": True, "asserted": True,
                           "value": 0.0, "threshold": 1.0, "details": details})
        reports.append({"alpha": alpha, "all_passed": True, "checks": checks})
    return json.dumps({"command": "verify", "all_passed": True, "reports": reports})


ARTIFACTS = {
    "sweep-exact": lambda w: exact_sweep(w),
    "sample-mc": lambda w: exact_samples(w, seed=5),
    "verify-dense": exact_report,
    "verify-lanczos": exact_report,
}


@pytest.mark.parametrize("name", sorted(ARTIFACTS))
def test_gate_passes_exact_artifacts_and_rejects_every_negative_control(name):
    workload = load(name)
    text = ARTIFACTS[name](workload)
    assert reference.check_artifact(text, workload, 5) == []
    controls = reference.negative_controls(text, workload)
    assert controls
    for bad in controls:
        assert reference.check_artifact(bad, workload, 5)


def test_sweep_gate_rejects_a_one_in_a_million_perturbation_of_any_value():
    workload = load("sweep-exact")
    rows = list(csv.DictReader(io.StringIO(exact_sweep(workload))))
    for k in range(len(rows)):
        for key in reference.SWEEP_OBSERVABLES:
            bad = [dict(r) for r in rows]
            bad[k][key] = repr(float(bad[k][key]) * (1 - 1e-6))
            buf = io.StringIO(newline="")
            writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(bad)
            assert reference.check_artifact(buf.getvalue(), workload, 0)


def test_sample_gate_rejects_estimates_beyond_five_standard_errors():
    workload = load("sample-mc")
    doc = json.loads(exact_samples(workload, seed=5))
    exact = reference.sz_sz(doc["results"][1]["alpha"], 1.0, 10, 13)
    doc["results"][1]["pairs"][0]["sz_sz"] = exact + 5.01 * 0.01
    assert reference.check_artifact(json.dumps(doc), workload, 5)
    doc["results"][1]["pairs"][0]["sz_sz"] = exact + 4.99 * 0.01
    assert reference.check_artifact(json.dumps(doc), workload, 5) == []


def test_sample_gate_rejects_a_wrong_seed_echo():
    workload = load("sample-mc")
    assert reference.check_artifact(exact_samples(workload, seed=5), workload, 6)


def test_report_gate_rejects_the_other_route_and_missing_checks():
    dense, lanczos = load("verify-dense"), load("verify-lanczos")
    assert reference.check_artifact(exact_report(dense), lanczos, 0)
    doc = json.loads(exact_report(dense))
    doc["reports"][0]["checks"].pop()
    assert reference.check_artifact(json.dumps(doc), dense, 0)
    doc = json.loads(exact_report(dense))
    doc["reports"][0]["checks"][0]["passed"] = False
    assert reference.check_artifact(json.dumps(doc), dense, 0)


def test_comparable_blanks_only_the_listed_fields():
    lanczos = load("verify-lanczos")
    a = json.loads(exact_report(lanczos))
    b = json.loads(exact_report(lanczos))
    for doc, residual in ((a, 1e-13), (b, 3e-13)):
        check = next(c for c in doc["reports"][0]["checks"] if c["name"] == "ground_energy")
        check["details"]["residual"] = residual
        check["value"] = residual
    same = [json.dumps(d).encode() for d in (a, b)]
    assert reference.comparable(same[0], lanczos) == reference.comparable(same[1], lanczos)
    b["reports"][0]["checks"][0]["value"] = 1.0
    other = json.dumps(b).encode()
    assert reference.comparable(same[0], lanczos) != reference.comparable(other, lanczos)
    # Workloads without unreproducible fields compare raw bytes.
    assert reference.comparable(same[0], load("verify-dense")) == same[0]
