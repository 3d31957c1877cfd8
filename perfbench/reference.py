"""Exact references for the benchmark workloads and the artifact gate.

Every workload is an open chain with the ferromagnetic ``ising-nn``
potential U(s) = -K sum_b s_b s_{b+1}.  Under the Gibbs measure
exp(-alpha U) the bond variables tau_b = s_b s_{b+1} are independent, each
+1 with probability e^{alpha K} / (2 cosh alpha K).  With t = tanh(alpha K)
and c = cosh(alpha K) that gives, in plain Python and independent of the
package:

- <s_x s_y> = t^|x - y|, a product of the bonds between x and y;
- <(n^-1 sum_x s_x)^2> = n^-2 sum_{x,y} t^|x - y|;
- <exp(-(alpha/2) W_A)> = c^-cut(A), where cut(A) counts the bonds with
  exactly one end in A: flipping A negates exactly those bonds, and each
  contributes an independent factor E[exp(-alpha K tau)] = 1 / c.  This is
  sx_sx for A = {x, y} and, averaged over single sites, mx.

The ``check_*`` functions return a list of problems found in an artifact;
an empty list means the artifact passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Relative tolerance for exact (enumerated) values against the closed forms.
EXACT_RTOL = 1e-10
# Metropolis estimates must lie within this many standard errors of the
# exact value, and every standard error must be at most SE_CEILING (the
# ceiling of the repository's Metropolis acceptance criterion).
MC_Z_MAX = 5.0
SE_CEILING = 0.02

SWEEP_OBSERVABLES = ("sx_sx", "sz_sz", "mz_sq", "mx")


# ---------------------------------------------------------------------------
# Closed forms for the open Ising chain
# ---------------------------------------------------------------------------


def sz_sz(alpha: float, K: float, x: int, y: int) -> float:
    return math.tanh(alpha * K) ** abs(x - y)


def mz_sq(alpha: float, K: float, n: int) -> float:
    t = math.tanh(alpha * K)
    total = float(n) + 2.0 * sum((n - d) * t**d for d in range(1, n))
    return total / (n * n)


def cut_bonds(n: int, sites) -> int:
    """Number of chain bonds (b, b + 1) with exactly one end in ``sites``."""
    inside = set(sites)
    return sum((b in inside) != (b + 1 in inside) for b in range(n - 1))


def flip_weight_mean(alpha: float, K: float, n: int, sites) -> float:
    """<exp(-(alpha/2) W_A)> for the site set A = ``sites``."""
    return math.cosh(alpha * K) ** -cut_bonds(n, sites)


def sx_sx(alpha: float, K: float, n: int, x: int, y: int) -> float:
    return flip_weight_mean(alpha, K, n, (x, y))


def mx(alpha: float, K: float, n: int) -> float:
    return sum(flip_weight_mean(alpha, K, n, (x,)) for x in range(n)) / n


# ---------------------------------------------------------------------------
# Artifact checks
# ---------------------------------------------------------------------------


def _chain(config: dict) -> tuple[int, float]:
    """(n, K) of a workload config, which must be an open Ising chain."""
    lattice, potential = config["lattice"], config["potential"]
    if lattice["d"] != 1 or potential.get("preset") != "ising-nn":
        raise ValueError("the closed forms cover only the open ising-nn chain")
    return lattice["L"], float(potential["K"])


def _close(value: float, exact: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(value - exact) <= rtol * abs(exact)


def check_sweep(text: str, workload: dict, seed: int) -> list[str]:
    """Every row of sweep.csv must match the closed forms to EXACT_RTOL."""
    config = workload["config"]
    n, K = _chain(config)
    rows = list(csv.DictReader(io.StringIO(text)))
    expected_keys = [(a, x, y) for a in config["alphas"] for x, y in config["pairs"]]
    got_keys = [(float(r["alpha"]), int(r["x"]), int(r["y"])) for r in rows]
    if got_keys != [(float(a), x, y) for a, x, y in expected_keys]:
        return [f"sweep rows {got_keys} do not match the alpha x pair grid"]
    problems = []
    for row, (alpha, x, y) in zip(rows, expected_keys):
        exact = {
            "sx_sx": sx_sx(alpha, K, n, x, y),
            "sz_sz": sz_sz(alpha, K, x, y),
            "mz_sq": mz_sq(alpha, K, n),
            "mx": mx(alpha, K, n),
        }
        where = f"alpha={alpha} pair=({x},{y})"
        if row["method"] != "exact":
            problems.append(f"{where}: method {row['method']!r}, expected 'exact'")
        for key in SWEEP_OBSERVABLES:
            value = float(row[key])
            if not _close(value, exact[key]):
                problems.append(f"{where}: {key}={value!r}, exact {exact[key]!r}")
            if float(row[key + "_se"]) != 0.0:
                problems.append(f"{where}: {key}_se is nonzero on an exact row")
    return problems


def _mc_problems(where: str, value: float, se: float, exact: float) -> list[str]:
    problems = []
    if not (0.0 < se <= SE_CEILING):
        problems.append(f"{where}: standard error {se!r} outside (0, {SE_CEILING}]")
    elif abs(value - exact) > MC_Z_MAX * se:
        problems.append(
            f"{where}: estimate {value!r} is {abs(value - exact) / se:.2f} standard "
            f"errors from the exact {exact!r}"
        )
    return problems


def check_samples(text: str, workload: dict, seed: int) -> list[str]:
    """Every Metropolis estimate in samples.json must lie within MC_Z_MAX
    standard errors of the closed form, with each error at most SE_CEILING."""
    config = workload["config"]
    n, K = _chain(config)
    doc = json.loads(text)
    mc = config["mc"]
    problems = []
    for key, want in (("seed", seed), ("sweeps", mc["sweeps"]), ("burn_in", mc["burn_in"])):
        if doc.get(key) != want:
            problems.append(f"samples.json {key}={doc.get(key)!r}, expected {want!r}")
    results = doc.get("results", [])
    if [r["alpha"] for r in results] != [float(a) for a in config["alphas"]]:
        return problems + ["samples.json alphas do not match the config"]
    for result in results:
        alpha = result["alpha"]
        if not 0.0 < result["acceptance_rate"] < 1.0:
            problems.append(f"alpha={alpha}: acceptance {result['acceptance_rate']!r}")
        problems += _mc_problems(
            f"alpha={alpha} mz_sq", result["mz_sq"], result["mz_sq_se"], mz_sq(alpha, K, n)
        )
        pairs = [(p["x"], p["y"]) for p in result["pairs"]]
        if pairs != [tuple(p) for p in config["pairs"]]:
            problems.append(f"alpha={alpha}: pairs {pairs} do not match the config")
            continue
        for p in result["pairs"]:
            problems += _mc_problems(
                f"alpha={alpha} sz_sz({p['x']},{p['y']})",
                p["sz_sz"],
                p["sz_sz_se"],
                sz_sz(alpha, K, p["x"], p["y"]),
            )
    return problems


def _sites_in_name(name: str) -> tuple[int, ...]:
    return tuple(int(s) for s in name[name.index("[") + 1 : -1].split(","))


def check_report(text: str, workload: dict, seed: int) -> list[str]:
    """report.json must pass overall, carry exactly the expected checks, come
    from the expected eigensolver route, and hold classical values that match
    the closed forms."""
    config = workload["config"]
    n, K = _chain(config)
    doc = json.loads(text)
    problems = []
    if doc.get("all_passed") is not True:
        problems.append("report.json all_passed is not true")
    reports = doc.get("reports", [])
    if [r["alpha"] for r in reports] != [float(a) for a in config["alphas"]]:
        return problems + ["report.json alphas do not match the config"]
    for report in reports:
        alpha = report["alpha"]
        checks = {c["name"]: c for c in report["checks"]}
        if report.get("all_passed") is not True:
            problems.append(f"alpha={alpha}: all_passed is not true")
        if sorted(checks) != sorted(workload["expected_checks"]):
            problems.append(f"alpha={alpha}: check names {sorted(checks)}")
            continue
        failed = [c["name"] for c in report["checks"] if c["asserted"] and not c["passed"]]
        if failed:
            problems.append(f"alpha={alpha}: asserted checks failed: {failed}")
        method = checks["ground_energy"]["details"].get("method")
        if method != workload["ground_energy_method"]:
            problems.append(f"alpha={alpha}: ground_energy method {method!r}")
        for name, check in checks.items():
            if name.startswith("classical_reduction["):
                x, y = _sites_in_name(name)
                exact = sz_sz(alpha, K, x, y)
            elif name.startswith("sx_product_bound["):
                exact = flip_weight_mean(alpha, K, n, _sites_in_name(name))
            else:
                continue
            value = check["details"]["classical"]
            if not _close(value, exact):
                problems.append(f"alpha={alpha} {name}: classical {value!r}, exact {exact!r}")
    return problems


CHECKS = {"verify": check_report, "sweep": check_sweep, "sample": check_samples}


def check_artifact(text: str, workload: dict, seed: int) -> list[str]:
    try:
        return CHECKS[workload["command"]](text, workload, seed)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed {workload['artifact']}: {type(exc).__name__}: {exc}"]


def comparable(data: bytes, workload: dict) -> bytes:
    """The artifact with the fields the program does not reproduce blanked.

    A workload lists such fields under ``unreproducible`` as (check name,
    key path) pairs; artifacts of all other workloads compare byte for byte.
    """
    fields = workload.get("unreproducible", {}).get("fields")
    if not fields:
        return data
    doc = json.loads(data)
    for report in doc["reports"]:
        for check in report["checks"]:
            for name, *path in fields:
                if check["name"] == name:
                    parent = check
                    for key in path[:-1]:
                        parent = parent[key]
                    parent[path[-1]] = None
    return json.dumps(doc, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# Negative controls: corrupted artifacts the gate must reject
# ---------------------------------------------------------------------------


def _perturbed_sweeps(text: str) -> list[str]:
    """One copy per observable, with that value in the first row scaled by
    1 + 1e-6."""
    rows = list(csv.DictReader(io.StringIO(text)))
    out = []
    for key in SWEEP_OBSERVABLES:
        bad = [dict(row) for row in rows]
        bad[0][key] = repr(float(bad[0][key]) * (1.0 + 1e-6))
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(bad)
        out.append(buf.getvalue())
    return out


def _se_above_ceiling(text: str) -> list[str]:
    doc = json.loads(text)
    doc["results"][0]["pairs"][0]["sz_sz_se"] = SE_CEILING * 1.05
    return [json.dumps(doc)]


def _failed_report(text: str) -> list[str]:
    doc = json.loads(text)
    doc["all_passed"] = False
    return [json.dumps(doc)]


_CONTROLS = {"verify": _failed_report, "sweep": _perturbed_sweeps, "sample": _se_above_ceiling}


def negative_controls(text: str, workload: dict) -> list[str]:
    """Corrupted copies of a passing artifact; check_artifact must flag each."""
    return _CONTROLS[workload["command"]](text)
