"""Batch front end: JSON config in, JSON/CSV reports out.

Subcommands: build, verify, correlate, sweep, sample.  Outputs are fully
deterministic for a fixed config and seed (stable key order, no timestamps),
so repeated runs are byte-identical and diffable in CI.  Before numpy
loads, the CLI sets OPENBLAS_THREAD_TIMEOUT=20 (unless the user set it), so
idle OpenBLAS workers sleep after about 0.4 ms instead of spinning 0.1 s.
Only build and verify import gibbs_ground.verify, when they run, so the
classical commands neither load nor compile it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

# Must precede the first numpy import below: OpenBLAS reads it when it
# loads.  2^20 cycles keep a worker awake across the calls of one LAPACK
# routine; the default 2^28 spin through import and the Python between calls.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from . import __version__
from .classical import (
    ClassicalPotential,
    ScanRow,
    default_burn_in,
    metropolis_averages,
    order_parameter_scan,
    spin_product,
    squared_magnetization,
)
from .errors import ConfigError, ConstraintError, GibbsGroundError, NumericRangeError
from .lattice import Caps, Lattice, build_hypercube
from .models import CouplingTable, ModelInstance
from .splitmix import check_seed

SCHEMA_VERSION = 1

_SWEEP_COLUMNS = [f.name for f in fields(ScanRow)]
_CORRELATE_COLUMNS = [
    "alpha", "x", "y", "sx_sx", "sx_sx_se", "sz_sz", "sz_sz_se", "method",
]
_CONFIG_FIELDS = [
    "schema", "lattice", "couplings", "potential", "alpha", "alphas",
    "pairs", "mc", "checks", "caps",
]


@dataclass
class RunConfig:
    lattice: Lattice
    table: CouplingTable
    potential: ClassicalPotential
    alphas: list[float]
    pairs: list[tuple[int, int]]
    sweeps: int
    burn_in: int | None
    mc_seed: int
    check_trials: int
    check_seed: int
    caps: Caps


def _require(condition: bool, message: str):
    if not condition:
        raise ConfigError(message)


def _require_known(section: dict, where: str, known: list[str]):
    """ConfigError naming the first key of section that is not in known."""
    for key in section:
        _require(
            key in known, f"unknown field '{where}.{key}' (known: {', '.join(known)})"
        )


def _seed(value: int, where: str) -> int:
    """value, unless check_seed, the package's one seed rule, refuses it."""
    try:
        check_seed(value)
    except ConstraintError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    return value


def _get(section: dict, key: str, kind, where: str, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"missing required field '{where}.{key}'")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"field '{where}.{key}' has the wrong type")
    return value


def _site_list(raw, where: str, n_sites: int) -> list[int]:
    _require(isinstance(raw, list), f"field '{where}' must be a list of site indices")
    sites = []
    for v in raw:
        _require(isinstance(v, int) and not isinstance(v, bool), f"field '{where}' must hold integers")
        _require(0 <= v < n_sites, f"site index {v} in '{where}' outside the lattice")
        sites.append(v)
    return sites


def _parse_couplings(raw, lattice: Lattice) -> CouplingTable:
    _require(isinstance(raw, dict), "field 'couplings' must be an object")
    if "preset" in raw:
        _require_known(raw, "couplings", ["preset", "J"])
        preset = raw["preset"]
        j = _get(raw, "J", float, "couplings", required=True)
        if preset in ("xx", "xxz"):
            return CouplingTable.xx_nearest_neighbor(lattice, j)
        raise ConfigError(f"unknown couplings preset '{preset}'")
    _require_known(raw, "couplings", ["entries"])
    entries_raw = raw.get("entries")
    _require(
        isinstance(entries_raw, list),
        "field 'couplings' needs either 'preset' or an 'entries' list",
    )
    entries = []
    for k, entry in enumerate(entries_raw):
        where = f"couplings.entries[{k}]"
        _require(isinstance(entry, dict), f"field '{where}' must be an object")
        _require_known(entry, where, ["x_sites", "y_sites", "phi"])
        a = _site_list(entry.get("x_sites", []), f"{where}.x_sites", lattice.n_sites)
        b = _site_list(entry.get("y_sites", []), f"{where}.y_sites", lattice.n_sites)
        phi = _get(entry, "phi", float, where, required=True)
        _require(not set(a) & set(b), f"'{where}' has overlapping x_sites and y_sites")
        entries.append((a, b, phi))
    try:
        return CouplingTable.from_site_lists(lattice.n_sites, entries)
    except GibbsGroundError as exc:
        raise ConfigError(f"invalid coupling entries: {exc}") from exc


def _parse_potential(raw, lattice: Lattice) -> ClassicalPotential:
    if raw is None:
        return ClassicalPotential.zero(lattice.n_sites)
    _require(isinstance(raw, dict), "field 'potential' must be an object")
    if "preset" in raw:
        _require_known(raw, "potential", ["preset", "K"])
        preset = raw["preset"]
        if preset == "ising-nn":
            k = _get(raw, "K", float, "potential", required=True)
            return ClassicalPotential.ising_nn(lattice, k)
        if preset == "linear-height":
            return ClassicalPotential.linear_height(lattice)
        raise ConfigError(f"unknown potential preset '{preset}'")
    _require_known(raw, "potential", ["terms"])
    terms_raw = raw.get("terms")
    _require(
        isinstance(terms_raw, list),
        "field 'potential' needs either 'preset' or a 'terms' list",
    )
    terms = []
    for k, term in enumerate(terms_raw):
        where = f"potential.terms[{k}]"
        _require(isinstance(term, dict), f"field '{where}' must be an object")
        _require_known(term, where, ["sites", "coeff"])
        sites = _site_list(term.get("sites", []), f"{where}.sites", lattice.n_sites)
        coeff = _get(term, "coeff", float, where, required=True)
        terms.append((sites, coeff))
    try:
        return ClassicalPotential.from_terms(lattice.n_sites, terms)
    except GibbsGroundError as exc:
        raise ConfigError(f"invalid potential terms: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond Python's digit limit
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is not valid JSON: nested too deeply") from exc
    _require(isinstance(doc, dict), "config root must be a JSON object")
    schema = doc.get("schema")
    _require(
        schema == SCHEMA_VERSION,
        f"config field 'schema' must be {SCHEMA_VERSION}, got {schema!r}",
    )
    _require_known(doc, "config", _CONFIG_FIELDS)

    caps_raw = doc.get("caps", {})
    _require(isinstance(caps_raw, dict), "field 'caps' must be an object")
    _require_known(caps_raw, "caps", [f.name for f in fields(Caps)])
    try:
        caps = Caps(
            **{f.name: _get(caps_raw, f.name, int, "caps", f.default) for f in fields(Caps)}
        )
    except GibbsGroundError as exc:
        raise ConfigError(f"invalid caps: {exc}") from exc

    lat_raw = doc.get("lattice")
    _require(isinstance(lat_raw, dict), "missing required object 'lattice'")
    _require_known(lat_raw, "lattice", ["d", "L"])
    d = _get(lat_raw, "d", int, "lattice", required=True)
    side = _get(lat_raw, "L", int, "lattice", required=True)
    try:
        lattice = build_hypercube(d, side, site_cap=caps.lattice_sites)
    except GibbsGroundError as exc:
        raise ConfigError(f"invalid lattice: {exc}") from exc

    potential_raw = doc.get("potential")
    couplings_raw = doc.get("couplings")
    _require(couplings_raw is not None, "missing required object 'couplings'")
    if isinstance(couplings_raw, dict) and couplings_raw.get("preset") == "xxz":
        if potential_raw is None:
            potential_raw = {"preset": "linear-height"}
        _require(
            isinstance(potential_raw, dict) and potential_raw.get("preset") == "linear-height",
            "the 'xxz' preset requires the 'linear-height' potential",
        )
    table = _parse_couplings(couplings_raw, lattice)
    potential = _parse_potential(potential_raw, lattice)

    _require(
        ("alpha" in doc) != ("alphas" in doc),
        "exactly one of 'alpha' or 'alphas' is required",
    )
    if "alpha" in doc:
        alphas = [_get(doc, "alpha", float, "config", required=True)]
    else:
        raw_alphas = doc["alphas"]
        _require(
            isinstance(raw_alphas, list) and raw_alphas,
            "field 'alphas' must be a nonempty list",
        )
        alphas = []
        for k, a in enumerate(raw_alphas):
            _require(
                isinstance(a, (int, float)) and not isinstance(a, bool),
                f"field 'alphas[{k}]' must be a number",
            )
            alphas.append(float(a))
    for a in alphas:
        # NaN and Infinity fail the chained comparison too
        _require(
            0 <= a < float("inf"), f"alpha values must be finite and nonnegative, got {a}"
        )

    pairs = []
    for k, pair in enumerate(doc.get("pairs", [])):
        where = f"pairs[{k}]"
        _require(
            isinstance(pair, list) and len(pair) == 2,
            f"field '{where}' must be a two-element list",
        )
        x, y = _site_list(pair, where, lattice.n_sites)
        _require(x != y, f"field '{where}' repeats a site")
        pairs.append((x, y))

    mc_raw = doc.get("mc", {})
    _require(isinstance(mc_raw, dict), "field 'mc' must be an object")
    _require_known(mc_raw, "mc", ["sweeps", "burn_in", "seed"])
    sweeps = _get(mc_raw, "sweeps", int, "mc", 20000)
    burn_in = _get(mc_raw, "burn_in", int, "mc", None)
    mc_seed = _seed(_get(mc_raw, "seed", int, "mc", 0), "field 'mc.seed'")
    # the batch-means standard error needs at least two sweeps (two batches)
    _require(sweeps >= 2, "field 'mc.sweeps' must be at least 2")
    _require(burn_in is None or burn_in >= 0, "field 'mc.burn_in' must be nonnegative")

    checks_raw = doc.get("checks", {})
    _require(isinstance(checks_raw, dict), "field 'checks' must be an object")
    _require_known(checks_raw, "checks", ["trials", "seed"])
    check_trials = _get(checks_raw, "trials", int, "checks", 20)
    checks_seed = _seed(_get(checks_raw, "seed", int, "checks", 0), "field 'checks.seed'")
    _require(check_trials >= 1, "field 'checks.trials' must be at least 1")

    return RunConfig(
        lattice=lattice,
        table=table,
        potential=potential,
        alphas=alphas,
        pairs=pairs,
        sweeps=sweeps,
        burn_in=burn_in,
        mc_seed=mc_seed,
        check_trials=check_trials,
        check_seed=checks_seed,
        caps=caps,
    )


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload) -> None:
    """Strict JSON (RFC 8259): NumericRangeError, before the file is
    opened, when the payload holds a NaN or an infinity."""
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericRangeError(f"{path.name} would hold a non-finite number") from exc
    path.write_text(text + "\n")


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    """The rows as CSV; NumericRangeError, before the file is opened, when
    a cell would read nan or inf."""
    for row in rows:
        for column in columns:
            value = row[column]
            if isinstance(value, float) and not math.isfinite(value):
                raise NumericRangeError(f"{path.name} would hold {value} in column '{column}'")
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _model(config: RunConfig, alpha: float) -> ModelInstance:
    return ModelInstance(
        lattice=config.lattice,
        table=config.table,
        potential=config.potential,
        alpha=alpha,
        caps=config.caps,
    )


def _cmd_build(config: RunConfig, out: Path) -> int:
    from .verify import TWO_PATH_RTOL, groundstate_hypotheses
    hypotheses = groundstate_hypotheses(config.table, cap=config.caps.enumeration_sites)
    warnings = []
    if hypotheses.odd_entries:
        warnings.append("ground-state hypotheses violated: odd y-sets present")
    if hypotheses.positive_couplings:
        warnings.append("ground-state hypotheses violated: positive diagonal couplings")
    payload = {
        "command": "build",
        "schema": SCHEMA_VERSION,
        "lattice": {
            "d": config.lattice.dimension,
            "L": config.lattice.side,
            "n_sites": config.lattice.n_sites,
        },
        "alphas": config.alphas,
        "couplings": {
            "entries": len(config.table.entries),
            "odd_y_sets": [list(e[:2]) for e in hypotheses.odd_entries],
        },
        "potential_terms": len(config.potential.terms),
        "hypotheses_satisfied": hypotheses.satisfied,
        "warnings": warnings,
    }
    if config.lattice.n_sites <= config.caps.quantum_sites:
        matrices = []
        for alpha in config.alphas:
            model = _model(config, alpha)
            matrices.append(
                {
                    "alpha": alpha,
                    "dimension": model.h.dim,
                    "nnz": model.h.nnz,
                    "hermitian": bool(model.h.is_hermitian),
                    "h_norm_max": model.h.norm_max,
                    "two_route_gap": model.two_path_diff,
                    "two_route_tolerance": TWO_PATH_RTOL * model.h.norm_max,
                }
            )
        payload["matrices"] = matrices
    else:
        payload["matrices"] = None
        payload["warnings"].append(
            "matrix summary skipped: lattice above the quantum cap"
        )
    _write_json(out / "summary.json", payload)
    for line in warnings:
        print(f"warning: {line}")
    print(f"wrote {out / 'summary.json'}")
    return 0


def _cmd_verify(config: RunConfig, out: Path) -> int:
    from .verify import verify_model
    reports = [
        verify_model(
            _model(config, alpha),
            trials=config.check_trials,
            seed=config.check_seed,
            pairs=config.pairs or None,
        )
        for alpha in config.alphas
    ]
    all_passed = all(r.all_passed for r in reports)
    payload = {
        "command": "verify",
        "schema": SCHEMA_VERSION,
        "all_passed": all_passed,
        "reports": [r.to_payload() for r in reports],
    }
    _write_json(out / "report.json", payload)
    for report in reports:
        for record in report.records:
            status = "PASS" if record.passed else "FAIL"
            kind = "asserted" if record.asserted else "info"
            print(f"alpha={report.alpha:g} {record.name}: {status} ({kind})")
    print(f"wrote {out / 'report.json'}")
    return 0 if all_passed else 1


def _cmd_scan(file_name: str, columns: list[str], config: RunConfig, out: Path) -> int:
    """correlate and sweep: the order-parameter scan as CSV, in columns."""
    _require(bool(config.pairs), "field 'pairs' must be a nonempty list for sweep and correlate")
    rows = order_parameter_scan(
        config.potential,
        config.alphas,
        config.pairs,
        cap=config.caps.enumeration_sites,
        sweeps=config.sweeps,
        burn_in=config.burn_in,
        seed=config.mc_seed,
    )
    path = out / file_name
    _write_csv(path, columns, [{k: getattr(r, k) for k in columns} for r in rows])
    print(f"wrote {path}")
    return 0


def _cmd_sample(config: RunConfig, out: Path) -> int:
    burn_in = default_burn_in(config.sweeps, config.burn_in)
    results = []
    for alpha in config.alphas:
        fs = [squared_magnetization()] + [spin_product(x, y) for x, y in config.pairs]
        estimates, acceptance = metropolis_averages(
            fs, config.potential, alpha, sweeps=config.sweeps, burn_in=burn_in, seed=config.mc_seed
        )
        (mz_sq, mz_sq_se), pair_estimates = estimates[0], estimates[1:]
        results.append(
            {
                "alpha": alpha,
                "acceptance_rate": acceptance,
                "mz_sq": mz_sq,
                "mz_sq_se": mz_sq_se,
                "pairs": [
                    {"x": x, "y": y, "sz_sz": est, "sz_sz_se": se}
                    for (x, y), (est, se) in zip(config.pairs, pair_estimates)
                ],
            }
        )
    payload = {
        "command": "sample",
        "schema": SCHEMA_VERSION,
        "seed": config.mc_seed,
        "sweeps": config.sweeps,
        "burn_in": burn_in,
        "results": results,
    }
    _write_json(out / "samples.json", payload)
    print(f"wrote {out / 'samples.json'}")
    return 0


_COMMANDS = {
    "build": _cmd_build,
    "verify": _cmd_verify,
    "correlate": functools.partial(_cmd_scan, "correlations.csv", _CORRELATE_COLUMNS),
    "sweep": functools.partial(_cmd_scan, "sweep.csv", _SWEEP_COLUMNS),
    "sample": _cmd_sample,
}


def run(command: str, config: RunConfig, out_dir: str = ".") -> int:
    """Dispatch one command; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return _COMMANDS[command](config, out)


def main(argv: list[str] | None = None) -> int:
    caps = Caps()
    parser = argparse.ArgumentParser(
        prog="gibbs-ground",
        description=(
            "Build spin-1/2 lattice models with Boltzmann-amplitude ground "
            "states, verify their defining properties, and tabulate order "
            f"parameters. Default caps: {caps.quantum_sites} sites for operator "
            f"work, {caps.dense_sites} for dense eigensolves, "
            f"{caps.enumeration_sites} for exact Gibbs sums (configurable via "
            "the 'caps' config object)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("build", "model summary and hypothesis flags as JSON"),
        ("verify", "full check suite; exit 1 if any asserted check fails"),
        ("correlate", "two-point x/z correlations per pair as CSV"),
        ("sweep", "order-parameter table over the alpha grid as CSV"),
        ("sample", "Metropolis estimates with standard errors as JSON"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override all seeds")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        if args.seed is not None:
            config.mc_seed = config.check_seed = _seed(args.seed, "option '--seed'")
        return run(args.command, config, out_dir=args.out)
    except GibbsGroundError as exc:
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}, sort_keys=True),
            file=sys.stderr,
        )
        return 2
    except OSError as exc:  # the output directory or an artifact
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
