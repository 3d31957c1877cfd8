"""In-memory spans around the library's layers, and the per-layer metrics.

Run as a script, this is the traced counterpart of one CLI command: it
wraps the layer functions, then calls ``gibbs_ground.cli.parse_config`` and
``gibbs_ground.cli.run`` in-process exactly as ``gibbs-ground`` would, and
writes the spans as JSON:

    PYTHONPATH=src python3 perfbench/spans.py COMMAND --config CFG --out DIR \\
        --seed N --spans SPANS.json

Spans are recorded only by the wrappers installed here, never by the
library.  The wrapped functions are the public functions of the
``classical``, ``operators``, ``models`` and ``verify`` modules (replaced in
every ``gibbs_ground`` module namespace that imports them), the public
methods of the classes those modules define, and ``models._flip_form_h``,
the second Hamiltonian assembly route.  The tracer assumes one thread, which
is what the CLI uses unless ``--threads`` is given.

The analysis half (``self_times``, ``layer_metrics``) needs no third-party
module, so ``run.py`` imports it without importing the package.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
import types
from pathlib import Path

LAYERS = ("classical", "operators", "models", "verify")
PRIVATE_SPANS = {"models": ("_flip_form_h",)}

ENUMERATION = ("classical.gibbs_averages", "classical.partition_function", "classical.classical_expectation")
ENERGY = ("classical.ClassicalPotential.value_many", "classical.ClassicalPotential.flip_energy_many")
BUILD_H = ("models.build_h", "models.build_h0", "models.build_v", "models._flip_form_h")
ESTIMATE = ("classical.estimate_from_samples", "classical.metropolis_estimate")
SPECTRAL = "verify.min_eigenvalue"
SCAN = "verify.order_parameter_scan"


# ---------------------------------------------------------------------------
# Counters read from a span's arguments and result
# ---------------------------------------------------------------------------


def _rows_of_arg(index):
    return lambda args, kwargs, result: {"rows": len(args[index])}


def _enumerated(args, kwargs, result):
    potential = next(a for a in args if hasattr(a, "terms") and hasattr(a, "n_sites"))
    return {"configs": 1 << potential.n_sites}


def _metropolis(args, kwargs, result):
    proposals = (kwargs["burn_in"] + kwargs["sweeps"]) * args[0].n_sites
    return {"proposals": proposals, "accepted": round(result[1] * proposals)}


def _eigensolver(args, kwargs, result):
    mat = args[0].mat
    itemsize = mat.data.itemsize
    if result.method == "dense":
        computed_bytes = mat.shape[0] ** 2 * itemsize
    else:
        computed_bytes = mat.nnz * (itemsize + mat.indices.itemsize)
    return {"dim": mat.shape[0], "method": result.method, "computed_bytes": computed_bytes}


def _hamiltonian(args, kwargs, result):
    mat = result.mat
    return {
        "nnz": int(mat.nnz),
        "computed_bytes": int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes),
    }


COUNTERS = {
    "classical.spins_from_masks": _rows_of_arg(0),
    "classical.ClassicalPotential.value_many": _rows_of_arg(1),
    "classical.ClassicalPotential.flip_energy_many": _rows_of_arg(1),
    "classical.gibbs_averages": _enumerated,
    "classical.partition_function": _enumerated,
    "classical.classical_expectation": _enumerated,
    "classical.metropolis_samples": _metropolis,
    SPECTRAL: _eigensolver,
    "models.build_h": _hamiltonian,
}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class Tracer:
    """Records [name, start, end, parent index, counters] per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            record = [name, time.perf_counter(), None, parent, {}]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                record[4].update(counter(args, kwargs, result))
            return result

        return traced

    def count(self, key: str, amount: int = 1):
        """Add to a counter of the innermost open span."""
        if self._stack:
            counters = self.spans[self._stack[-1]][4]
            counters[key] = counters.get(key, 0) + amount

    def install(self):
        """Wrap the layer functions in every loaded gibbs_ground namespace."""
        import importlib

        importlib.import_module("gibbs_ground.cli")
        modules = {layer: importlib.import_module(f"gibbs_ground.{layer}") for layer in LAYERS}
        namespaces = [m for k, m in sys.modules.items() if k.split(".")[0] == "gibbs_ground"]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and (
                    not attr.startswith("_") or attr in PRIVATE_SPANS.get(layer, ())
                ):
                    wrapped = self.wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, wrapped)
                elif isinstance(obj, type):
                    for meth, fn in list(vars(obj).items()):
                        if isinstance(fn, types.FunctionType) and not meth.startswith("_"):
                            setattr(obj, meth, self.wrap(f"{layer}.{attr}.{meth}", fn))
        self._count_matvecs(modules["verify"])

    def _count_matvecs(self, verify_module):
        """Route the Lanczos solver's products through a counting operator.

        The operator forwards each product to the same sparse matrix, so the
        solver sees the same arithmetic; the benchmark checks that the
        traced artifacts are byte-identical to the untraced ones.
        """
        eigsh = getattr(verify_module, "eigsh", None)
        if eigsh is None:
            return
        from scipy.sparse.linalg import LinearOperator

        @functools.wraps(eigsh)
        def counted(A, *args, **kwargs):
            def matvec(x):
                self.count("lanczos_matvecs")
                return A @ x

            op = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
            return eigsh(op, *args, **kwargs)

        verify_module.eigsh = counted


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _outermost(spans, index, names) -> bool:
    """True when no ancestor of the span has a name in ``names``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return False
        parent = spans[parent][3]
    return True


def layer_metrics(spans: list[list], n_sites: int, n_alphas: int) -> dict[str, float]:
    """Per-layer metrics of one traced command (see BENCHMARK.json)."""
    own = self_times(spans)

    def self_sum(match) -> float:
        return sum(t for span, t in zip(spans, own) if match(span[0]))

    def counter_sum(names, key) -> int:
        return sum(span[4].get(key, 0) for span in spans if span[0] in names)

    def outermost(names) -> list[list]:
        return [s for i, s in enumerate(spans) if s[0] in names and _outermost(spans, i, names)]

    def inclusive(names) -> float:
        return sum(span[2] - span[1] for span in outermost(names))

    enum_time = inclusive(ENUMERATION)
    enum_configs = sum(span[4].get("configs", 0) for span in outermost(ENUMERATION))
    mc_time = inclusive(("classical.metropolis_samples",))
    proposals = counter_sum(("classical.metropolis_samples",), "proposals")
    accepted = counter_sum(("classical.metropolis_samples",), "accepted")
    energy_rows = counter_sum(ENERGY, "rows")
    value_rows = counter_sum(("classical.ClassicalPotential.value_many",), "rows")
    covered_by_library = sum(
        span[2] - span[1] for span in spans if span[3] >= 0 and spans[span[3]][0] == "cli.run"
    )
    return {
        "cli.parse_config_s": inclusive(("cli.parse_config",)),
        "cli.self_s": inclusive(("cli.run",)) - covered_by_library,
        "verify.min_eigenvalue_s": self_sum(lambda n: n == SPECTRAL),
        "verify.eigensolver_dim": max(
            [span[4]["dim"] for span in spans if span[0] == SPECTRAL], default=0
        ),
        "verify.eigensolver_bytes": counter_sum((SPECTRAL,), "computed_bytes"),
        "verify.lanczos_matvecs": counter_sum((SPECTRAL,), "lanczos_matvecs"),
        "verify.checks_s": self_sum(
            lambda n: n.startswith("verify.") and n not in (SPECTRAL, SCAN)
        ),
        "verify.order_parameter_scan_s": self_sum(lambda n: n == SCAN),
        "models.build_h_s": self_sum(lambda n: n in BUILD_H),
        "models.conjugate_hamiltonian_s": self_sum(lambda n: n == "models.conjugate_hamiltonian"),
        "models.other_s": self_sum(
            lambda n: n.startswith("models.")
            and n not in BUILD_H
            and n != "models.conjugate_hamiltonian"
        ),
        "models.h_nnz": max(
            [span[4]["nnz"] for span in spans if span[0] == "models.build_h"], default=0
        ),
        "models.h_bytes": max(
            [span[4]["computed_bytes"] for span in spans if span[0] == "models.build_h"],
            default=0,
        ),
        "operators.s": self_sum(lambda n: n.startswith("operators.")),
        "classical.enumeration_s": self_sum(lambda n: n in ENUMERATION),
        "classical.decode_s": self_sum(lambda n: n == "classical.spins_from_masks"),
        "classical.decoded_configs": counter_sum(("classical.spins_from_masks",), "rows"),
        "classical.energy_s": self_sum(lambda n: n in ENERGY),
        "classical.energy_rows": energy_rows,
        "classical.enum_configs_per_s": enum_configs / enum_time if enum_time else 0.0,
        "classical.enum_passes": value_rows / ((1 << n_sites) * n_alphas),
        "classical.metropolis_s": self_sum(lambda n: n == "classical.metropolis_samples"),
        "classical.flips_per_s": proposals / mc_time if mc_time else 0.0,
        "classical.acceptance": accepted / proposals if proposals else 0.0,
        "classical.estimate_s": self_sum(lambda n: n in ESTIMATE),
    }


# Self-time groups compared to name the layer that dominates a command.
DOMINANCE_GROUPS = {
    "verify.min_eigenvalue": ("verify.min_eigenvalue_s",),
    "verify.checks": ("verify.checks_s",),
    "verify.order_parameter_scan": ("verify.order_parameter_scan_s",),
    "models": ("models.build_h_s", "models.conjugate_hamiltonian_s", "models.other_s"),
    "operators": ("operators.s",),
    "classical.enumeration": ("classical.enumeration_s", "classical.decode_s", "classical.energy_s"),
    "classical.metropolis": ("classical.metropolis_s",),
    "classical.estimate": ("classical.estimate_s",),
    "cli": ("cli.parse_config_s", "cli.self_s"),
}


def dominant_layer(metrics: dict[str, float]) -> str:
    return max(DOMINANCE_GROUPS, key=lambda g: sum(metrics[m] for m in DOMINANCE_GROUPS[g]))


def self_time_by_span(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, t in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + t
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


# ---------------------------------------------------------------------------
# Traced command
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gibbs-ground command with layer spans.")
    parser.add_argument("command")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", required=True, help="where to write the spans as JSON")
    args = parser.parse_args(argv)

    tracer = Tracer()
    tracer.install()
    from gibbs_ground import cli

    text = Path(args.config).read_text()
    config = tracer.wrap("cli.parse_config", cli.parse_config)(text)
    config.mc_seed = args.seed
    config.check_seed = args.seed
    status = tracer.wrap("cli.run", cli.run)(args.command, config, out_dir=args.out)
    Path(args.spans).write_text(json.dumps({"spans": tracer.spans}))
    return status


if __name__ == "__main__":
    sys.exit(main())
