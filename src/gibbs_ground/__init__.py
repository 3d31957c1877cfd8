"""Spin-1/2 lattice models with Boltzmann-amplitude ground states.

Builders for the Hamiltonians, exact verification of their eigenstate,
ground-state, correlation-bound and classical-reduction properties, and
classical Gibbs machinery (exact enumeration and Metropolis sampling) for
the order parameters.

The names below are loaded from their submodules on first use (PEP 562),
so ``import gibbs_ground`` loads no numpy and changes no environment
variable: the CLI sets OPENBLAS_NUM_THREADS before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULE = {
    name: module
    for module, names in {
        "classical": [
            "ClassicalPotential",
            "ScanRow",
            "flip_weight",
            "order_parameter_scan",
            "partition_function",
            "spin_product",
            "squared_magnetization",
        ],
        "errors": [
            "ConfigError",
            "ConstraintError",
            "ConvergenceError",
            "GibbsGroundError",
            "InternalConsistencyError",
            "NonHermitianError",
            "NumericRangeError",
            "SizeCapError",
        ],
        "lattice": [
            "Caps",
            "Lattice",
            "build_hypercube",
            "mask_from_sites",
            "nearest_neighbor_pairs",
            "sites_from_mask",
        ],
        "models": [
            "CouplingTable",
            "DiagonalCoupling",
            "ModelInstance",
            "diagonal_couplings",
        ],
        "operators": ["OperatorMatrix", "apply", "product_operator"],
        "verify": [
            "CheckRecord",
            "HypothesisReport",
            "SpectralResult",
            "VerificationReport",
            "eigen_residual",
            "groundstate_hypotheses",
            "min_eigenvalue",
            "quantum_expectation",
            "sx_product_bound",
            "trial_vector_checks",
            "verify_model",
        ],
    }.items()
    for name in names
}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULE})
