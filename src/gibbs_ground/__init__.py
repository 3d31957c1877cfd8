"""Spin-1/2 lattice models with Boltzmann-amplitude ground states.

Builders for the Hamiltonians, exact verification of their eigenstate,
ground-state, correlation-bound and classical-reduction properties, and
classical Gibbs machinery (exact enumeration and Metropolis sampling) for
the order parameters.
"""

__version__ = "0.1.0"

from .classical import (
    ClassicalPotential,
    ScanRow,
    classical_expectation,
    flip_weight,
    order_parameter_scan,
    partition_function,
    spin_product,
    squared_magnetization,
)
from .errors import (
    ConfigError,
    ConstraintError,
    ConvergenceError,
    GibbsGroundError,
    InternalConsistencyError,
    NonHermitianError,
    NumericRangeError,
    SizeCapError,
    UnsupportedModelError,
)
from .lattice import (
    Caps,
    Lattice,
    build_hypercube,
    linear_height,
    mask_from_sites,
    nearest_neighbor_pairs,
    sites_from_mask,
)
from .models import (
    CouplingTable,
    DiagonalCoupling,
    ModelInstance,
    diagonal_couplings,
    xxz_diagonal,
    xxz_hamiltonian,
    xxz_site_field,
)
from .operators import OperatorMatrix, apply, product_operator
from .verify import (
    CheckRecord,
    HypothesisReport,
    SpectralResult,
    VerificationReport,
    dirichlet_form_check,
    eigen_residual,
    groundstate_hypotheses,
    min_eigenvalue,
    quantum_expectation,
    reversibility_check,
    sx_product_bound,
    verify_model,
)
