"""Pauli algebra on the 2^n tensor-product space, indexed by spin bitmasks.

Basis vector m is the product state with spin -1 exactly at the sites whose
bit is set in m, so sigma^z_x is diagonal with entry +-1, sigma^x over a
site set A maps m to m XOR A, and sigma^y follows from
sigma^y = -i sigma^z sigma^x.  All operators are stored as sparse complex
CSR matrices holding only structurally nonzero entries.  scipy.sparse is
imported where an operator is built, so importing this module (and the
classical commands that never build one) does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .classical import ClassicalPotential, Functional, monomial_signs, spins_from_masks
from .errors import ConstraintError, SizeCapError
from .lattice import Lattice

if TYPE_CHECKING:
    from scipy import sparse

# Operators above 14 sites (dimension 16384) are out of desk range.
QUANTUM_SITE_CAP = 14

# Relative tolerance (on the max-entry norm) for the computed Hermitian flag.
HERMITIAN_RTOL = 1e-14

_PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: int) -> np.ndarray:
    """The 2x2 Pauli matrix for axis 1 (x), 2 (y) or 3 (z)."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ConstraintError(f"Pauli axis must be 1, 2 or 3, got {axis}") from None


@dataclass
class OperatorMatrix:
    """A sparse complex operator on the 2^n tensor-product space."""

    mat: sparse.csr_array

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @cached_property
    def norm_max(self) -> float:
        """Largest absolute entry (0 for the zero matrix)."""
        if self.mat.nnz == 0:
            return 0.0
        return float(np.abs(self.mat.data).max())

    @cached_property
    def is_hermitian(self) -> bool:
        """Computed flag: max |A - A^dagger| <= 1e-14 * norm_max."""
        diff = (self.mat - self.mat.conj().T).tocoo()
        if diff.nnz == 0:
            return True
        return float(np.abs(diff.data).max()) <= HERMITIAN_RTOL * self.norm_max

    def apply(self, vector: np.ndarray) -> np.ndarray:
        return apply(self, vector)

    def to_dense(self) -> np.ndarray:
        return self.mat.toarray()

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.mat + other.mat)

    def __sub__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        return OperatorMatrix(self.mat - other.mat)


def max_entry_diff(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Largest absolute entrywise difference of two operators."""
    diff = (a.mat - b.mat).tocoo()
    if diff.nnz == 0:
        return 0.0
    return float(np.abs(diff.data).max())


def all_masks(n_sites: int) -> np.ndarray:
    return np.arange(1 << n_sites, dtype=np.int64)


def parity_signs(masks: np.ndarray, subset_mask: int) -> np.ndarray:
    """(-1)^(number of set bits of m & subset) for each mask m, as float64."""
    return monomial_signs(masks, [subset_mask])[0].astype(np.float64)


def _check_quantum_size(n_sites: int, cap: int = QUANTUM_SITE_CAP):
    if n_sites > cap:
        raise SizeCapError(
            f"quantum operators over {n_sites} sites exceed the cap of {cap}"
        )


def _check_sites_mask(sites_mask: int, lattice: Lattice):
    if sites_mask < 0 or sites_mask > lattice.full_mask:
        raise ConstraintError(
            f"site mask {sites_mask:#x} outside a {lattice.n_sites}-site lattice"
        )


def basis_vector(config: int, n_sites: int) -> np.ndarray:
    """The tensor-product basis vector of a configuration bitmask."""
    _check_quantum_size(n_sites)
    if config < 0 or config >= (1 << n_sites):
        raise ConstraintError(f"configuration {config:#x} outside {n_sites} sites")
    v = np.zeros(1 << n_sites, dtype=complex)
    v[config] = 1.0
    return v


def product_operator(
    axis: int, sites_mask: int, lattice: Lattice, cap: int = QUANTUM_SITE_CAP
) -> OperatorMatrix:
    """Tensor product of one Pauli over a site set, identity elsewhere.

    axis 1 permutes basis states by XOR with the set, axis 3 is diagonal
    with the spin product over the set, and axis 2 combines both with the
    phase i^|A| from sigma^y = -i sigma^z sigma^x applied per site.  Raises
    SizeCapError above cap sites.
    """
    from scipy import sparse

    n = lattice.n_sites
    _check_quantum_size(n, cap)
    _check_sites_mask(sites_mask, lattice)
    if axis not in (1, 2, 3):
        raise ConstraintError(f"Pauli axis must be 1, 2 or 3, got {axis}")
    dim = 1 << n
    masks = all_masks(n)
    if axis == 3:
        rows = masks
        vals = parity_signs(masks, sites_mask).astype(complex)
    else:
        rows = masks ^ sites_mask
        if axis == 1:
            vals = np.ones(dim, dtype=complex)
        else:
            phase = 1j ** sites_mask.bit_count()
            vals = phase * parity_signs(masks, sites_mask)
    mat = sparse.csr_array(
        sparse.coo_array((vals, (rows, masks)), shape=(dim, dim))
    )
    return OperatorMatrix(mat)


def _eigsh(*args, **kwargs):
    """scipy.sparse.linalg.eigsh, imported on first call."""
    from scipy.sparse.linalg import eigsh

    return eigsh(*args, **kwargs)


def diagonal_from_values(values: np.ndarray) -> OperatorMatrix:
    """Diagonal operator from a dense vector of per-configuration values."""
    from scipy import sparse

    vals = np.asarray(values, dtype=complex)
    return OperatorMatrix(sparse.diags_array(vals, format="csr"))


def diagonal_operator(g: Functional, lattice: Lattice) -> OperatorMatrix:
    """Diagonal operator with entry g(s) at the basis index of s."""
    n = lattice.n_sites
    _check_quantum_size(n)
    spins = spins_from_masks(all_masks(n), n)
    values = np.asarray(g(spins), dtype=complex)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ConstraintError(
            f"diagonal observable is not finite at configuration mask {int(bad[0]):#x}"
        )
    return diagonal_from_values(values)


def apply(op: OperatorMatrix, vector: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product."""
    vector = np.asarray(vector)
    if vector.shape != (op.dim,):
        raise ConstraintError(
            f"vector of shape {vector.shape} does not match operator dimension {op.dim}"
        )
    return op.mat @ vector


def weighted_inner_product(
    f: np.ndarray,
    g: np.ndarray,
    potential: ClassicalPotential,
    alpha: float,
) -> complex:
    """Boltzmann-weighted inner product sum_s e^{-alpha U(s)} conj(f_s) g_s."""
    n = potential.n_sites
    dim = 1 << n
    f = np.asarray(f)
    g = np.asarray(g)
    if f.shape != (dim,) or g.shape != (dim,):
        raise ConstraintError("vector dimensions do not match the potential's lattice")
    energies = potential.value_many(spins_from_masks(all_masks(n), n))
    weights = np.exp(-alpha * energies)
    return complex(np.sum(weights * np.conj(f) * g))
