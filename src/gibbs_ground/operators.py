"""Pauli algebra on the 2^n tensor-product space, indexed by spin bitmasks.

Basis vector m is the product state with spin -1 exactly at the sites whose
bit is set in m, so sigma^z_x is diagonal with entry +-1, sigma^x over a
site set A maps m to m XOR A, and sigma^y follows from
sigma^y = -i sigma^z sigma^x.  Every operator is a sum of flip terms
diag(d_C) X_[C], and OperatorMatrix holds exactly that: one complex vector
d_C per flip set C.  Norms and the Hermitian flag are computed from the
terms with numpy.  OperatorMatrix.row_table lays the same entries out row
by row; the product apply and the dense blocks of verify's eigensolver
both read it.  scipy is imported only for the CSR view OperatorMatrix.mat,
built on first access, which no command reads: it is the independent form
the product is tested against, and it needs scipy from the package's test
extra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .classical import monomial_signs
from .errors import ConstraintError, SizeCapError
from .lattice import Caps, Lattice

if TYPE_CHECKING:
    from scipy import sparse

# Relative tolerance (on the max-entry norm) for the computed Hermitian flag.
HERMITIAN_RTOL = 1e-14


@dataclass(eq=False)
class OperatorMatrix:
    """A complex operator on the 2^n tensor-product space, held as its flip
    terms sum_C diag(d_C) X_[C]: terms maps each flip set C to the complex
    vector d_C, whose entry d_C[m] sits at row m XOR C, column m.

    Everything the checks read (products, norms, the Hermitian flag) is
    computed from the terms with numpy; the scipy CSR form is built only
    when mat is first read, which no command does.
    """

    n_sites: int
    terms: dict[int, np.ndarray]

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @cached_property
    def nnz(self) -> int:
        """Number of nonzero entries."""
        return sum(int(np.count_nonzero(d)) for d in self.terms.values())

    @cached_property
    def norm_max(self) -> float:
        """Largest absolute entry (0 for the zero matrix, NaN if any entry is)."""
        return _largest(np.abs(d).max() for d in self.terms.values())

    @cached_property
    def is_real(self) -> bool:
        """True when every entry has a zero imaginary part."""
        return not any(d.imag.any() for d in self.terms.values())

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")  # an overflowing gap is inf: not Hermitian
    def is_hermitian(self) -> bool:
        """Computed flag: max |A - A^dagger| <= 1e-14 * norm_max.

        X_[C] is its own transpose, so A^dagger has the term conj(d_C[m XOR C])
        wherever A has d_C[m].
        """
        masks = all_masks(self.n_sites)
        gap = _largest(np.abs(d - d[masks ^ c].conj()).max() for c, d in self.terms.items())
        return gap <= HERMITIAN_RTOL * self.norm_max

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def is_reversal_symmetric(self) -> bool:
        """Computed flag: A commutes with the site reversal R, i -> n-1-i,
        to max |d_RC - d_C[R]| <= 1e-14 * norm_max, with RC a flip set of A
        for every flip set C (R A R has the term d_C[R] at RC)."""
        mirror = reversed_masks(self.n_sites)
        if any(int(mirror[c]) not in self.terms for c in self.terms):
            return False
        gaps = (np.abs(self.terms[int(mirror[c])] - d[mirror]).max() for c, d in self.terms.items())
        return _largest(gaps) <= HERMITIAN_RTOL * self.norm_max

    def __add__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Term-by-term sum; a term one side lacks reads as zeros."""
        _check_same_space(self, other)
        return OperatorMatrix(
            self.n_sites,
            {
                c: self.terms.get(c, 0) + other.terms.get(c, 0)
                for c in self.terms | other.terms
            },
        )

    def nonzero_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, values) of every nonzero entry, term by term:
        d_C[m] at row m XOR C, column m.  No two share a position."""
        rows, cols, vals = [], [], []
        for c, d in self.terms.items():
            nonzero = np.flatnonzero(d)
            rows.append(nonzero ^ c)
            cols.append(nonzero)
            vals.append(d[nonzero])
        if not rows:
            return np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, complex)
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    @cached_property
    def mat(self) -> sparse.csr_array:
        """Canonical CSR form of the nonzero entries, the tests' oracle for
        apply.  It imports scipy, which only the test extra installs; no
        command reads it."""
        from scipy import sparse

        rows, cols, vals = self.nonzero_entries()
        return sparse.coo_array(
            (vals, (rows, cols)), shape=(self.dim, self.dim)
        ).tocsr()

    @cached_property
    def row_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The row table (columns, entries), two (terms x dim) arrays: column
        m holds row m's columns m XOR C in ascending order and the entries
        found there, zeros included.  Entries are float64 when the operator
        is real, complex otherwise."""
        masks = all_masks(self.n_sites)
        flips = np.fromiter(self.terms, dtype=np.int64, count=len(self.terms))
        columns = masks[None, :] ^ flips[:, None]
        order = np.argsort(columns, axis=0)
        columns = np.take_along_axis(columns, order, axis=0)
        stacked = np.array([*self.terms.values()]).reshape(len(self.terms), self.dim)
        if self.is_real:
            stacked = stacked.real
        return columns, stacked[order, columns]


def _check_same_space(a: OperatorMatrix, b: OperatorMatrix):
    if a.n_sites != b.n_sites:
        raise ConstraintError(
            f"operators on {a.n_sites} and {b.n_sites} sites do not combine"
        )


def max_entry_diff(a: OperatorMatrix, b: OperatorMatrix) -> float:
    """Largest absolute entrywise difference of two operators, compared
    term by term (a term one side lacks reads as zeros)."""
    _check_same_space(a, b)
    return _largest(
        np.abs(a.terms.get(c, 0) - b.terms.get(c, 0)).max() for c in a.terms | b.terms
    )


def _largest(maxima) -> float:
    """The largest of per-term maxima, 0 for no terms.  numpy's maximum
    keeps a NaN wherever it sits; Python's max drops one after the first
    term."""
    return float(np.max(np.fromiter(maxima, dtype=float), initial=0.0))


def all_masks(n_sites: int) -> np.ndarray:
    return np.arange(1 << n_sites, dtype=np.int64)


def reversed_masks(n_sites: int) -> np.ndarray:
    """Every mask with its bits reversed, bit i moved to bit n-1-i: the
    site reversal of a chain, the point inversion of a hypercube."""
    masks = all_masks(n_sites)
    mirror = np.zeros_like(masks)
    for i in range(n_sites):
        mirror |= (masks >> i & 1) << (n_sites - 1 - i)
    return mirror


def flip_graph_labels(op: OperatorMatrix) -> np.ndarray:
    """Connected components of the flip graph of op, whose edges join m and
    m XOR C wherever either entry between them is nonzero.

    Min-label propagation along the edges, with pointer jumping between
    rounds, until no label moves; each label ends as the smallest mask of
    its component.
    """
    masks = all_masks(op.n_sites)
    edges = []
    for c, d in op.terms.items():
        if c:
            partner = masks ^ c
            linked = d != 0
            edges.append((partner, linked | linked[partner]))
    labels = masks
    while True:
        before = labels
        for partner, linked in edges:
            labels = np.where(linked, np.minimum(labels, labels[partner]), labels)
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]
        if np.array_equal(labels, before):
            return labels


def flip_operator(
    n_sites: int, terms: Sequence[tuple[int, np.ndarray]]
) -> OperatorMatrix:
    """The operator sum_C diag(d) X_[C] over (C, d) terms.

    Term (C, d) places d[m] at row m XOR C, column m, so C = 0 is a diagonal
    term.  Terms that share a C are summed in the order given; no terms
    give the zero operator.
    """
    summed: dict[int, np.ndarray] = {}
    for c, d in terms:
        d = np.asarray(d).astype(complex)
        summed[c] = summed[c] + d if c in summed else d
    return OperatorMatrix(n_sites, summed)


def _check_quantum_size(n_sites: int, cap: int = Caps.quantum_sites):
    if n_sites > cap:
        raise SizeCapError(
            f"quantum operators over {n_sites} sites exceed the quantum cap of {cap}"
        )


def _check_sites_mask(sites_mask: int, lattice: Lattice):
    if sites_mask < 0 or sites_mask > lattice.full_mask:
        raise ConstraintError(
            f"site mask {sites_mask:#x} outside a {lattice.n_sites}-site lattice"
        )


def product_operator(
    axis: int, sites_mask: int, lattice: Lattice, cap: int = Caps.quantum_sites
) -> OperatorMatrix:
    """Tensor product of one Pauli over a site set, identity elsewhere.

    axis 1 permutes basis states by XOR with the set, axis 3 is diagonal
    with the spin product over the set, and axis 2 combines both with the
    phase i^|A| from sigma^y = -i sigma^z sigma^x applied per site.  Raises
    SizeCapError above cap sites.
    """
    n = lattice.n_sites
    _check_quantum_size(n, cap)
    _check_sites_mask(sites_mask, lattice)
    if axis not in (1, 2, 3):
        raise ConstraintError(f"Pauli axis must be 1, 2 or 3, got {axis}")
    if axis == 1:
        return flip_operator(n, [(sites_mask, np.ones(1 << n))])
    signs = monomial_signs(all_masks(n), [sites_mask])[0]
    if axis == 3:
        return flip_operator(n, [(0, signs)])
    return flip_operator(n, [(sites_mask, 1j ** sites_mask.bit_count() * signs)])


def apply(op: OperatorMatrix, vector: np.ndarray) -> np.ndarray:
    """Matrix-vector product from the row table,

        out[m] = sum_C d_C[m XOR C] v[m XOR C],

    each row summed in ascending column order; the result is complex.
    """
    vector = np.asarray(vector)
    if vector.shape != (op.dim,):
        raise ConstraintError(
            f"vector of shape {vector.shape} does not match operator dimension {op.dim}"
        )
    columns, entries = op.row_table
    return (entries * vector[columns]).sum(axis=0).astype(complex, copy=False)
