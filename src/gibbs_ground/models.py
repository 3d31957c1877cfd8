"""Hamiltonian and state builders for models with Boltzmann-amplitude eigenstates.

A model is specified by a coupling table of disjoint site-set pairs (A, B)
with real weights phi, a classical potential U, and a nonnegative alpha.
The off-diagonal part pairs x-Paulis on A with y-Paulis on B,

    H0 = sum phi(A, B) * X_[A] Y_[B],

and each union set C = A | B carries a diagonal coupling built from all
table entries whose union is C,

    J_C(s) = sum_{B subset C} (-i)^|B| phi(C \\ B, B) prod_{x in B} s_x,

so that H0 = sum_C J_C(sigma^z) X_[C].  The diagonal part

    V(s) = -sum_C J_C(s) exp(-(alpha/2) W_C(s))

makes the Boltzmann-amplitude vector Psi(s) = exp(-(alpha/2) U(s)) an exact
null eigenvector of H = H0 + V: acting on Psi, the flip term of each union
set cancels its own diagonal term configuration by configuration.

Every assembly here is double-checked against an independent second route
(flip form vs. H0 + V, direct action vs. similarity transform), and a
mismatch raises InternalConsistencyError.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .classical import (
    ENUMERATION_CAP,
    ClassicalPotential,
    partition_function,
    spins_from_masks,
)
from .errors import ConstraintError, InternalConsistencyError, UnsupportedModelError
from .lattice import Lattice, nearest_neighbor_pairs, sites_from_mask
from .operators import (
    QUANTUM_SITE_CAP,
    OperatorMatrix,
    all_masks,
    diagonal_from_values,
    max_entry_diff,
    parity_signs,
    _check_quantum_size,
)

# Two independent assemblies of the same Hamiltonian must agree to this
# fraction of the largest entry.
TWO_PATH_RTOL = 1e-12

# The conjugated form involves exponential reweighting, so its two routes
# are compared at a slightly looser tolerance.
CONJUGATE_RTOL = 1e-10


@dataclass(frozen=True)
class CouplingTable:
    """Weights phi over disjoint site-set pairs; entries are
    (x-set mask, y-set mask, phi) and the two masks must not overlap."""

    n_sites: int
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        seen = set()
        top = 1 << self.n_sites
        for a, b, phi in self.entries:
            if a < 0 or a >= top or b < 0 or b >= top:
                raise ConstraintError(
                    f"coupling entry ({a:#x}, {b:#x}) outside {self.n_sites} sites"
                )
            if a & b:
                raise ConstraintError(
                    f"coupling entry ({a:#x}, {b:#x}) has overlapping site sets"
                )
            if (a, b) in seen:
                raise ConstraintError(f"duplicate coupling entry ({a:#x}, {b:#x})")
            seen.add((a, b))
            if not math.isfinite(phi):
                raise ConstraintError(f"non-finite phi for entry ({a:#x}, {b:#x})")

    @classmethod
    def from_site_lists(
        cls,
        n_sites: int,
        entries: Iterable[tuple[Iterable[int], Iterable[int], float]],
    ) -> "CouplingTable":
        packed = []
        for a_sites, b_sites, phi in entries:
            a = 0
            for s in a_sites:
                a |= 1 << s
            b = 0
            for s in b_sites:
                b |= 1 << s
            packed.append((a, b, float(phi)))
        return cls(n_sites=n_sites, entries=tuple(packed))

    @classmethod
    def xx_nearest_neighbor(cls, lattice: Lattice, coupling: float) -> "CouplingTable":
        """XX exchange on every nearest-neighbor pair: for each pair {x, y}
        one X_x X_y entry and one Y_x Y_y entry, both with weight coupling."""
        entries = []
        for x, y in nearest_neighbor_pairs(lattice):
            pair = (1 << x) | (1 << y)
            entries.append((pair, 0, float(coupling)))
            entries.append((0, pair, float(coupling)))
        return cls(n_sites=lattice.n_sites, entries=tuple(entries))

    @property
    def odd_entries(self) -> tuple[tuple[int, int, float], ...]:
        """Entries whose y-set has odd size (they make couplings complex)."""
        return tuple(
            (a, b, phi)
            for a, b, phi in self.entries
            if b.bit_count() & 1 and phi != 0.0
        )


@dataclass(frozen=True)
class DiagonalCoupling:
    """The diagonal coupling of one union set: J(s) = sum_k c_k prod_{x in B_k} s_x
    with complex c_k = (-i)^|B_k| phi_k.  Depends only on spins inside the set."""

    sites_mask: int
    terms: tuple[tuple[int, complex], ...]  # (y-set mask, coefficient)

    @property
    def is_real(self) -> bool:
        return all(not (b.bit_count() & 1) for b, _ in self.terms)

    def values(self, spins: np.ndarray) -> np.ndarray:
        """Evaluate J on a (nconf, n) spins array; complex output."""
        out = np.zeros(spins.shape[0], dtype=complex)
        for b_mask, coeff in self.terms:
            sites = sites_from_mask(b_mask)
            if sites:
                out += coeff * np.prod(spins[:, list(sites)], axis=1)
            else:
                out += coeff
        return out

    def restricted_values(self) -> np.ndarray:
        """J over all 2^|C| assignments of its own sites (other spins moot)."""
        members = sites_from_mask(self.sites_mask)
        k = len(members)
        local = np.arange(1 << k, dtype=np.uint64)
        masks = np.zeros(1 << k, dtype=np.uint64)
        for j, site in enumerate(members):
            masks |= ((local >> np.uint64(j)) & np.uint64(1)) << np.uint64(site)
        n_needed = (max(members) + 1) if members else 1
        return self.values(spins_from_masks(masks, n_needed))


def diagonal_couplings(table: CouplingTable) -> tuple[DiagonalCoupling, ...]:
    """Group table entries by union set and attach the (-i)^|B| phases."""
    grouped: dict[int, list[tuple[int, complex]]] = {}
    for a, b, phi in table.entries:
        union = a | b
        coeff = (-1j) ** b.bit_count() * phi
        grouped.setdefault(union, []).append((b, coeff))
    return tuple(
        DiagonalCoupling(sites_mask=union, terms=tuple(sorted(terms, key=lambda t: t[0])))
        for union, terms in sorted(grouped.items())
    )


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


def build_h0(
    table: CouplingTable, lattice: Lattice, cap: int = QUANTUM_SITE_CAP
) -> OperatorMatrix:
    """Off-diagonal part sum phi(A, B) X_[A] Y_[B].

    On basis state m each entry contributes phi * i^|B| * sign_B(m) at row
    m XOR (A | B); the Hermitian flag on the result is computed, never assumed.
    Raises SizeCapError above cap sites, as do the other builders here.
    """
    n = _common_size(table.n_sites, lattice, cap=cap)
    dim = 1 << n
    masks = all_masks(n)
    rows, cols, vals = [], [], []
    for a, b, phi in table.entries:
        union = a | b
        rows.append(masks ^ union)
        cols.append(masks)
        vals.append(phi * (1j ** b.bit_count()) * parity_signs(masks, b))
    return _from_triplets(rows, cols, vals, dim)


def offdiagonal_from_couplings(
    table: CouplingTable, lattice: Lattice, cap: int = QUANTUM_SITE_CAP
) -> OperatorMatrix:
    """Second route to the off-diagonal part, sum_C J_C(sigma^z) X_[C]."""
    n = _common_size(table.n_sites, lattice, cap=cap)
    dim = 1 << n
    masks = all_masks(n)
    spins = spins_from_masks(masks, n)
    rows, cols, vals = [], [], []
    for coupling in diagonal_couplings(table):
        j_vals = coupling.values(spins)
        flipped = masks ^ coupling.sites_mask
        rows.append(flipped)
        cols.append(masks)
        vals.append(j_vals[flipped])
    return _from_triplets(rows, cols, vals, dim)


def build_v(
    table: CouplingTable,
    potential: ClassicalPotential,
    alpha: float,
    lattice: Lattice,
    cap: int = QUANTUM_SITE_CAP,
) -> OperatorMatrix:
    """Diagonal part with entry -sum_C J_C(s) exp(-(alpha/2) W_C(s)) at s."""
    n = _common_size(table.n_sites, lattice, potential.n_sites, cap=cap)
    masks = all_masks(n)
    spins = spins_from_masks(masks, n)
    diag = np.zeros(1 << n, dtype=complex)
    for coupling in diagonal_couplings(table):
        weights = np.exp(
            -0.5 * alpha * potential.flip_energy_many(spins, coupling.sites_mask)
        )
        diag -= coupling.values(spins) * weights
    return diagonal_from_values(diag)


def _flip_form_h(
    table: CouplingTable,
    potential: ClassicalPotential,
    alpha: float,
    lattice: Lattice,
    cap: int = QUANTUM_SITE_CAP,
) -> OperatorMatrix:
    """Independent route to H: sum over nonempty union sets of
    J_C(sigma^z) (X_[C] - exp(-(alpha/2) W_C(sigma^z)))."""
    n = _common_size(table.n_sites, lattice, potential.n_sites, cap=cap)
    dim = 1 << n
    masks = all_masks(n)
    spins = spins_from_masks(masks, n)
    rows, cols, vals = [], [], []
    diag = np.zeros(dim, dtype=complex)
    for coupling in diagonal_couplings(table):
        if coupling.sites_mask == 0:
            continue
        j_vals = coupling.values(spins)
        flipped = masks ^ coupling.sites_mask
        rows.append(flipped)
        cols.append(masks)
        vals.append(j_vals[flipped])
        weights = np.exp(
            -0.5 * alpha * potential.flip_energy_many(spins, coupling.sites_mask)
        )
        diag -= j_vals * weights
    return _from_triplets(rows, cols, vals, dim) + diagonal_from_values(diag)


def build_h(model: "ModelInstance") -> OperatorMatrix:
    """Full Hamiltonian H = H0 + V, cross-checked entrywise against the
    flip-form assembly; disagreement beyond 1e-12 * |H|_max is a builder bug."""
    h = model.h0 + model.v
    other = _flip_form_h(
        model.table, model.potential, model.alpha, model.lattice, cap=model.quantum_cap
    )
    diff = max_entry_diff(h, other)
    tol = TWO_PATH_RTOL * h.norm_max
    if diff > tol:
        raise InternalConsistencyError(
            f"two Hamiltonian assemblies disagree by {diff:.3e} (tolerance {tol:.3e})"
        )
    object.__setattr__(model, "_two_path_diff", diff)
    return h


def build_gibbs_state(
    potential: ClassicalPotential,
    alpha: float,
    lattice: Lattice,
    cap: int = QUANTUM_SITE_CAP,
) -> np.ndarray:
    """Non-normalized Boltzmann-amplitude vector, exp(-(alpha/2) U(s)) at s."""
    n = _common_size(potential.n_sites, lattice, cap=cap)
    energies = potential.value_many(spins_from_masks(all_masks(n), n))
    return np.exp(-0.5 * alpha * energies)


def conjugate_hamiltonian(model: "ModelInstance") -> OperatorMatrix:
    """Boltzmann-conjugated Hamiltonian e^{(alpha/2) U} H e^{-(alpha/2) U}.

    Assembled directly from its action,
        (H+ F)(s) = -sum_C J_C(s) exp(-(alpha/2) W_C(s)) (F(s) - F(flip(s, C))),
    and cross-checked against the similarity transform of H.  Its rows sum
    to zero, so up to sign it is a Markov jump generator with the classical
    Gibbs measure stationary.
    """
    n = model.lattice.n_sites
    dim = 1 << n
    masks = all_masks(n)
    spins = spins_from_masks(masks, n)
    rows, cols, vals = [], [], []
    diag = np.zeros(dim, dtype=complex)
    for coupling in diagonal_couplings(model.table):
        if coupling.sites_mask == 0:
            continue
        rates = coupling.values(spins) * np.exp(
            -0.5
            * model.alpha
            * model.potential.flip_energy_many(spins, coupling.sites_mask)
        )
        # Row s couples to column flip(s, C) with weight +rate(s).
        rows.append(masks)
        cols.append(masks ^ coupling.sites_mask)
        vals.append(rates)
        diag -= rates
    direct = _from_triplets(rows, cols, vals, dim) + diagonal_from_values(diag)

    # Similarity-transform route, with U shifted by its minimum so the
    # diagonal scaling stays well-conditioned (the transform is shift-invariant).
    from scipy import sparse

    energies = model.potential.value_many(spins)
    shifted = energies - energies.min()
    left = sparse.diags_array(np.exp(0.5 * model.alpha * shifted), format="csr")
    right = sparse.diags_array(np.exp(-0.5 * model.alpha * shifted), format="csr")
    transformed = OperatorMatrix((left @ model.h.mat @ right).tocsr())
    diff = max_entry_diff(direct, transformed)
    tol = CONJUGATE_RTOL * model.h.norm_max
    if diff > tol:
        raise InternalConsistencyError(
            f"conjugated-Hamiltonian assemblies disagree by {diff:.3e} "
            f"(tolerance {tol:.3e})"
        )
    object.__setattr__(model, "_conjugate_diff", diff)
    return direct


# ---------------------------------------------------------------------------
# XX / XXZ closed forms
# ---------------------------------------------------------------------------


def xx_pair_couplings(table: CouplingTable) -> list[tuple[int, int, float]]:
    """Extract (x, y, phi) from an XX-type table.

    The table must consist solely of matched pair entries: for each site
    pair {x, y} one X_x X_y and one Y_x Y_y entry with equal weight.
    """
    xx: dict[int, float] = {}
    yy: dict[int, float] = {}
    for a, b, phi in table.entries:
        if b == 0 and a.bit_count() == 2:
            xx[a] = phi
        elif a == 0 and b.bit_count() == 2:
            yy[b] = phi
        else:
            raise UnsupportedModelError(
                "table is not XX-type (pair entries only); use build_v instead"
            )
    if set(xx) != set(yy) or any(xx[p] != yy[p] for p in xx):
        raise UnsupportedModelError(
            "XX-type table needs matching X-pair and Y-pair weights; "
            "use build_v instead"
        )
    out = []
    for pair_mask, phi in sorted(xx.items()):
        x, y = sites_from_mask(pair_mask)
        out.append((x, y, phi))
    return out


def xxz_diagonal(
    table: CouplingTable,
    field: Sequence[float],
    alpha: float,
    lattice: Lattice,
) -> OperatorMatrix:
    """Closed-form diagonal part for an XX table with a linear potential
    U(s) = sum_x u_x s_x:

        sum_pairs phi * [ s_x s_y cosh(alpha du) - (s_x - s_y) sinh(alpha du)
                          - cosh(alpha du) ],  du = u_x - u_y.

    Must agree entrywise with build_v on the same model.
    """
    n = _common_size(table.n_sites, lattice)
    if len(field) != n:
        raise ConstraintError(f"field has {len(field)} values for {n} sites")
    masks = all_masks(n)
    spins = spins_from_masks(masks, n).astype(np.float64)
    diag = np.zeros(1 << n)
    for x, y, phi in xx_pair_couplings(table):
        du = alpha * (field[x] - field[y])
        ch, sh = math.cosh(du), math.sinh(du)
        sx, sy = spins[:, x], spins[:, y]
        diag += phi * (sx * sy * ch - (sx - sy) * sh - ch)
    return diagonal_from_values(diag)


def xxz_site_field(coupling: float, alpha: float, lattice: Lattice) -> np.ndarray:
    """Per-site coefficient of the linear sigma^z term in xxz_hamiltonian.

    Accumulated bond by bond as +-coupling*sinh(alpha), so contributions at
    interior sites cancel exactly and only the boundary survives.
    """
    sh = coupling * math.sinh(alpha)
    coeffs = np.zeros(lattice.n_sites)
    for x, y in nearest_neighbor_pairs(lattice):
        coeffs[x] += sh
        coeffs[y] -= sh
    return coeffs


def xxz_hamiltonian(coupling: float, alpha: float, lattice: Lattice) -> OperatorMatrix:
    """Anisotropic Heisenberg Hamiltonian with q = e^alpha, assembled per
    lexicographically ordered nearest-neighbor pair x < y:

        J [ X_x X_y + Y_x Y_y + ((q + 1/q)/2) Z_x Z_y ]
          - J [ ((q - 1/q)/2) (Z_y - Z_x) + (q + 1/q)/2 ]

    This equals build_h for the XX nearest-neighbor table with the same J
    and the coordinate-sum potential: the anisotropy is cosh(alpha), and the
    linear term telescopes to the boundary because u_y - u_x = 1 on every
    ordered pair.
    """
    n = lattice.n_sites
    _check_quantum_size(n)
    dim = 1 << n
    masks = all_masks(n)
    spins = spins_from_masks(masks, n).astype(np.float64)
    ch = math.cosh(alpha)
    pairs = nearest_neighbor_pairs(lattice)

    rows, cols, vals = [], [], []
    diag = np.zeros(dim)
    for x, y in pairs:
        pair_mask = (1 << x) | (1 << y)
        flipped = masks ^ pair_mask
        # X_x X_y maps m -> m ^ pair; Y_x Y_y adds i^2 * s_x s_y = -s_x s_y.
        sxsy = spins[:, x] * spins[:, y]
        rows.append(flipped)
        cols.append(masks)
        vals.append(coupling * (1.0 - sxsy).astype(complex))
        diag += coupling * ch * (sxsy - 1.0)
    diag += spins @ xxz_site_field(coupling, alpha, lattice)
    return _from_triplets(rows, cols, vals, dim) + diagonal_from_values(diag)


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelInstance:
    """A lattice, coupling table, classical potential and alpha, with the
    derived matrices and state cached on first use.  quantum_cap bounds the
    site count of every operator and state built from it."""

    lattice: Lattice
    table: CouplingTable
    potential: ClassicalPotential
    alpha: float
    quantum_cap: int = QUANTUM_SITE_CAP

    def __post_init__(self):
        if self.alpha < 0 or not math.isfinite(self.alpha):
            raise ConstraintError(f"alpha must be finite and nonnegative, got {self.alpha}")
        n = self.lattice.n_sites
        if self.table.n_sites != n or self.potential.n_sites != n:
            raise ConstraintError(
                "lattice, coupling table and potential disagree on the site count"
            )

    @classmethod
    def xxz(cls, lattice: Lattice, coupling: float, alpha: float) -> "ModelInstance":
        """The XX nearest-neighbor model with the coordinate-sum potential."""
        return cls(
            lattice=lattice,
            table=CouplingTable.xx_nearest_neighbor(lattice, coupling),
            potential=ClassicalPotential.linear_height(lattice),
            alpha=alpha,
        )

    @cached_property
    def h0(self) -> OperatorMatrix:
        return build_h0(self.table, self.lattice, cap=self.quantum_cap)

    @cached_property
    def v(self) -> OperatorMatrix:
        return build_v(
            self.table, self.potential, self.alpha, self.lattice, cap=self.quantum_cap
        )

    @cached_property
    def h(self) -> OperatorMatrix:
        return build_h(self)

    @cached_property
    def h_conjugate(self) -> OperatorMatrix:
        return conjugate_hamiltonian(self)

    @cached_property
    def state(self) -> np.ndarray:
        return build_gibbs_state(
            self.potential, self.alpha, self.lattice, cap=self.quantum_cap
        )

    @property
    def two_path_diff(self) -> float:
        """Measured disagreement of the two Hamiltonian assemblies."""
        self.h
        return self.__dict__["_two_path_diff"]

    @property
    def conjugate_diff(self) -> float:
        """Measured disagreement of the two conjugated-form assemblies."""
        self.h_conjugate
        return self.__dict__["_conjugate_diff"]

    def state_norm_squared(self) -> float:
        return float(np.dot(self.state, self.state))

    def partition_value(self, cap: int = ENUMERATION_CAP) -> float:
        return partition_function(self.potential, self.alpha, cap=cap)

    def digest(self) -> str:
        """Stable hash of the model's defining data."""
        payload = {
            "d": self.lattice.dimension,
            "L": self.lattice.side,
            "couplings": [list(e) for e in self.table.entries],
            "potential": [list(t) for t in self.potential.terms],
            "alpha": self.alpha,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Internal helpers
# ---------------------------------------------------------------------------


def _common_size(*n_values, cap: int = QUANTUM_SITE_CAP) -> int:
    sizes = set()
    for n in n_values:
        sizes.add(n.n_sites if isinstance(n, Lattice) else int(n))
    if len(sizes) != 1:
        raise ConstraintError(f"inconsistent site counts: {sorted(sizes)}")
    n = sizes.pop()
    _check_quantum_size(n, cap)
    return n


def _from_triplets(rows, cols, vals, dim) -> OperatorMatrix:
    from scipy import sparse

    if not rows:
        return OperatorMatrix(sparse.csr_array((dim, dim), dtype=complex))
    mat = sparse.coo_array(
        (
            np.concatenate(vals).astype(complex),
            (np.concatenate(rows), np.concatenate(cols)),
        ),
        shape=(dim, dim),
    ).tocsr()
    mat.sum_duplicates()
    mat.eliminate_zeros()
    return OperatorMatrix(mat)
