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

H and its Boltzmann conjugate each have a second, independent assembly here
(flip form vs. H0 + V, similarity transform vs. direct action).  The model
measures the gap between the two routes and does not judge it:
gibbs_ground.verify decides whether it is within tolerance.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .classical import (
    ClassicalPotential,
    _Enumeration,
    _validate_alpha,
    monomial_signs,
    partition_function,
    spins_from_masks,
)
from .errors import ConstraintError, UnsupportedModelError
from .lattice import (
    Caps,
    Lattice,
    _check_mask_width,
    mask_from_sites,
    nearest_neighbor_pairs,
    sites_from_mask,
)
from .operators import (
    OperatorMatrix,
    all_masks,
    flip_operator,
    max_entry_diff,
    _check_quantum_size,
)


@dataclass(frozen=True)
class CouplingTable:
    """Weights phi over disjoint site-set pairs; entries are
    (x-set mask, y-set mask, phi) and the two masks must not overlap."""

    n_sites: int
    entries: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        _check_mask_width(self.n_sites, "a coupling table")
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
        """Build from (x-site list, y-site list, phi) triples; a site
        repeated within one list raises ConstraintError."""
        packed = [
            (mask_from_sites(a_sites), mask_from_sites(b_sites), float(phi))
            for a_sites, b_sites, phi in entries
        ]
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

    def values(self, masks: np.ndarray) -> np.ndarray:
        """Evaluate J at configuration masks, term by term; complex output."""
        out = np.zeros(len(masks), dtype=complex)
        signs = monomial_signs(masks, [b_mask for b_mask, _ in self.terms])
        for row, (_, coeff) in zip(signs, self.terms):
            out += coeff * row
        return out

    def restricted_values(self, local: Iterable[int]) -> np.ndarray:
        """J at assignments of its own sites alone (other spins moot): bit j
        of each local mask is the spin of the set's j-th site."""
        local = np.asarray(local, dtype=np.uint64)
        masks = np.zeros(len(local), dtype=np.uint64)
        for j, site in enumerate(sites_from_mask(self.sites_mask)):
            masks |= ((local >> np.uint64(j)) & np.uint64(1)) << np.uint64(site)
        return self.values(masks)


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


def build_h0(model: "ModelInstance") -> OperatorMatrix:
    """Off-diagonal part sum phi(A, B) X_[A] Y_[B].

    On basis state m each entry contributes phi * i^|B| * sign_B(m) at row
    m XOR (A | B); the Hermitian flag on the result is computed, never assumed.
    Like every builder here it reads model.masks, so it raises SizeCapError
    above the model's quantum cap.
    """
    entries = model.table.entries
    signs = monomial_signs(model.masks, [b for _, b, _ in entries])
    return flip_operator(
        model.lattice.n_sites,
        [(a | b, phi * (1j ** b.bit_count()) * row) for (a, b, phi), row in zip(entries, signs)],
    )


def offdiagonal_from_couplings(model: "ModelInstance") -> OperatorMatrix:
    """Second route to the off-diagonal part, sum_C J_C(sigma^z) X_[C]."""
    masks = model.masks
    return flip_operator(
        model.lattice.n_sites,
        [(c.sites_mask, c.values(masks ^ c.sites_mask)) for c in model.couplings],
    )


def build_v(model: "ModelInstance") -> OperatorMatrix:
    """Diagonal part with entry -sum_C J_C(s) exp(-(alpha/2) W_C(s)) at s."""
    masks = model.masks
    diag = np.zeros(len(masks), dtype=complex)
    for coupling in model.couplings:
        weights = np.exp(-0.5 * model.alpha * model.flip_energy(coupling.sites_mask))
        diag -= coupling.values(masks) * weights
    return flip_operator(model.lattice.n_sites, [(0, diag)])


def _flip_form_h(model: "ModelInstance") -> OperatorMatrix:
    """Independent route to H: sum over nonempty union sets of
    J_C(sigma^z) (X_[C] - exp(-(alpha/2) W_C(sigma^z)))."""
    masks = model.masks
    terms = []
    diag = np.zeros(len(masks), dtype=complex)
    for coupling in model.couplings:
        if coupling.sites_mask == 0:
            continue
        j_vals = coupling.values(masks)
        terms.append((coupling.sites_mask, j_vals[masks ^ coupling.sites_mask]))
        weights = np.exp(-0.5 * model.alpha * model.flip_energy(coupling.sites_mask))
        diag -= j_vals * weights
    return flip_operator(model.lattice.n_sites, terms + [(0, diag)])


def build_h(model: "ModelInstance") -> OperatorMatrix:
    """Full Hamiltonian H = H0 + V; _flip_form_h is its second route."""
    return model.h0 + model.v


def build_gibbs_state(model: "ModelInstance") -> np.ndarray:
    """Non-normalized Boltzmann-amplitude vector, exp(-(alpha/2) U(s)) at s."""
    # Decoded spins: state_norm_partition compares this with the mask-native Z.
    spins = spins_from_masks(model.masks, model.lattice.n_sites)
    return np.exp(-0.5 * model.alpha * model.potential.value_many(spins))


def conjugate_hamiltonian(model: "ModelInstance") -> OperatorMatrix:
    """Boltzmann-conjugated Hamiltonian e^{(alpha/2) U} H e^{-(alpha/2) U}.

    Assembled directly from its action,
        (H+ F)(s) = -sum_C J_C(s) exp(-(alpha/2) W_C(s)) (F(s) - F(flip(s, C))),
    with _similarity_conjugate as its second route.  Its rows sum to zero,
    so up to sign it is a Markov jump generator with the classical Gibbs
    measure stationary.
    """
    masks = model.masks
    terms = []
    diag = np.zeros(len(masks), dtype=complex)
    for coupling in model.couplings:
        if coupling.sites_mask == 0:
            continue
        weights = np.exp(-0.5 * model.alpha * model.flip_energy(coupling.sites_mask))
        rates = coupling.values(masks) * weights
        # Row s couples to column flip(s, C) with weight +rate(s).
        terms.append((coupling.sites_mask, rates[masks ^ coupling.sites_mask]))
        diag -= rates
    return flip_operator(model.lattice.n_sites, terms + [(0, diag)])


def _similarity_conjugate(model: "ModelInstance") -> OperatorMatrix:
    """Second route to the conjugated Hamiltonian: the similarity transform
    of H, with U shifted by its minimum so the diagonal scaling stays
    well-conditioned (the transform is shift-invariant).  The entry d_C[m]
    of H at row m XOR C, column m is scaled by left[m XOR C] and right[m]."""
    masks = model.masks
    left = np.exp(0.5 * model.alpha * model.shifted_energies)
    right = np.exp(-0.5 * model.alpha * model.shifted_energies)
    return OperatorMatrix(
        model.lattice.n_sites,
        {c: (left[masks ^ c] * d) * right for c, d in model.h.terms.items()},
    )


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
    n = lattice.n_sites
    _check_quantum_size(n)
    if table.n_sites != n or len(field) != n:
        raise ConstraintError(
            f"table, field and lattice disagree on the site count: "
            f"{table.n_sites}, {len(field)} and {n}"
        )
    spins = monomial_signs(all_masks(n), [1 << x for x in range(n)]).astype(np.float64)
    diag = np.zeros(1 << n)
    for x, y, phi in xx_pair_couplings(table):
        du = alpha * (field[x] - field[y])
        ch, sh = math.cosh(du), math.sinh(du)
        sx, sy = spins[x], spins[y]
        diag += phi * (sx * sy * ch - (sx - sy) * sh - ch)
    return flip_operator(n, [(0, diag)])


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
    masks = all_masks(n)
    ch = math.cosh(alpha)
    bonds = [(1 << x) | (1 << y) for x, y in nearest_neighbor_pairs(lattice)]

    terms = []
    diag = np.zeros(1 << n)
    for bond, sxsy in zip(bonds, monomial_signs(masks, bonds).astype(np.float64)):
        # X_x X_y maps m -> m ^ pair; Y_x Y_y adds i^2 * s_x s_y = -s_x s_y.
        terms.append((bond, coupling * (1.0 - sxsy)))
        diag += coupling * ch * (sxsy - 1.0)
    # The linear term sum_x u_x s_x, summed from zero in site order.
    field = np.zeros(1 << n)
    spins = monomial_signs(masks, [1 << x for x in range(n)])
    for u, row in zip(xxz_site_field(coupling, alpha, lattice), spins):
        field += u * row
    diag += field
    return flip_operator(n, terms + [(0, diag)])


# ---------------------------------------------------------------------------
# Model container
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelInstance:
    """A lattice, coupling table, classical potential and alpha, with the
    derived matrices and state, and the inputs they share, cached on first
    use.  Every check on it runs under its size caps: caps.quantum_sites
    bounds every operator and state built from it (the first read of masks
    checks it), caps.enumeration_sites every exact enumeration."""

    lattice: Lattice
    table: CouplingTable
    potential: ClassicalPotential
    alpha: float
    caps: Caps = Caps()

    def __post_init__(self):
        _validate_alpha(self.alpha)
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
    def masks(self) -> np.ndarray:
        """All 2^n configuration masks; SizeCapError above caps.quantum_sites."""
        _check_quantum_size(self.lattice.n_sites, self.caps.quantum_sites)
        return all_masks(self.lattice.n_sites)

    @cached_property
    def enumeration(self) -> _Enumeration:
        """The potential's kernel as one chunk over the masks, read first for the quantum cap."""
        self.masks
        return _Enumeration(self.potential, chunk_bits=self.lattice.n_sites)

    @cached_property
    def shifted_energies(self) -> np.ndarray:
        """U over the masks minus its minimum, for well-scaled weights."""
        # energy() may hand back the kernel's cached prefix: never write to it.
        energies = self.enumeration.energy(self.enumeration.buffer())
        return energies - energies.min()

    def flip_energy(self, sites_mask: int) -> np.ndarray:
        """W_C over the masks for the union set C, a fresh array."""
        enum = self.enumeration
        return enum.flip_energy(enum.odd_terms(sites_mask), enum.buffer())

    @cached_property
    def couplings(self) -> tuple[DiagonalCoupling, ...]:
        """The diagonal coupling of every union set of the table."""
        return diagonal_couplings(self.table)

    @cached_property
    def h0(self) -> OperatorMatrix:
        return build_h0(self)

    @cached_property
    def v(self) -> OperatorMatrix:
        return build_v(self)

    @cached_property
    def h(self) -> OperatorMatrix:
        return build_h(self)

    @cached_property
    def h_conjugate(self) -> OperatorMatrix:
        return conjugate_hamiltonian(self)

    @cached_property
    def state(self) -> np.ndarray:
        return build_gibbs_state(self)

    @cached_property
    def two_path_diff(self) -> float:
        """Largest entrywise gap between H0 + V and the flip-form assembly."""
        return max_entry_diff(self.h, _flip_form_h(self))

    @cached_property
    def conjugate_diff(self) -> float:
        """Largest entrywise gap between the direct conjugated form and the
        similarity transform of H."""
        return max_entry_diff(self.h_conjugate, _similarity_conjugate(self))

    def state_norm_squared(self) -> float:
        return float(np.dot(self.state, self.state))

    def partition_value(self) -> float:
        return partition_function(
            self.potential, self.alpha, cap=self.caps.enumeration_sites
        )

    def digest(self) -> str:
        """Stable hash of the model's defining data: the first 16 hex
        digits of the SHA-256 of its sorted-key JSON."""
        # SHA-256 from the interpreter's own module (_sha2 from 3.12,
        # _sha256 before), since hashlib maps OpenSSL, a few MB of resident
        # memory; hashlib only where neither module is built.
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:
                from hashlib import sha256
        payload = {
            "d": self.lattice.dimension,
            "L": self.lattice.side,
            "couplings": [list(e) for e in self.table.entries],
            "potential": [list(t) for t in self.potential.terms],
            "alpha": self.alpha,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return sha256(blob).hexdigest()[:16]
