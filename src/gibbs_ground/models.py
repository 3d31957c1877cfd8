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

H0 and the Boltzmann conjugate of H each have a second, independent
assembly here (table entries vs. grouped couplings, direct action vs.
similarity transform).  The model measures H0's gap and does not judge
it; gibbs_ground.verify measures the conjugate's and judges both.  V has
no second assembly: given H0, H Psi = 0 fixes it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .classical import (
    ClassicalPotential,
    _Enumeration,
    _validate_alpha,
    monomial_signs,
    partition_function,
    spins_from_masks,
)
from .errors import ConstraintError, NumericRangeError
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

    @np.errstate(over="ignore", invalid="ignore")
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


# Like the classical layer: overflow here is named once, below.
@np.errstate(over="ignore", invalid="ignore")
def build_h(model: "ModelInstance") -> OperatorMatrix:
    """Full Hamiltonian H = H0 + V; NumericRangeError if an entry is not finite."""
    h = model.h0 + model.v
    if not all(np.isfinite(d).all() for d in h.terms.values()):
        raise NumericRangeError(
            f"H at alpha={model.alpha:g} has an entry outside double precision: "
            "the couplings or the Boltzmann weights left its range"
        )
    return h


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
    of H.  The entry d_C[m] of H at row m XOR C, column m is scaled by one
    exponential, exp((alpha/2) (U(m XOR C) - U(m))): a factor exp((alpha/2)
    U) on its own leaves double precision once alpha times the spread of U
    passes about 1420, even where the product is of order one."""
    masks, shifted = model.masks, model.shifted_energies
    return OperatorMatrix(
        model.lattice.n_sites,
        {
            c: np.exp(0.5 * model.alpha * (shifted[masks ^ c] - shifted)) * d
            for c, d in model.h.terms.items()
        },
    )


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
        # _energy() may hand back the kernel's cached prefix: never write to it.
        energies = self.enumeration.first._energy(self.enumeration._buffer())
        return energies - energies.min()

    def flip_energy(self, sites_mask: int) -> np.ndarray:
        """W_C over the masks for the union set C, a fresh array."""
        enum = self.enumeration
        return enum.first._flip_energy(enum._odd_terms(sites_mask), enum._buffer())

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
        """Largest entrywise gap between H0 from the table entries and the
        grouped route sum_C J_C(sigma^z) X_[C]."""
        return max_entry_diff(self.h0, offdiagonal_from_couplings(self))

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
