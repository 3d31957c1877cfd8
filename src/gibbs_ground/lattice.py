"""Finite hypercube geometry in Z^d and site-set bitmasks.

A lattice is its pair (d, L), the box {0, ..., L-1}^d.  The coordinates
of site i are its base-L digits, first coordinate lowest:
(i % L, (i // L) % L, ..., (i // L^(d-1)) % L).  None is stored: bonds and
heights follow from the digits, and bit positions of site subsets are
reproducible across runs.  A site set is a plain integer bitmask: bit i
set means site i belongs to the set.

Boundaries are free (open); nearest neighbors differ by exactly 1 in
exactly one coordinate, with no wraparound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable

from .errors import ConstraintError, SizeCapError

# Configuration bitmasks are uint64 words.
MASK_BITS = 64


def _check_mask_width(n_sites: int, what: str):
    """SizeCapError when what, on n_sites sites, is wider than a mask."""
    if n_sites > MASK_BITS:
        raise SizeCapError(
            f"{what} on {n_sites} sites exceeds the {MASK_BITS}-bit configuration mask"
        )


@dataclass(frozen=True)
class Caps:
    """Every size cap, in sites; each exact route runs only under its cap.

    lattice_sites: configuration bitmasks fit a uint64 word, so at most
    MASK_BITS.  quantum_sites: operators and states over 2^14 = 16384
    basis states stay in desk range.  enumeration_sites: exact Gibbs sums
    over 2^24 (16.7M) configurations, and the hypothesis enumeration of a
    union set, stay in the seconds range; larger systems go through
    Metropolis.  dense_sites: blocked dense eigensolves up to 2^12 states,
    Lanczos above.
    """

    lattice_sites: int = MASK_BITS
    quantum_sites: int = 14
    enumeration_sites: int = 24
    dense_sites: int = 12

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value < 1:
                raise ConstraintError(f"caps.{f.name} must be at least 1, got {value}")
        if self.lattice_sites > MASK_BITS:
            raise ConstraintError(
                f"caps.lattice_sites must be at most {MASK_BITS}, the width of a "
                f"configuration mask, got {self.lattice_sites}"
            )


@dataclass(frozen=True)
class Lattice:
    """The L^d hypercube, side L in d dimensions; site i sits at its base-L
    digits.  build_hypercube is the validated constructor."""

    dimension: int
    side: int

    @property
    def n_sites(self) -> int:
        return self.side**self.dimension

    @property
    def full_mask(self) -> int:
        return (1 << self.n_sites) - 1


def build_hypercube(d: int, L: int, site_cap: int = Caps.lattice_sites) -> Lattice:
    """Build the L^d hypercube; raises SizeCapError when L, d or L^d
    exceeds site_cap."""
    if d < 1 or L < 1:
        raise ConstraintError(f"need d >= 1 and L >= 1, got d={d}, L={L}")
    # Bounding L and d first keeps L**d, and the message below, small.
    if L > site_cap or d > site_cap:
        raise SizeCapError(f"lattice L^d needs L and d at most the site cap of {site_cap}")
    if L**d > site_cap:
        raise SizeCapError(f"lattice with {L**d} sites exceeds the site cap of {site_cap}")
    return Lattice(dimension=d, side=L)


def nearest_neighbor_pairs(lattice: Lattice) -> list[tuple[int, int]]:
    """All unordered nearest-neighbor pairs (i, i + L^k), one wherever digit
    k of i is below L - 1, by site and then by axis.

    The list has d * L^(d-1) * (L-1) entries for the L^d hypercube.
    """
    L = lattice.side
    return [
        (i, i + L**k)
        for i in range(lattice.n_sites)
        for k in range(lattice.dimension)
        if i // L**k % L < L - 1
    ]


def height_field(lattice: Lattice) -> list[int]:
    """The staircase field u_x = x_1 + ... + x_d, the digit sum of each
    site, in index order."""
    L = lattice.side
    return [
        sum(i // L**k % L for k in range(lattice.dimension))
        for i in range(lattice.n_sites)
    ]


def mask_from_sites(sites: Iterable[int]) -> int:
    """Bitmask of a collection of site indices; rejects duplicates."""
    mask = 0
    for s in sites:
        if s < 0:
            raise ConstraintError(f"negative site index {s}")
        bit = 1 << s
        if mask & bit:
            raise ConstraintError(f"duplicate site index {s}")
        mask |= bit
    return mask


def pair_mask(x: int, y: int) -> int:
    """Bitmask of the set {x} ^ {y} that the pair (x, y) flips or
    multiplies over: both sites, or none for a repeated site (x, x),
    whose products s_x s_x and sigma^x_x sigma^x_x are the identity."""
    return (1 << x) ^ (1 << y)


def sites_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted site indices of a bitmask."""
    sites = []
    i = 0
    while mask:
        if mask & 1:
            sites.append(i)
        mask >>= 1
        i += 1
    return tuple(sites)
