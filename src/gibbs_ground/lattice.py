"""Finite hypercube geometry in Z^d and site-set bitmasks.

Sites of the L^d hypercube are enumerated row-major with the first
coordinate varying fastest: site i has coordinates
(i % L, (i // L) % L, ..., (i // L^(d-1)) % L).  This makes bit positions
of site subsets reproducible across runs.  A site set is a plain integer
bitmask: bit i set means site i belongs to the set.

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
    """An L^d hypercube with row-major site indexing."""

    dimension: int
    side: int
    coords: tuple[tuple[int, ...], ...]

    @property
    def n_sites(self) -> int:
        return len(self.coords)

    @property
    def full_mask(self) -> int:
        return (1 << self.n_sites) - 1

    def index(self, coord: Iterable[int]) -> int:
        """Linear index of a coordinate vector."""
        coord = tuple(coord)
        if len(coord) != self.dimension or any(
            c < 0 or c >= self.side for c in coord
        ):
            raise ConstraintError(f"coordinate {coord} outside the lattice")
        idx = 0
        for k in reversed(range(self.dimension)):
            idx = idx * self.side + coord[k]
        return idx


def build_hypercube(d: int, L: int, site_cap: int = Caps.lattice_sites) -> Lattice:
    """Build the L^d hypercube; raises SizeCapError when L, d or L^d
    exceeds site_cap."""
    if d < 1 or L < 1:
        raise ConstraintError(f"need d >= 1 and L >= 1, got d={d}, L={L}")
    # Bounding L and d first keeps L**d, and the message below, small.
    if L > site_cap or d > site_cap:
        raise SizeCapError(f"lattice L^d needs L and d at most the site cap of {site_cap}")
    n = L**d
    if n > site_cap:
        raise SizeCapError(
            f"lattice with {n} sites exceeds the site cap of {site_cap}"
        )
    coords = []
    for i in range(n):
        rest, coord = i, []
        for _ in range(d):
            coord.append(rest % L)
            rest //= L
        coords.append(tuple(coord))
    return Lattice(dimension=d, side=L, coords=tuple(coords))


def nearest_neighbor_pairs(lattice: Lattice) -> list[tuple[int, int]]:
    """All unordered nearest-neighbor pairs, lexicographically smaller site first.

    The list has d * L^(d-1) * (L-1) entries for the L^d hypercube.
    """
    L = lattice.side
    pairs = []
    for i, coord in enumerate(lattice.coords):
        for k in range(lattice.dimension):
            if coord[k] + 1 < L:
                neighbor = list(coord)
                neighbor[k] += 1
                pairs.append((i, lattice.index(neighbor)))
    return pairs


def linear_height(coord: Iterable[int]) -> int:
    """Coordinate sum of a site, the staircase field u_x = x_1 + ... + x_d."""
    return sum(coord)


def height_field(lattice: Lattice) -> list[int]:
    """linear_height evaluated on every site, in index order."""
    return [linear_height(c) for c in lattice.coords]


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
