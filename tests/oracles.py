"""Independent oracles for expected values.

Everything here is deliberately written without the package's vectorized
machinery: plain-Python enumeration over spin tuples, a 2x2 transfer
matrix for the open Ising chain and dense Kronecker products of the Pauli
matrices for the XXZ reduction, so that package results are checked
against a genuinely separate computation path.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from gibbs_ground.errors import ConstraintError

# The 2x2 Pauli matrices by axis: 1 (x), 2 (y) and 3 (z).
PAULI = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}


def on_sites(n: int, factors: dict) -> np.ndarray:
    """The 2^n x 2^n Kronecker product with factors[x] at site x and the
    identity elsewhere; site 0 is the last, least significant factor."""
    out = np.eye(1)
    for x in reversed(range(n)):
        out = np.kron(out, factors.get(x, np.eye(2)))
    return out


def xxz_dense(n: int, pairs, field, alpha: float) -> np.ndarray:
    """Dense H of the XX table with pair weights (x, y, phi) and the linear
    potential U(s) = sum_x u_x s_x, from Kronecker products of the Paulis:

        sum phi [X_x X_y + Y_x Y_y + cosh(alpha d) Z_x Z_y
                 - sinh(alpha d) (Z_x - Z_y) - cosh(alpha d)],  d = u_x - u_y.

    Its diagonal is V in closed form.  With u the height field (coordinate
    sums) on a nearest-neighbour table of equal weights J it is the XXZ
    chain with q = e^alpha: anisotropy (q + 1/q)/2, and a linear z-term that
    telescopes to the boundary (Pasquier & Saleur, Nucl. Phys. B 330, 523).
    """
    z = PAULI[3]
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for x, y, phi in pairs:
        d = alpha * (field[x] - field[y])
        ch, sh = math.cosh(d), math.sinh(d)
        h += phi * (
            on_sites(n, {x: PAULI[1], y: PAULI[1]})
            + on_sites(n, {x: PAULI[2], y: PAULI[2]})
            + ch * on_sites(n, {x: z, y: z})
            - sh * (on_sites(n, {x: z}) - on_sites(n, {y: z}))
            - ch * np.eye(1 << n)
        )
    return h


def site_coords(lattice) -> list[tuple[int, ...]]:
    """Coordinates of the lattice's sites in index order, first coordinate
    varying fastest, listed by itertools.product instead of digit
    arithmetic."""
    box = itertools.product(range(lattice.side), repeat=lattice.dimension)
    return [tuple(reversed(c)) for c in box]


def flip(config: int, sites_mask: int) -> int:
    """Negate the spins on a site set: a bitmask XOR (an involution)."""
    return config ^ sites_mask


def mask_from_spins(spins) -> int:
    """The bitmask of one spin tuple: bit i set where spin i is -1."""
    mask = 0
    for i, s in enumerate(spins):
        if s == -1:
            mask |= 1 << i
        elif s != 1:
            raise ConstraintError(f"spin value {s} at site {i} is not +-1")
    return mask


def spins_of_mask(mask: int, n: int) -> tuple[int, ...]:
    """The spin tuple of one bitmask: spin -1 exactly at its set bits."""
    return tuple(-1 if (mask >> i) & 1 else 1 for i in range(n))


def enumerate_spins(n: int):
    """All 2^n spin tuples, in the package's bitmask order."""
    for mask in range(1 << n):
        yield spins_of_mask(mask, n)


def potential_value(terms, spins) -> float:
    """U(s) = sum c * prod spins over site lists."""
    total = 0.0
    for sites, coeff in terms:
        prod = coeff
        for x in sites:
            prod *= spins[x]
        total += prod
    return total


def brute_force_partition(terms, n: int, alpha: float) -> float:
    return sum(
        math.exp(-alpha * potential_value(terms, s)) for s in enumerate_spins(n)
    )


def brute_force_expectation(f, terms, n: int, alpha: float) -> float:
    """<f> in the Gibbs measure, f taking one spin tuple."""
    num = 0.0
    den = 0.0
    for s in enumerate_spins(n):
        w = math.exp(-alpha * potential_value(terms, s))
        num += w * f(s)
        den += w
    return num / den


def brute_force_flip_energy(terms, spins, flip_sites) -> float:
    flipped = tuple(-s if i in flip_sites else s for i, s in enumerate(spins))
    return potential_value(terms, flipped) - potential_value(terms, spins)


def open_chain_correlation(L: int, k: float, x: int, y: int) -> float:
    """<s_x s_y> for the open Ising chain with weight exp(k sum s_i s_{i+1}),
    via transfer-matrix products with spin insertions at x and y."""
    t = np.array([[math.exp(k), math.exp(-k)], [math.exp(-k), math.exp(k)]])
    sz = np.diag([1.0, -1.0])
    insert = sorted([x, y])

    def contracted(insertions):
        vec = np.ones(2)
        for site in range(L):
            if site in insertions:
                vec = sz @ vec
            if site < L - 1:
                vec = t @ vec
        return float(np.ones(2) @ vec)

    return contracted(set(insert)) / contracted(set())


def open_chain_correlation_closed_form(k: float, distance: int) -> float:
    """The same correlation in closed form: tanh(k)^distance."""
    return math.tanh(k) ** distance


def splitmix64(seed: int, count: int, start: int = 0) -> list[int]:
    """Outputs start ... start+count-1 of SplitMix64 seeded with seed, by
    its sequential next() (Steele, Lea & Flood 2014): the state advances by
    the golden gamma, then the finaliser mixes a copy.  The state is a
    Weyl sequence, so start outputs are skipped by adding start gammas."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    state = (seed + start * gamma) & mask
    out = []
    for _ in range(count):
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out
