import itertools

import numpy as np
import pytest

from gibbs_ground import ClassicalPotential, CouplingTable, ModelInstance, build_hypercube
from gibbs_ground.lattice import nearest_neighbor_pairs

# The randomized-model family used across the suite: 1D chains of 4..10
# sites and the small 2D squares, alpha in a fixed grid, moderate
# coefficient sizes so that Boltzmann weights stay well-conditioned.
MODEL_SHAPES = [(1, L) for L in range(4, 11)] + [(2, 2), (2, 3)]
ALPHA_GRID = (0.0, 0.5, 1.0, 2.0)


@pytest.fixture
def chain4():
    return build_hypercube(1, 4)


@pytest.fixture
def chain8():
    return build_hypercube(1, 8)


@pytest.fixture
def square3():
    return build_hypercube(2, 3)


def random_potential(rng, lattice, pair_density=0.5):
    """Random multilinear potential with |B| <= 2 and small coefficients."""
    n = lattice.n_sites
    terms = []
    for x in range(n):
        if rng.random() < 0.6:
            terms.append(([x], _coeff(rng, 0.05, 0.35)))
    all_pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(all_pairs)
    for pair in all_pairs[: max(1, int(pair_density * n))]:
        terms.append((list(pair), _coeff(rng, 0.05, 0.35)))
    return ClassicalPotential.from_terms(n, terms)


def _coeff(rng, lo, hi):
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(lo, hi))


def random_coupling_table(rng, lattice, flavor="generic"):
    """Random coupling table.

    flavor "ferro": only entry shapes whose diagonal couplings are
    nonpositive (single x-sets and matched xx pairs, all with negative
    weight), so the ground-state hypotheses hold by construction.
    flavor "generic": even y-sets with arbitrary signs.
    flavor "odd": additionally includes odd y-sets (complex couplings).
    """
    n = lattice.n_sites
    pairs = nearest_neighbor_pairs(lattice)
    entries = {}

    def put(a_sites, b_sites, phi):
        key = (frozenset(a_sites), frozenset(b_sites))
        if key not in entries:
            entries[key] = (list(a_sites), list(b_sites), phi)

    if flavor == "ferro":
        for x, y in pairs:
            if rng.random() < 0.8:
                phi = -float(rng.uniform(0.2, 1.0))
                put([x, y], [], phi)
                put([], [x, y], phi)
        for x in range(n):
            if rng.random() < 0.4:
                put([x], [], -float(rng.uniform(0.2, 1.0)))
    else:
        for x, y in pairs:
            r = rng.random()
            if r < 0.4:
                phi = _coeff(rng, 0.2, 1.0)
                put([x, y], [], phi)
                put([], [x, y], phi)
            elif r < 0.6:
                put([], [x, y], _coeff(rng, 0.2, 1.0))
        for x in range(n):
            if rng.random() < 0.3:
                put([x], [], _coeff(rng, 0.2, 1.0))
        if n >= 3:
            sites = list(rng.choice(n, size=3, replace=False))
            put([int(sites[0])], [int(sites[1]), int(sites[2])], _coeff(rng, 0.2, 0.6))
        if flavor == "odd":
            x = int(rng.integers(n))
            put([], [x], _coeff(rng, 0.2, 1.0))
            if n >= 2:
                y = (x + 1) % n
                put([y], [x] if x != y else [], _coeff(rng, 0.2, 1.0))

    if not entries:
        x, y = pairs[0]
        phi = -0.5
        put([x, y], [], phi)
        put([], [x, y], phi)
    return CouplingTable.from_site_lists(n, list(entries.values()))


def xxz_model(lattice, coupling, alpha):
    """The XX nearest-neighbour table of weight coupling with the
    coordinate-sum potential: the XXZ chain of tests/oracles.xxz_dense."""
    return ModelInstance(
        lattice=lattice,
        table=CouplingTable.xx_nearest_neighbor(lattice, coupling),
        potential=ClassicalPotential.linear_height(lattice),
        alpha=alpha,
    )


def random_model(rng, flavor="generic", shapes=MODEL_SHAPES, alphas=ALPHA_GRID):
    d, L = shapes[int(rng.integers(len(shapes)))]
    lattice = build_hypercube(d, L)
    return ModelInstance(
        lattice=lattice,
        table=random_coupling_table(rng, lattice, flavor=flavor),
        potential=random_potential(rng, lattice),
        alpha=float(alphas[int(rng.integers(len(alphas)))]),
    )
