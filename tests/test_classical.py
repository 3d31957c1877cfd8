import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbs_ground import (
    ClassicalPotential,
    build_hypercube,
    classical_expectation,
    flip_weight,
    order_parameter_scan,
    partition_function,
    spin_product,
    squared_magnetization,
)
from gibbs_ground import classical
from gibbs_ground.classical import (
    default_burn_in,
    estimate_from_samples,
    gibbs_averages,
    max_abs_flip_energy,
    metropolis_averages,
    metropolis_samples,
    monomial_signs,
    order_parameter_averages,
    order_parameter_functionals,
    spins_from_masks,
)
from gibbs_ground.errors import ConstraintError, NumericRangeError, SizeCapError
from gibbs_ground.lattice import sites_from_mask
from gibbs_ground.splitmix import uniform

from .oracles import (
    brute_force_expectation,
    brute_force_flip_energy,
    brute_force_partition,
    flip,
    mask_from_spins,
    open_chain_correlation,
    open_chain_correlation_closed_form,
    spins_of_mask,
    splitmix64,
)


def _value(pot, config):
    """U at one bitmask configuration, through value_many."""
    return pot.value_many(spins_from_masks(np.array([config]), pot.n_sites))[0]


def _flip_energy(pot, config, sites_mask):
    """W_A at one bitmask configuration, through flip_energy_many."""
    spins = spins_from_masks(np.array([config]), pot.n_sites)
    return pot.flip_energy_many(spins, sites_mask)[0]


def test_eval_potential_hand_cases():
    bond = ClassicalPotential.from_terms(2, [([0, 1], -1.0)])
    assert _value(bond, 0b00) == -1.0  # both +1
    fields = ClassicalPotential.from_terms(2, [([0], 2.0), ([1], 3.0)])
    assert _value(fields, 0b10) == -1.0  # s0=+1, s1=-1
    assert _value(ClassicalPotential.zero(3), 0b101) == 0.0


def test_duplicate_term_rejected():
    with pytest.raises(ConstraintError):
        ClassicalPotential.from_terms(2, [([0], 1.0), ([0], 2.0)])


def test_flip_is_xor():
    assert flip(0b0000, 0b0001) == 0b0001
    assert flip(0b0110, 0) == 0b0110
    assert flip(flip(0b0110, 0b0011), 0b0011) == 0b0110


def test_flip_energy_hand_cases():
    bond = ClassicalPotential.from_terms(2, [([0, 1], -1.0)])
    # flipping one end of a satisfied ferro bond costs 2
    assert _flip_energy(bond, 0b00, 0b01) == 2.0
    assert _flip_energy(bond, 0b00, 0) == 0.0
    # linear potential, flipping both sites of a pair
    lin = ClassicalPotential.from_terms(2, [([0], 0.7), ([1], -0.4)])
    s = 0b10  # s0=+1, s1=-1
    expected = -2 * (0.7 * 1 + (-0.4) * (-1))
    assert _flip_energy(lin, s, 0b11) == pytest.approx(expected, rel=1e-15)


@given(
    st.integers(min_value=0, max_value=63),
    st.integers(min_value=0, max_value=63),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=63),
            st.floats(min_value=-2, max_value=2, allow_nan=False),
        ),
        max_size=6,
        unique_by=lambda t: t[0],
    ),
)
def test_flip_energy_matches_direct_difference(config, sites_mask, raw_terms):
    pot = ClassicalPotential(n_sites=6, terms=tuple(raw_terms))
    terms = [(sites_from_mask(mask), coeff) for mask, coeff in raw_terms]
    direct = brute_force_flip_energy(
        terms, spins_of_mask(config, 6), sites_from_mask(sites_mask)
    )
    incremental = _flip_energy(pot, config, sites_mask)
    assert incremental == pytest.approx(direct, abs=1e-12)


@given(
    st.integers(min_value=0, max_value=255),
    st.integers(min_value=0, max_value=255),
)
def test_flip_energy_antisymmetry(config, sites_mask):
    rng = np.random.default_rng(11)
    terms = tuple(
        (int(m), float(c))
        for m, c in zip(rng.integers(0, 256, 5), rng.uniform(-1, 1, 5))
    )
    pot = ClassicalPotential(n_sites=8, terms=tuple(dict(terms).items()))
    # exact antisymmetry: both values are the same +-2c sums with signs flipped
    assert _flip_energy(pot, flip(config, sites_mask), sites_mask) == -_flip_energy(
        pot, config, sites_mask
    )


def test_half_flip_weight_symmetric():
    rng = np.random.default_rng(3)
    pot = ClassicalPotential.from_terms(
        5, [([0], 0.3), ([1, 2], -0.8), ([3, 4], 0.5)]
    )
    for _ in range(20):
        s = int(rng.integers(0, 32))
        a = int(rng.integers(0, 32))
        w1 = math.exp(-0.5 * (_value(pot, s) + _value(pot, flip(s, a))))
        w2 = math.exp(-0.5 * (_value(pot, flip(s, a)) + _value(pot, s)))
        assert w1 == w2


def test_spins_from_masks_roundtrip():
    spins = spins_from_masks(np.array([0b0101]), 4)
    assert spins.tolist() == [[-1, 1, -1, 1]]
    assert mask_from_spins([-1, 1, -1, 1]) == 0b0101
    with pytest.raises(ConstraintError):
        mask_from_spins([0, 1])


def test_partition_function_hand_cases():
    assert partition_function(ClassicalPotential.zero(3), 1.7) == pytest.approx(8.0)
    pot = ClassicalPotential.from_terms(4, [([0], 0.9), ([1, 2], -0.4)])
    assert partition_function(pot, 0.0) == pytest.approx(16.0)
    chain2 = ClassicalPotential.from_terms(2, [([0, 1], -1.0)])
    assert partition_function(chain2, 1.0) == pytest.approx(
        2 * math.e + 2 / math.e, rel=1e-14
    )


def test_partition_function_matches_brute_force():
    terms = [([0], 0.4), ([2], -0.6), ([0, 3], 0.8), ([1, 2], -0.3)]
    pot = ClassicalPotential.from_terms(4, terms)
    for alpha in (0.0, 0.5, 2.0):
        assert partition_function(pot, alpha) == pytest.approx(
            brute_force_partition(terms, 4, alpha), rel=1e-13
        )


def test_partition_cap():
    with pytest.raises(SizeCapError, match="Metropolis"):
        partition_function(ClassicalPotential.zero(25), 1.0, cap=24)


def test_expectation_symmetry_and_normalization():
    pot = ClassicalPotential.zero(5)
    assert classical_expectation(spin_product(2), pot, 1.3) == pytest.approx(0.0)
    assert classical_expectation(spin_product(), pot, 0.7) == pytest.approx(1.0)


def test_expectation_matches_brute_force():
    terms = [([0], -0.5), ([1, 3], 0.7), ([2, 4], -0.9)]
    pot = ClassicalPotential.from_terms(5, terms)
    got = classical_expectation(spin_product(1, 4), pot, 1.1)
    want = brute_force_expectation(
        lambda s: s[1] * s[4], terms, 5, 1.1
    )
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.9, 2.0])
@pytest.mark.parametrize("x, y", [(0, 1), (0, 3), (2, 7)])
def test_open_ising_chain_correlations(alpha, x, y):
    lat = build_hypercube(1, 8)
    pot = ClassicalPotential.ising_nn(lat, 1.0)
    got = classical_expectation(spin_product(x, y), pot, alpha)
    oracle = open_chain_correlation(8, alpha, x, y)
    assert got == pytest.approx(oracle, rel=1e-12)
    assert got == pytest.approx(
        open_chain_correlation_closed_form(alpha, abs(x - y)), rel=1e-12
    )


def test_flip_weight_average_is_positive_and_bounded_by_one_at_zero_alpha():
    lat = build_hypercube(1, 6)
    pot = ClassicalPotential.ising_nn(lat, 1.0)
    f = flip_weight(pot, 0.0, 0b11)
    assert classical_expectation(f, pot, 0.0) == pytest.approx(1.0)


def test_gibbs_averages_consistent_with_single_calls():
    pot = ClassicalPotential.from_terms(4, [([0, 1], -1.0), ([2], 0.5)])
    fs = [spin_product(0, 1), squared_magnetization()]
    batch = gibbs_averages(fs, pot, 0.8)
    singles = [classical_expectation(f, pot, 0.8) for f in fs]
    assert batch == pytest.approx(singles, rel=1e-14)


# ---------------------------------------------------------------------------
# Mask-native evaluation and the batched order-parameter route
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=255),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=255),
            st.floats(min_value=-3, max_value=3, allow_nan=False),
        ),
        max_size=8,
        unique_by=lambda t: t[0],
    ),
)
def test_mask_native_energies_equal_decoded_ones(configs, sites_mask, raw_terms):
    pot = ClassicalPotential(n_sites=8, terms=tuple(raw_terms))
    masks = np.array(configs, dtype=np.uint64)
    spins = spins_from_masks(masks, 8)
    # one chunk over all 2^8 masks in order, as a model reads it
    enum = classical._Enumeration(pot, chunk_bits=8)
    assert enum.rows.dtype == np.int8
    energies = enum.energy(enum.buffer())[masks]
    assert energies.tobytes() == pot.value_many(spins).tobytes()
    flips = enum.flip_energy(enum.odd_terms(sites_mask), enum.buffer())[masks]
    assert flips.tobytes() == pot.flip_energy_many(spins, sites_mask).tobytes()


def test_monomial_signs_hand_cases():
    masks = np.array([0b000, 0b001, 0b011, 0b111], dtype=np.uint64)
    table = monomial_signs(masks, [0, 0b001, 0b011, 0b101])
    assert table.tolist() == [
        [1, 1, 1, 1],
        [1, -1, -1, -1],
        [1, -1, 1, 1],
        [1, -1, -1, 1],
    ]


def _three_body_potential():
    return ClassicalPotential.from_terms(
        7,
        [
            ([], 0.75),
            ([0, 2, 5], -0.4),
            ([1, 3, 4], 0.3),
            ([6], 0.2),
            ([2, 3], -0.9),
        ],
    )


BATCH_POTENTIALS = {
    "ising_nn": lambda: ClassicalPotential.ising_nn(build_hypercube(1, 7), 1.0),
    "linear_height_2d": lambda: ClassicalPotential.linear_height(build_hypercube(2, 3)),
    "constant_and_three_body": _three_body_potential,
}


@pytest.mark.parametrize("name", sorted(BATCH_POTENTIALS))
def test_order_parameter_averages_equal_per_alpha_route(name, monkeypatch):
    # Small chunks and alpha groups: several chunks per pass, several passes.
    monkeypatch.setattr(classical, "_CHUNK_BITS", 4)
    monkeypatch.setattr(classical, "_ALPHA_GROUP", 3)
    pot = BATCH_POTENTIALS[name]()
    # (5, 5) is a repeated site: s_5 s_5 = 1, and W over the empty set
    pairs = [(0, 2), (1, pot.n_sites - 1), (3, 4), (5, 5)]
    alphas = [0.0, 0.4, 1.3, 2.0, 3.5]
    batched = order_parameter_averages(pot, alphas, pairs)
    assert len(batched) == len(alphas)
    for got, alpha in zip(batched, alphas):
        assert got == gibbs_averages(order_parameter_functionals(pot, alpha, pairs), pot, alpha)


# Multi-chunk bit identity of the mask-native kernel.  With _CHUNK_BITS = c
# the sites below c are the low bits every chunk shares; each potential
# below stresses one way a chunk-invariant sum or a chunk sign can go wrong.
KERNEL_POTENTIALS = {
    # The first term has high bits, so no energy prefix is cached.  The
    # -0.0 term is the only odd one for the flip set {0, 1, 2, 5}, where W
    # must still come out as -2.0 * (0.0 + (-0.0)) = -0.0.
    "empty_prefix": (
        7,
        [
            ([0, 5], 0.4),
            ([1], -0.0),
            ([], 0.75),
            ([0, 1], -1.0),
            ([1, 2], -0.8),
            ([2, 3, 5], 0.3),
            ([6], 0.2),
            ([3, 4], -0.6),
        ],
    ),
    # The energy prefix (four terms, one constant) and the site prefix
    # (site 0) both end inside the low bits; [1, 4, 6] straddles the
    # chunk boundary.
    "prefix_mid_lattice": (
        7,
        [
            ([0, 1], -1.0),
            ([1, 2], -0.9),
            ([], 0.5),
            ([2, 3], -0.7),
            ([1, 4, 6], 0.35),
            ([3, 4], -0.6),
            ([4, 5], -0.5),
            ([5, 6], -0.4),
            ([0], 0.25),
        ],
    ),
    "ising_chain": (7, [([x, x + 1], -1.0) for x in range(6)]),
    # At _CHUNK_BITS = 3 the terms [5, 6], [4, 5] and [3, 4, 6] have no low
    # bits (flat): U adds them as numbers after its cached prefix of three
    # terms, and W_4 and W_6 are one number per chunk, W_6's sum starting
    # with the coefficient -0.0.  Sites 0 and 1 are the site prefix; the
    # pair (0, 1) has a low W, (0, 2) a mixed one and (4, 6) a flat one.
    "flat_terms": (
        7,
        [
            ([0, 1], -1.0),
            ([], 0.3),
            ([1, 2], -0.8),
            ([2, 3], 0.6),
            ([5, 6], -0.0),
            ([4, 5], 0.5),
            ([3, 4, 6], -0.45),
            ([2, 5], 0.25),
        ],
    ),
    # Fewer sites than the chunk bits: one short chunk, everything cached.
    "below_chunk_bits": (3, [([0, 1, 2], 0.5), ([], -0.25), ([1], 1.0)]),
}

# Nine alphas: more than _ALPHA_GROUP, so the scan takes two passes.
KERNEL_ALPHAS = [0.0, 0.3, 0.7, 1.0, 1.6, 2.0, 2.5, 3.1, 4.0]


def _kernel_case(name):
    n, terms = KERNEL_POTENTIALS[name]
    pot = ClassicalPotential.from_terms(n, terms)
    # (0, n-1) and (1, n-2) put a site in the high bits; (1, 1) is a repeat
    pairs = [(0, n - 1), (0, 1), (1, n - 2), (1, 1)]
    return pot, pairs


@pytest.mark.parametrize("bits", [2, 4])
@pytest.mark.parametrize("name", sorted(KERNEL_POTENTIALS))
def test_enumeration_kernel_equals_decoded_spins_per_chunk(name, bits, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
    pot, _ = _kernel_case(name)
    enum = classical._Enumeration(pot)
    out = enum.buffer()
    assert enum.chunk_count == 1 << max(0, pot.n_sites - bits)
    # Selected out of order: each chunk's selection is its own, as on the
    # worker threads, and the first chunk's stays as it was built.
    order = list(range(1, enum.chunk_count, 2)) + list(range(0, enum.chunk_count, 2))
    chunks = list(classical._mask_chunks(pot.n_sites))
    assert len(chunks) == enum.chunk_count
    for k in order:
        chunk = classical._Chunk(enum, k, enum.buffer())
        spins = spins_from_masks(chunks[k], pot.n_sites)
        assert chunk.high_popcount == bin(k).count("1")
        # compared as bytes, so that a signed zero counts too
        assert chunk._energy(out).tobytes() == pot.value_many(spins).tobytes()
        for sites_mask in range(1 << pot.n_sites):
            terms = enum.odd_terms(sites_mask)
            want = pot.flip_energy_many(spins, sites_mask).tobytes()
            assert chunk._flip_energy(terms, out).tobytes() == want
            if all(enum.flat[t] for t in terms):
                assert np.full(len(out), chunk._flat_flip_energy(terms)).tobytes() == want
    spins = spins_from_masks(chunks[0], pot.n_sites)
    assert enum.energy(out).tobytes() == pot.value_many(spins).tobytes()


def _decoded_partition_function(pot, alpha):
    """partition_function on decoded spins, chunk by chunk like the kernel."""
    chunks = list(classical._mask_chunks(pot.n_sites))
    energies = [pot.value_many(spins_from_masks(m, pot.n_sites)) for m in chunks]
    shift = min(e.min() for e in energies)
    total = 0.0
    for energy in energies:
        total += np.exp(-alpha * (energy - shift)).sum()
    return float(total) * math.exp(-alpha * shift)


@pytest.mark.parametrize("bits", [2, 4])
@pytest.mark.parametrize("name", sorted(KERNEL_POTENTIALS))
def test_mask_native_routes_equal_decoded_routes_across_chunks(name, bits, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
    pot, pairs = _kernel_case(name)
    spins = spins_from_masks(np.arange(1 << pot.n_sites), pot.n_sites)
    assert classical._min_energy(classical._Enumeration(pot)) == pot.value_many(spins).min()
    for alpha in (0.0, 0.7, 3.1):
        assert partition_function(pot, alpha) == _decoded_partition_function(pot, alpha)
    for sites_mask in range(1 << pot.n_sites):
        want = float(np.abs(pot.flip_energy_many(spins, sites_mask)).max())
        assert max_abs_flip_energy(pot, sites_mask) == want
    batched = order_parameter_averages(pot, KERNEL_ALPHAS, pairs)
    assert len(batched) == len(KERNEL_ALPHAS)
    for got, alpha in zip(batched, KERNEL_ALPHAS):
        assert got == gibbs_averages(order_parameter_functionals(pot, alpha, pairs), pot, alpha)


# Blocks that split: with _LEAF_BITS 7 a summation block of 2^b masks runs
# as 2^depth leaves of 128 masks, depth = b - 7, whose sums _join_leaves
# adds pairwise.  The cases below cover depths 1 to 3, each on one block
# and on two or more.  The first term has high bits (no energy prefix); [1]
# has the coefficient -0.0; [6, 7] and [5, 7, 8] straddle the leaf
# boundary at site 7, [9, 10] the block boundary at _CHUNK_BITS 10 and
# [2, 10] both.  [7, 8], [8, 9] (-0.0), [9] and [9, 10] have no low bits,
# and W_9 sees only those, so it is one number per leaf.  Each case drops
# the terms on sites it lacks.
SPLIT_POTENTIAL = (
    11,
    [
        ([0, 8], 0.4),
        ([1], -0.0),
        ([], 0.75),
        ([0, 1], -1.0),
        ([1, 2], -0.8),
        ([2, 3, 4], 0.3),
        ([3, 4], -0.6),
        ([4, 5], -0.9),
        ([5, 6], -0.7),
        ([6, 7], 0.45),
        ([5, 7, 8], 0.35),
        ([7, 8], -0.5),
        ([8, 9], -0.0),
        ([9], 0.2),
        ([9, 10], 0.15),
        ([2, 10], -0.3),
    ],
)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, bits", [(9, 8), (10, 8), (9, 9), (10, 9), (10, 10), (11, 10)])
def test_split_blocks_equal_the_decoded_routes(n, bits, workers, monkeypatch):
    monkeypatch.setattr(classical, "_LEAF_BITS", 7)
    monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
    monkeypatch.setattr(classical, "_WORKERS", workers)
    started = _threads_started(monkeypatch)
    _, terms = SPLIT_POTENTIAL
    pot = ClassicalPotential.from_terms(n, [(s, c) for s, c in terms if max(s, default=0) < n])
    enum = classical._Enumeration(pot)
    depth = min(n, bits) - 7
    assert (enum.depth, enum.bits) == (depth, 7)
    blocks = len(list(classical._mask_chunks(n)))
    assert enum.chunk_count == blocks << depth
    for alpha in (0.0, 0.7, 3.1):
        assert partition_function(pot, alpha) == _decoded_partition_function(pot, alpha)
    pairs = [(0, n - 1), (0, 1), (1, n - 2), (1, 1)]
    batched = order_parameter_averages(pot, KERNEL_ALPHAS, pairs)
    assert len(batched) == len(KERNEL_ALPHAS)
    for got, alpha in zip(batched, KERNEL_ALPHAS):
        assert got == gibbs_averages(order_parameter_functionals(pot, alpha, pairs), pot, alpha)
    # two workers share the blocks, one block runs on the calling thread
    assert bool(started) == (workers == 2 and blocks >= 2)


def test_only_blocks_above_the_leaf_size_run_as_leaves(monkeypatch):
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 9), 1.0)
    # at the default leaves of 2^14 masks every block of 9 sites runs whole
    for bits in (7, 8, 16):
        monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
        enum = classical._Enumeration(pot)
        assert (enum.depth, enum.bits) == (0, min(9, bits))
    monkeypatch.setattr(classical, "_LEAF_BITS", 7)
    for bits, depth in [(7, 0), (8, 1), (16, 2)]:
        monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
        enum = classical._Enumeration(pot)
        assert (enum.depth, enum.bits) == (depth, min(9, bits) - depth)
    # the operators' one-chunk kernel stays whole
    enum = classical._Enumeration(pot, chunk_bits=9)
    assert enum.depth == 0 and enum.chunk_count == 1


def _mixed_values(count: int, seed: int) -> np.ndarray:
    """count doubles of both signs over forty binades, one of them -0.0."""
    values = uniform(seed, 0, count) * 2.0 ** np.floor(20.0 * uniform(seed, count, count))
    values[count // 3] = -0.0
    return values


def _tree_sum(leaf_sums: list) -> np.ndarray:
    """Adjacent sums added until one is left: ((l0 + l1) + (l2 + l3))."""
    while len(leaf_sums) > 1:
        leaf_sums = [a + b for a, b in zip(leaf_sums[::2], leaf_sums[1::2])]
    return leaf_sums[0]


# The exact scan's join (_join_leaves) adds the np.add.reduce sums of a
# block's leaves pairwise and must have the bits of the whole block's: the
# two tests below check that for leaves of 2^j masks, j from 7 to 15, on a
# block of 2^16.  A leaf below 2^7 values is smaller than numpy's unrolled
# base case, which sums 128 values in eight interleaved lanes, not as two
# halves.
TREE_LEAF_BITS = range(7, 16)


def test_numpy_reduces_a_block_as_the_tree_of_its_leaves():
    assert classical._LEAF_BITS >= TREE_LEAF_BITS[0]
    values = _mixed_values(1 << 16, seed=16)
    whole = np.add.reduce(values).tobytes()
    for j in TREE_LEAF_BITS:
        leaves = values.reshape(-1, 1 << j)
        joined = _tree_sum([np.add.reduce(leaf) for leaf in leaves])
        assert joined.tobytes() == whole, (
            f"np.add.reduce of 2^16 values is not the tree sum of its 2^{j}-value "
            "leaves' reductions: classical._join_leaves no longer has the block's bits"
        )


def test_numpy_row_reductions_equal_the_tree_of_their_leaves():
    # The exact scan reduces (alphas x masks) leaves along axis 1 and must
    # have the bits of the witness's 1-D reductions of whole blocks.
    rows = _mixed_values(3 << 16, seed=1).reshape(3, 1 << 16)
    assert rows.flags.c_contiguous
    want = np.array([np.add.reduce(row) for row in rows]).tobytes()
    assert np.add.reduce(rows, axis=1).tobytes() == want, (
        "np.add.reduce(axis=1) differs from each row's 1-D reduction"
    )
    for j in TREE_LEAF_BITS:
        starts = range(0, 1 << 16, 1 << j)
        leaves = [np.ascontiguousarray(rows[:, k : k + (1 << j)]) for k in starts]
        joined = _tree_sum([np.add.reduce(leaf, axis=1) for leaf in leaves])
        assert joined.tobytes() == want, (
            f"the tree sum of the row reductions of 2^{j}-value leaves differs from "
            "each row's 1-D reduction: the exact scan's leaf sums, which "
            "classical._join_leaves adds, no longer have the witness's bits"
        )


def _flat_case():
    n, terms = KERNEL_POTENTIALS["flat_terms"]
    return ClassicalPotential.from_terms(n, terms), [(0, 1), (0, 2), (4, 6), (3, 3)]


@pytest.mark.parametrize("workers", [1, 2])
def test_flat_and_low_flip_energies_equal_decoded_spins(workers, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK_BITS", 3)
    monkeypatch.setattr(classical, "_WORKERS", workers)
    pot, pairs = _flat_case()
    batched = order_parameter_averages(pot, KERNEL_ALPHAS, pairs)
    for got, alpha in zip(batched, KERNEL_ALPHAS):
        assert got == gibbs_averages(order_parameter_functionals(pot, alpha, pairs), pot, alpha)


def test_flat_sites_are_numbers_and_low_pairs_are_shared(monkeypatch):
    # Which flip energies each chunk evaluates as arrays: neither the flat
    # sites 4 and 6 (numbers per chunk) nor the low pair (0, 1) and the
    # repeated site (3, 3), whose flip set is empty: their W is taken once
    # from the first chunk and shared.
    monkeypatch.setattr(classical, "_CHUNK_BITS", 3)
    monkeypatch.setattr(classical, "_WORKERS", 2)
    pot, pairs = _flat_case()
    enum = classical._Enumeration(pot)
    arrays, numbers = [], []
    flip_energy = classical._Chunk._flip_energy
    flat_flip_energy = classical._Chunk._flat_flip_energy

    def spy_arrays(chunk, terms, out):
        arrays.append((chunk is chunk.enum.first, tuple(terms)))
        return flip_energy(chunk, terms, out)

    def spy_numbers(chunk, terms):
        numbers.append(tuple(terms))
        return flat_flip_energy(chunk, terms)

    monkeypatch.setattr(classical._Chunk, "_flip_energy", spy_arrays)
    monkeypatch.setattr(classical._Chunk, "_flat_flip_energy", spy_numbers)
    order_parameter_averages(pot, KERNEL_ALPHAS, pairs)
    site = [tuple(enum.odd_terms(1 << x)) for x in range(pot.n_sites)]
    pair = [tuple(enum.odd_terms((1 << x) ^ (1 << y))) for x, y in pairs]
    assert pair[3] == ()
    per_pass = enum.chunk_count
    passes = 2  # nine alphas, _ALPHA_GROUP 8
    assert sorted(numbers) == sorted([site[4], site[6]] * per_pass * passes)
    once = [site[0], site[1]] * passes + [pair[0], pair[3]]
    per_chunk = [site[2], site[3], site[5], pair[1], pair[2]] * per_pass * passes
    assert sorted(arrays) == sorted([(True, t) for t in once] + [(False, t) for t in per_chunk])


def test_order_parameter_scan_peak_memory_at_19_sites(monkeypatch):
    # Each worker holds per leaf of 2^14 masks U, W_x (later mz^2) and its
    # scratch, and per alpha a row of weights and a row of its accumulator
    # (site-flip sums, later scratch), and its popcounts: 1.2 MiB here.  The
    # workers share the low-bit sign rows (one byte per term and mask), the
    # cached energy, the cached site-flip prefix per alpha and W_{x,y} of
    # both pairs, whose odd terms lie in the low bits: 1.2 MiB.  Two workers
    # peak at 3.6 MiB with numpy 2.4; the bound leaves 0.9 MiB.
    monkeypatch.setattr(classical, "_WORKERS", 2)
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 19), 1.0)
    assert _scan_peak(pot, [(0, 5), (4, 12)]) < 4.5 * 2**20


def test_order_parameter_scan_memory_per_low_pair(monkeypatch):
    # Eight more low pairs add each a shared W_{x,y} (a float64 array over
    # a kernel chunk) and a z sign row (int8), 2.25 MiB in all, not a
    # W_{x,y} per worker (4 MiB more on two).
    monkeypatch.setattr(classical, "_WORKERS", 2)
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 19), 1.0)
    chunk = classical._Enumeration(pot).buffer().nbytes
    two = _scan_peak(pot, [(0, 3), (1, 4)])
    ten = _scan_peak(pot, [(x, x + 3) for x in range(10)])
    assert ten - two < 8 * (chunk + chunk // 8) + 2 * chunk


def _scan_peak(pot, pairs) -> int:
    """Peak traced bytes of an exact scan over three alphas."""
    tracemalloc.start()
    try:
        order_parameter_averages(pot, [0.5, 1.0, 2.0], pairs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _threads_started(monkeypatch) -> list:
    """A list that records every thread the scans start."""
    started = []

    class Recorded(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(classical.threading, "Thread", Recorded)
    return started


def _order_parameter_bytes(pot, pairs) -> bytes:
    return np.array(order_parameter_averages(pot, KERNEL_ALPHAS, pairs)).tobytes()


def _scan_bytes(pot, pairs) -> bytes:
    """Every exact scan of the kernel on pot, as the bytes of its values."""
    values = [partition_function(pot, alpha) for alpha in (0.0, 0.7, 3.1)]
    values += [max_abs_flip_energy(pot, m) for m in range(1 << pot.n_sites)]
    return _order_parameter_bytes(pot, pairs) + np.array(values).tobytes()


@pytest.mark.parametrize("name", sorted(KERNEL_POTENTIALS))
def test_scans_equal_bit_for_bit_on_one_and_two_workers(name, monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK_BITS", 2)
    pot, pairs = _kernel_case(name)
    started = _threads_started(monkeypatch)
    monkeypatch.setattr(classical, "_WORKERS", 1)
    one = _scan_bytes(pot, pairs)
    assert started == []
    monkeypatch.setattr(classical, "_WORKERS", 2)
    assert _scan_bytes(pot, pairs) == one
    # one thread beside the caller per scan: the shift and two alpha groups
    # of the order parameters, shift and sum per Z, and each max |W_A|
    assert len(started) == 3 + 2 * 3 + (1 << pot.n_sites)
    assert not any(thread.is_alive() for thread in started)


def test_scan_stress_more_workers_than_cpus(monkeypatch):
    # 64 chunks on 8 workers that switch as often as the interpreter lets
    # them: each chunk must be taken once and its result kept in its slot.
    monkeypatch.setattr(classical, "_CHUNK_BITS", 1)
    monkeypatch.setattr(classical, "_WORKERS", 8)
    pot, pairs = _kernel_case("prefix_mid_lattice")
    enum = classical._Enumeration(pot)
    taken = []

    def start_worker():
        return lambda chunk: taken.append(chunk.high) or chunk.high

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = classical._scan(enum, start_worker)
        stressed = _order_parameter_bytes(pot, pairs)
    finally:
        sys.setswitchinterval(interval)
    assert results == [k << 1 for k in range(64)]
    assert sorted(taken) == results
    monkeypatch.setattr(classical, "_WORKERS", 1)
    assert stressed == _order_parameter_bytes(pot, pairs)


def test_scan_workers_are_the_usable_cpus_capped_by_the_chunks(monkeypatch):
    started = _threads_started(monkeypatch)
    monkeypatch.setattr(classical, "_usable_cpus", lambda: 3)
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 6), 1.0)
    # partition_function scans twice: the shift, then the sum
    for bits, threads_per_scan in [(6, 0), (5, 1), (2, 2)]:
        monkeypatch.setattr(classical, "_CHUNK_BITS", bits)
        started.clear()
        partition_function(pot, 1.0)
        assert len(started) == 2 * threads_per_scan, bits


def test_a_one_block_scan_starts_no_thread(monkeypatch):
    # One summation block, run as 2^depth leaves: a second worker would have
    # no block of its own, so none is started.  16 sites at the default
    # leaves of 2^14 masks, and 10 sites at leaves of 2^7.
    def refuse(*args, **kwargs):
        raise AssertionError("a one-block scan started a thread")

    monkeypatch.setattr(classical.threading, "Thread", refuse)
    monkeypatch.setattr(classical, "_WORKERS", 8)
    for n, leaf_bits, depth in [(16, 14, 2), (10, 7, 3)]:
        monkeypatch.setattr(classical, "_LEAF_BITS", leaf_bits)
        pot = ClassicalPotential.ising_nn(build_hypercube(1, n), 1.0)
        enum = classical._Enumeration(pot)
        assert enum.depth == depth and enum.chunk_count == 1 << depth
        partition_function(pot, 1.0)
        order_parameter_averages(pot, [0.5, 1.0, 2.0], [(0, n - 1)])


def test_usable_cpus_without_affinity(monkeypatch):
    monkeypatch.delattr(classical.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(classical.os, "cpu_count", lambda: 5)
    assert classical._usable_cpus() == 5
    monkeypatch.setattr(classical.os, "cpu_count", lambda: None)
    assert classical._usable_cpus() == 1


def test_scan_worker_error_reaches_the_caller(monkeypatch):
    monkeypatch.setattr(classical, "_CHUNK_BITS", 2)
    monkeypatch.setattr(classical, "_WORKERS", 2)
    started = _threads_started(monkeypatch)
    energy = classical._Chunk._energy

    def failing(chunk, out):
        if chunk.high:
            raise MemoryError("chunk")
        return energy(chunk, out)

    monkeypatch.setattr(classical._Chunk, "_energy", failing)
    with pytest.raises(MemoryError, match="chunk"):
        partition_function(ClassicalPotential.ising_nn(build_hypercube(1, 6), 1.0), 1.0)
    assert len(started) == 1 and not started[0].is_alive()


def test_scan_workers_keep_the_callers_numpy_error_state(monkeypatch):
    # exp(-(alpha/2) W) overflows at alpha=800 inside the workers; the scan
    # silences that, and the non-finite average ends in a named error.
    monkeypatch.setattr(classical, "_CHUNK_BITS", 2)
    monkeypatch.setattr(classical, "_WORKERS", 2)
    started = _threads_started(monkeypatch)
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 8), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericRangeError, match="alpha=800"):
            order_parameter_averages(pot, [1.0, 800.0], [(0, 3)])
    assert started


def test_order_parameter_averages_cap_and_alpha_validation():
    pot = ClassicalPotential.zero(6)
    with pytest.raises(SizeCapError, match="cap of 5"):
        order_parameter_averages(pot, [1.0], [(0, 1)], cap=5)
    with pytest.raises(ConstraintError):
        order_parameter_averages(pot, [1.0, -0.5], [(0, 1)])


@pytest.mark.parametrize("pair", [(0, 9), (-1, 3), (7, 2)])
def test_order_parameter_averages_reject_a_pair_site_outside_the_lattice(pair):
    pot = _three_body_potential()
    with pytest.raises(ConstraintError, match="outside the 7 sites"):
        order_parameter_averages(pot, [1.0], [(0, 1), pair])


@pytest.mark.parametrize("sites_mask", [1 << 7, 1 << 9, -1])
def test_max_abs_flip_energy_rejects_a_flip_set_outside_the_lattice(sites_mask):
    with pytest.raises(ConstraintError, match="outside the 7 sites"):
        max_abs_flip_energy(_three_body_potential(), sites_mask)


def test_max_abs_flip_energy_is_mask_native_and_capped():
    pot = _three_body_potential()
    spins = spins_from_masks(np.arange(1 << 7), 7)
    for sites_mask in (0b1, 0b100, 0b1001100):
        want = float(np.abs(pot.flip_energy_many(spins, sites_mask)).max())
        assert max_abs_flip_energy(pot, sites_mask) == want
    with pytest.raises(SizeCapError, match="cap of 6"):
        max_abs_flip_energy(pot, 0b1, cap=6)


# Negative controls: at large alpha on the 8-site Ising chain the shift
# rescaling overflows (alpha=120) and exp(-(alpha/2) W) overflows against an
# underflowed weight (alpha=800); both must end in a named error.


def test_partition_function_overflow_is_a_named_error():
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 8), 1.0)
    assert math.isfinite(partition_function(pot, 100.0))
    with pytest.raises(NumericRangeError, match="alpha=120"):
        partition_function(pot, 120.0)
    # the rescaling's exponent overflows too: once a numpy warning, and a
    # traceback from the workers' product under the suite's warning filter
    with pytest.raises(NumericRangeError, match=r"alpha=1e\+308"):
        partition_function(pot, 1e308)


@pytest.mark.parametrize("alpha", [240.0, 700.0], ids=["subnormal", "zero"])
def test_partition_function_underflow_is_a_named_error(alpha):
    # Z = 16 exp(-3 alpha) for the constant U = 3 on 4 sites: subnormal at
    # alpha=240, 0.0 at alpha=700; both once passed as valid values.
    pot = ClassicalPotential.from_terms(4, [([], 3.0)])
    assert partition_function(pot, 200.0) == pytest.approx(16.0 * math.exp(-600.0))
    with pytest.raises(NumericRangeError, match=f"alpha={alpha:g}"):
        partition_function(pot, alpha)


def test_non_finite_average_is_a_named_error():
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 8), 1.0)
    with pytest.raises(NumericRangeError, match="alpha=800"):
        classical_expectation(flip_weight(pot, 800.0, 0b11), pot, 800.0)
    with pytest.raises(NumericRangeError, match="alpha=800"):
        order_parameter_averages(pot, [1.0, 800.0], [(0, 3)])
    # the z observables alone stay finite at the same alpha
    assert classical_expectation(spin_product(0, 3), pot, 800.0) == 1.0


def test_non_finite_metropolis_estimate_is_a_named_error():
    samples = np.ones((64, 3), dtype=np.int8)
    with pytest.raises(NumericRangeError):
        estimate_from_samples(lambda s: np.full(s.shape[0], np.inf), samples)


# ---------------------------------------------------------------------------
# Metropolis
# ---------------------------------------------------------------------------


def test_metropolis_uniform_at_zero_alpha():
    lat = build_hypercube(1, 6)
    pot = ClassicalPotential.ising_nn(lat, 1.0)
    samples, acceptance = metropolis_samples(pot, 0.0, sweeps=4000, burn_in=200, seed=5)
    estimate, std_error = estimate_from_samples(spin_product(2), samples)
    assert acceptance == 1.0
    assert abs(estimate) <= 3 * std_error


def test_metropolis_constant_observable_is_exact():
    pot = ClassicalPotential.zero(4)
    samples, _ = metropolis_samples(pot, 0.9, sweeps=500, burn_in=50, seed=1)
    estimate, std_error = estimate_from_samples(spin_product(), samples)
    assert estimate == 1.0
    assert std_error == 0.0


def test_metropolis_matches_enumeration():
    lat = build_hypercube(1, 8)
    pot = ClassicalPotential.ising_nn(lat, 1.0)
    exact = classical_expectation(spin_product(0, 1), pot, 0.5)
    samples, _ = metropolis_samples(pot, 0.5, sweeps=20000, burn_in=2000, seed=42)
    estimate, std_error = estimate_from_samples(spin_product(0, 1), samples)
    assert abs(estimate - exact) <= 3 * std_error
    assert std_error < 0.05


def test_metropolis_deterministic_given_seed():
    pot = ClassicalPotential.from_terms(5, [([0, 1], -1.0), ([2, 3], -1.0)])
    a, _ = metropolis_samples(pot, 0.7, sweeps=200, burn_in=20, seed=9)
    b, _ = metropolis_samples(pot, 0.7, sweeps=200, burn_in=20, seed=9)
    assert np.array_equal(a, b)


def test_metropolis_draws_its_stream_as_documented():
    # A plain-Python chain on the published SplitMix64: proposal k of sweep t
    # takes its site from output 2(t n + k) and its acceptance uniform from
    # output 2(t n + k) + 1.  The flip energies are integers, so exact.
    n, alpha, seed, burn_in, sweeps = 5, 0.8, 2**64 - 3, 3, 4
    pot = ClassicalPotential.ising_nn(build_hypercube(1, n), 1.0)
    outputs = [z >> 11 for z in splitmix64(seed, 2 * (burn_in + sweeps) * n)]
    spins, rows, accepted = [1] * n, [], 0
    for t in range(burn_in + sweeps):
        for k in range(n):
            site_bits, uniform_bits = outputs[2 * (t * n + k) : 2 * (t * n + k) + 2]
            x = site_bits * n >> 53
            w = pot.flip_energy_many(np.array([spins], dtype=np.int8), 1 << x)[0]
            if w <= 0 or uniform_bits * 2.0**-53 < math.exp(-alpha * w):
                spins[x] = -spins[x]
                accepted += 1
        if t >= burn_in:
            rows.append(list(spins))
    samples, acceptance = metropolis_samples(
        pot, alpha, sweeps=sweeps, burn_in=burn_in, seed=seed
    )
    assert samples.tolist() == rows
    assert acceptance == accepted / ((burn_in + sweeps) * n)
    assert 0 < accepted < (burn_in + sweeps) * n


@pytest.mark.parametrize("block", [1, 7, classical._SWEEP_BLOCK])
def test_metropolis_samples_do_not_depend_on_the_block(monkeypatch, block):
    # 330 sweeps span two default blocks and end inside the last one
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 6), 1.0)
    run = lambda: metropolis_samples(pot, 0.7, sweeps=300, burn_in=30, seed=9)
    reference, reference_acceptance = run()
    monkeypatch.setattr(classical, "_SWEEP_BLOCK", block)
    samples, acceptance = run()
    assert samples.tobytes() == reference.tobytes()
    assert acceptance == reference_acceptance


@pytest.mark.parametrize("n", [3, 63, 64])
def test_proposal_sites_stay_below_n(n):
    # the largest 53-bit output picks site n - 1, never n; each site is
    # floor(b n / 2^53) exactly, also at the first output of each site
    top = 2**53 - 1
    first = [-(-(j << 53) // n) for j in range(n)]
    bits = [top, top, 0, 0] + [b for j in first for b in (j, j)]
    sites, uniforms = classical._proposals(np.array(bits, dtype=np.uint64), n)
    assert sites[:2] == [n - 1, 0]
    assert uniforms[:2] == [1 - 2.0**-53, 0.0]
    assert sites[2:] == list(range(n))
    assert all(0.0 <= u < 1.0 for u in uniforms)


def test_metropolis_refuses_a_wrapping_counter_before_allocating():
    # 2 (burn_in + sweeps) n outputs must stay below 2^64
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 4), 1.0)
    sweeps = (1 << 61) - 1
    with pytest.raises(ConstraintError, match="2\\^64 or more SplitMix64 outputs"):
        metropolis_samples(pot, 1.0, sweeps=sweeps, burn_in=1, seed=0)
    with pytest.raises(ConstraintError, match="do not fit in memory"):
        metropolis_samples(pot, 1.0, sweeps=sweeps - 1, burn_in=1, seed=0)


def test_one_sample_standard_error_is_a_named_error():
    # a single batch mean used to give an infinite standard error
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 4), 1.0)
    with pytest.raises(ConstraintError, match="at least 2 samples, got 1"):
        metropolis_averages([spin_product(0, 1)], pot, 1.0, sweeps=1, burn_in=1, seed=0)
    with pytest.raises(ConstraintError, match="at least 2 samples, got 1"):
        order_parameter_scan(pot, [1.0], [(0, 1)], cap=3, sweeps=1)
    [(_, std_error)], _ = metropolis_averages(
        [spin_product(0, 1)], pot, 1.0, sweeps=2, burn_in=1, seed=0
    )
    assert math.isfinite(std_error)


def test_metropolis_site_cap():
    with pytest.raises(SizeCapError):
        metropolis_samples(
            ClassicalPotential.zero(65), 1.0, sweeps=10, burn_in=1, seed=0
        )


def test_metropolis_rejects_negative_burn_in():
    # a negative burn-in would return uninitialised sample rows
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 4), 1.0)
    with pytest.raises(ConstraintError, match="burn_in"):
        metropolis_samples(pot, 1.0, sweeps=8, burn_in=-5, seed=0)
    with pytest.raises(ConstraintError, match="burn_in"):
        metropolis_samples(pot, 1.0, sweeps=8, burn_in=-1, seed=0)


def test_metropolis_rejects_a_negative_seed():
    # numpy's default_rng used to raise a bare ValueError here
    pot = ClassicalPotential.ising_nn(build_hypercube(1, 4), 1.0)
    with pytest.raises(ConstraintError, match="seed must be nonnegative, got -3"):
        metropolis_samples(pot, 1.0, sweeps=8, burn_in=1, seed=-3)


def test_default_burn_in_is_a_tenth_of_the_sweeps():
    assert [default_burn_in(s) for s in (1, 9, 10, 25, 200)] == [1, 1, 1, 2, 20]
    assert default_burn_in(200, 0) == 0 and default_burn_in(200, 7) == 7


def test_from_terms_rejects_a_repeated_site():
    # s_1 s_1 = 1, not the monomial s_1 a single-bit mask would encode
    with pytest.raises(ConstraintError, match="duplicate site index 1"):
        ClassicalPotential.from_terms(3, [([1, 1], 2.0)])


def test_brute_force_flip_oracle_agrees():
    # sanity for the oracle itself on a hand case
    terms = [([0, 1], -1.0)]
    assert brute_force_flip_energy(terms, (1, 1), {0}) == 2.0
