import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvalsh

from gibbs_ground import (
    Caps,
    ClassicalPotential,
    CouplingTable,
    ModelInstance,
    build_hypercube,
    classical_expectation,
    eigen_residual,
    groundstate_hypotheses,
    min_eigenvalue,
    order_parameter_scan,
    quantum_expectation,
    spin_product,
    sx_product_bound,
    trial_vector_checks,
    verify_model,
)
from gibbs_ground import classical, models, splitmix, verify
from gibbs_ground.errors import (
    ConstraintError,
    ConvergenceError,
    InternalConsistencyError,
    NonHermitianError,
    NumericRangeError,
    SizeCapError,
)
from gibbs_ground.lattice import nearest_neighbor_pairs
from gibbs_ground.operators import OperatorMatrix, apply, product_operator
from gibbs_ground.verify import max_abs_flip_energy

from .conftest import random_model, xxz_model
from .flip_terms import dense_from_operator, operator_from_dense
from .oracles import enumerate_spins, open_chain_correlation_closed_form


def _ising_chain_model(L, alpha, coupling=1.0, xx_weight=-1.0):
    lat = build_hypercube(1, L)
    return ModelInstance(
        lattice=lat,
        table=CouplingTable.xx_nearest_neighbor(lat, xx_weight),
        potential=ClassicalPotential.ising_nn(lat, coupling),
        alpha=alpha,
    )


def _sector_violating_model(alpha=0.5):
    """Ferro XX chain on 5 sites plus one coupling over all five sites with
    J_C(s) = +1/2 when 1 or 4 spins are down and -1/2 when 2 or 3 are.

    The flip graph splits into {all up} (block 0), {1 or 4 down} (10
    states), {2 or 3 down} (20 states, the largest) and {all down}.  Only
    the 10-state block carries the positive coupling, so only it has a
    negative eigenvalue.
    """
    n = 5
    lat = build_hypercube(1, n)
    bonds = nearest_neighbor_pairs(lat)
    entries = [(list(b), [], -1.0) for b in bonds] + [([], list(b), -1.0) for b in bonds]

    def coupling(spins):
        down = spins.count(-1)
        return 0.5 if down in (1, 4) else -0.5 if down in (2, 3) else 0.0

    # J_C(s) = sum over even y-sets B of (-i)^|B| phi(C \ B, B) s_B, so phi
    # is (-1)^(|B|/2) times the Fourier coefficient of the coupling on B.
    configs = list(enumerate_spins(n))
    for size in (0, 2, 4):
        for ys in itertools.combinations(range(n), size):
            coeff = sum(coupling(s) * math.prod(s[x] for x in ys) for s in configs) / 2**n
            xs = [x for x in range(n) if x not in ys]
            entries.append((xs, list(ys), (-1) ** (size // 2) * coeff))
    return ModelInstance(
        lattice=lat,
        table=CouplingTable.from_site_lists(n, entries),
        potential=ClassicalPotential.ising_nn(lat, 1.0),
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Spectral pieces
# ---------------------------------------------------------------------------


def test_eigen_residual_zero_matrix():
    zero = operator_from_dense(np.zeros((4, 4)))
    assert eigen_residual(zero, np.ones(4)) == 0.0
    with pytest.raises(ConstraintError):
        eigen_residual(zero, np.zeros(4))


def test_eigen_residual_randomized_even_models():
    rng = np.random.default_rng(101)
    for _ in range(50):
        model = random_model(rng, flavor="generic")
        residual = eigen_residual(model.h, model.state)
        assert residual <= 1e-10 * max(model.h.norm_max, 1e-300)


def test_eigen_residual_odd_models_reported():
    # mapping the domain of validity: the cancellation survives odd y-sets,
    # where the Hamiltonian is no longer Hermitian
    rng = np.random.default_rng(103)
    residuals = []
    for _ in range(10):
        model = random_model(rng, flavor="odd")
        assert not model.h.is_hermitian or not model.table.odd_entries
        residuals.append(eigen_residual(model.h, model.state) / max(model.h.norm_max, 1e-300))
    assert max(residuals) <= 1e-10


def test_min_eigenvalue_hand_case():
    lat = build_hypercube(1, 1)
    table = CouplingTable.from_site_lists(1, [([0], [], -1.0)])
    model = ModelInstance(
        lattice=lat, table=table, potential=ClassicalPotential.zero(1), alpha=0.7
    )
    result = min_eigenvalue(model.h)
    assert result.method == "dense"
    assert result.eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_min_eigenvalue_rejects_non_hermitian():
    lat = build_hypercube(1, 2)
    table = CouplingTable.from_site_lists(2, [([], [0], 1.0)])
    model = ModelInstance(
        lattice=lat, table=table, potential=ClassicalPotential.zero(2), alpha=0.5
    )
    with pytest.raises(NonHermitianError):
        min_eigenvalue(model.h)


def test_min_eigenvalue_negative_for_sign_violating_coupling():
    # a single positive x-coupling pushes an eigenvalue below zero
    lat = build_hypercube(1, 2)
    table = CouplingTable.from_site_lists(2, [([0], [], 0.8)])
    model = ModelInstance(
        lattice=lat, table=table, potential=ClassicalPotential.zero(2), alpha=0.3
    )
    assert min_eigenvalue(model.h).eigenvalue < -1e-6


def test_min_eigenvalue_iterative_path():
    lat = build_hypercube(1, 13)
    model = xxz_model(lat, -1.0, 0.4)
    result = min_eigenvalue(model.h)
    assert result.method == "iterative"
    assert result.eigenvalue >= -1e-8 * model.h.norm_max
    assert result.eigenvalue <= 1e-8 * model.h.norm_max


def test_min_eigenvalue_finds_negative_block_off_the_largest_and_first():
    model = _sector_violating_model()
    assert not groundstate_hypotheses(model.table).satisfied
    scale = model.h.norm_max
    dense = dense_from_operator(model.h)
    down = np.array([bin(m).count("1") for m in range(model.h.dim)])
    sector_min = {}
    for sector in [(0,), (1, 4), (2, 3), (5,)]:
        idx = np.flatnonzero(np.isin(down, sector))
        sector_min[sector] = eigvalsh(dense[np.ix_(idx, idx)])[0]
    assert sector_min[(1, 4)] < -0.1
    for sector in [(0,), (2, 3), (5,)]:
        assert sector_min[sector] >= -1e-12 * scale

    blocked = min_eigenvalue(model.h)
    assert (blocked.method, blocked.blocks, blocked.largest_block) == ("dense", 4, 20)
    iterative = min_eigenvalue(model.h, dense_sites=4)
    assert iterative.method == "iterative"
    for result in (blocked, iterative):
        assert abs(result.eigenvalue - sector_min[(1, 4)]) <= 1e-12 * scale


# The ids name the largest dimension solved densely, 2^dense_sites.
@pytest.mark.parametrize(
    "dense_sites, method",
    [(5, "dense"), (4, "iterative")],
    ids=["32-dense", "16-iterative"],
)
def test_verify_model_fails_sector_local_sign_violation(
    monkeypatch, dense_sites, method
):
    # Report the hypotheses as satisfied, so ground_energy is asserted and
    # must catch the violation on its own.
    scan = verify.groundstate_hypotheses
    monkeypatch.setattr(
        verify,
        "groundstate_hypotheses",
        lambda table, **kw: dataclasses.replace(scan(table, **kw), satisfied=True),
    )
    model = dataclasses.replace(
        _sector_violating_model(), caps=Caps(dense_sites=dense_sites)
    )
    report = verify_model(model, trials=5, seed=1)
    ground = {r.name: r for r in report.records}["ground_energy"]
    assert ground.asserted and not ground.passed
    assert ground.details["method"] == method
    assert not report.all_passed


@pytest.mark.parametrize("flavor, seed", [("ferro", 211), ("generic", 223)])
def test_min_eigenvalue_matches_full_dense_spectrum(flavor, seed):
    rng = np.random.default_rng(seed)
    for _ in range(10):
        model = random_model(rng, flavor=flavor)
        expected = eigvalsh(dense_from_operator(model.h))[0]
        result = min_eigenvalue(model.h)
        assert result.method == "dense"
        assert abs(result.eigenvalue - expected) <= 1e-12 * model.h.norm_max


def test_min_eigenvalue_complex_hermitian_blocks():
    rng = np.random.default_rng(227)
    dim = 64
    labels = rng.integers(3, size=dim)
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    raw *= labels[:, None] == labels[None, :]
    dense = raw + raw.conj().T
    h = operator_from_dense(dense)
    expected = eigvalsh(dense)[0]
    # dropping the imaginary parts would give a visibly different minimum
    assert abs(eigvalsh(dense.real)[0] - expected) > 1e-3
    result = min_eigenvalue(h)
    assert (result.blocks, result.largest_block) == (3, np.bincount(labels).max())
    iterative = min_eigenvalue(h, dense_sites=4)
    assert iterative.method == "iterative"
    for spectral in (result, iterative):
        assert abs(spectral.eigenvalue - expected) <= 1e-12 * h.norm_max


def test_min_eigenvalue_exact_eigenvalue_falls_back_to_full_solve():
    # An eigenvalue met exactly makes the inverse-iteration solve singular:
    # 1x1 blocks of a diagonal operator, and X on one site.
    diagonal = operator_from_dense(np.diag([3.0, -2.0, 5.0, -2.0]))
    x = operator_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    for h, expected in [(diagonal, -2.0), (x, -1.0)]:
        result = min_eigenvalue(h)
        assert result.method == "dense"
        assert result.eigenvalue == expected
        assert result.residual <= 1e-15


def _near_degenerate_operator(dim):
    """A random complex Hermitian operator with spectrum -1, -1 + 1e-9 and
    dim - 2 values uniform in [0, 2)."""
    rng = np.random.default_rng(229)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    spectrum = np.concatenate([[-1.0, -1.0 + 1e-9], rng.uniform(0.0, 2.0, dim - 2)])
    return operator_from_dense((q * spectrum) @ q.conj().T)


def test_min_eigenvalue_near_degenerate_ground_pair():
    # Inverse iteration at the lowest eigenvalue, with the next one 1e-9
    # above it, still returns a vector of the pair: the residual stays at
    # rounding level.
    h = _near_degenerate_operator(32)
    result = min_eigenvalue(h)
    assert (result.blocks, result.largest_block) == (1, 32)
    assert abs(result.eigenvalue + 1.0) <= 1e-13
    assert result.residual <= 1e-13


def test_min_eigenvalue_iterative_near_degenerate_ground_pair():
    # Lanczos on a complex 256-state operator whose two lowest eigenvalues
    # are 1e-9 apart: the value and the residual stay at rounding level.
    h = _near_degenerate_operator(256)
    result = min_eigenvalue(h, dense_sites=4)
    assert (result.method, result.blocks, result.largest_block) == ("iterative", 1, 256)
    assert abs(result.eigenvalue + 1.0) <= 1e-13
    assert result.residual <= 1e-13


def test_min_eigenvalue_iterative_budget_raises_convergence_error(monkeypatch):
    # Negative control: the budget counts products with H, and 5 of them
    # cannot resolve the lowest of 256 eigenvalues.
    h = _near_degenerate_operator(256)
    products = []
    monkeypatch.setattr(verify, "apply", lambda op, v: products.append(1) or apply(op, v))
    monkeypatch.setattr(verify, "LANCZOS_MAX_PRODUCTS", 5)
    with pytest.raises(ConvergenceError, match="within 5 products"):
        min_eigenvalue(h, dense_sites=4)
    assert len(products) == 5


def _one_block_model(L):
    """XX chain on L sites plus X on site 0, ([0], [], -0.5): the single
    flip links the two parity sectors, so the flip graph is one block."""
    lat = build_hypercube(1, L)
    bonds = nearest_neighbor_pairs(lat)
    entries = [(list(b), [], -1.0) for b in bonds] + [([], list(b), -1.0) for b in bonds]
    return ModelInstance(
        lattice=lat,
        table=CouplingTable.from_site_lists(L, entries + [([0], [], -0.5)]),
        potential=ClassicalPotential.ising_nn(lat, 1.0),
        alpha=1.0,
    )


@pytest.mark.parametrize(
    "make, blocks",
    [(_sector_violating_model, (4, 20)), (lambda: _one_block_model(8), (1, 256))],
    ids=["sectors", "one-block"],
)
def test_min_eigenvalue_blocks_match_the_dense_oracle(make, blocks):
    # Every block's lowest eigenvalue comes from eigvalsh, and the winner's
    # vector from one inverse-iteration step: on blocks of 1, 10, 20 and 1
    # states, and on one block of 256, the value matches the full dense
    # spectrum and the residual stays at rounding level.
    model = make()
    result = min_eigenvalue(model.h)
    assert result.method == "dense"
    assert (result.blocks, result.largest_block) == blocks
    expected = eigvalsh(dense_from_operator(model.h))[0]
    assert abs(result.eigenvalue - expected) <= 1e-12 * model.h.norm_max
    assert result.residual <= 1e-12 * model.h.norm_max


def _two_block_model(L):
    """XX bonds of weight -1/2 and YY bonds of weight -1 on L sites, with an
    antiferromagnetic Ising potential: unequal weights break the
    magnetization sectors, so the flip graph splits into its two parity
    blocks of 2^(L-1) states, and the even one, block 0, holds the lowest
    eigenvalue."""
    lat = build_hypercube(1, L)
    bonds = nearest_neighbor_pairs(lat)
    entries = [(list(b), [], -0.5) for b in bonds] + [([], list(b), -1.0) for b in bonds]
    return ModelInstance(
        lattice=lat,
        table=CouplingTable.from_site_lists(L, entries),
        potential=ClassicalPotential.ising_nn(lat, -1.0),
        alpha=1.0,
    )


@pytest.mark.parametrize(
    "make, blocks",
    [(lambda: _one_block_model(10), 1), (lambda: _two_block_model(10), 2)],
    ids=["one-block", "first-of-two"],
)
def test_min_eigenvalue_holds_one_block_at_a_time(make, blocks):
    # tracemalloc sees numpy's arrays, not LAPACK's copies: the dense route
    # holds one block at a time, shifts the winner's in place, and keeps
    # only the winner's bounds while later blocks are solved (8 MiB for the
    # one block of 1024 float64 states, 2 MiB for each of 512).  Holding the
    # winner beside the next block, or building block - lam*I out of place,
    # takes 2 or 3 blocks.
    model = make()
    h = model.h
    min_eigenvalue(h)  # builds the row table and the flip-graph labels
    tracemalloc.start()
    try:
        result = min_eigenvalue(h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.method, result.blocks) == ("dense", blocks)
    block_bytes = result.largest_block**2 * h.row_table[1].itemsize
    assert peak < 1.5 * block_bytes, (peak, block_bytes)
    if blocks == 2:
        dense = dense_from_operator(h)
        odd = np.array([m.bit_count() % 2 for m in range(h.dim)], dtype=bool)
        even_low, odd_low = (eigvalsh(dense[np.ix_(s, s)])[0] for s in (~odd, odd))
        assert even_low < odd_low - 1.0
        assert abs(result.eigenvalue - even_low) <= 1e-12 * h.norm_max
    assert result.residual <= 1e-12 * h.norm_max


@pytest.mark.parametrize(
    "block, lam",
    [(np.array([[-0.5]]), -0.5), (np.diag([0.0, 1.0, 2.0]), 0.0)],
    ids=["1x1", "diagonal"],
)
def test_lowest_vector_falls_back_on_an_exactly_singular_shift(block, lam):
    # The in-place shift makes block - lam*I exactly singular; the fallback
    # solves the shifted block, whose eigenvectors are the block's.
    vec = verify._lowest_vector(block.copy(), lam)
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-15
    assert np.linalg.norm(block @ vec - lam * vec) <= 1e-12


def test_dense_route_tie_goes_to_the_first_block(monkeypatch):
    # Blocks {0} and {1, 2} both have lowest eigenvalue exactly 0.0 (the
    # second is [[1, 1], [1, 1]]), and {3} has 5: the first block in label
    # order wins the tie, so inverse iteration runs on the 1x1 block.
    h = OperatorMatrix(2, {0: np.array([0, 1, 1, 5], complex), 3: np.array([0, 1, 1, 0], complex)})
    solved = []
    lowest_vector = verify._lowest_vector
    monkeypatch.setattr(
        verify, "_lowest_vector", lambda block, lam: solved.append(block.shape) or lowest_vector(block, lam)
    )
    result = min_eigenvalue(h)
    assert (result.eigenvalue, result.blocks, result.largest_block) == (0.0, 3, 2)
    assert solved == [(1, 1)]


def test_lanczos_stop_tolerance_scales_with_the_operator():
    # H times 2^20 is exact, and so is every step of Lanczos on it: the
    # stop test LANCZOS_RTOL * |H| must scale along, or the scaled chain
    # never converges.
    h = _ising_chain_model(6, 1.0).h
    scaled = OperatorMatrix(h.n_sites, {c: d * 2.0**20 for c, d in h.terms.items()})
    base = min_eigenvalue(h, dense_sites=0)
    result = min_eigenvalue(scaled, dense_sites=0)
    assert result.method == "iterative"
    assert result.eigenvalue == pytest.approx(2.0**20 * base.eigenvalue, rel=1e-12)


@pytest.mark.parametrize(
    "route, solver, fake, dense_sites",
    [
        ("dense", "_lowest_vector", lambda block, lam: np.full(len(block), np.nan), 12),
        ("iterative", "_lanczos_lowest", lambda h: np.full(h.dim, np.nan), 0),
    ],
    ids=["dense", "iterative"],
)
def test_min_eigenvalue_guard_rejects_a_nan_residual(monkeypatch, route, solver, fake, dense_sites):
    # Negative control: a NaN residual once passed `residual > tol` and the
    # record read passed.
    h = _ising_chain_model(4, 1.0).h
    monkeypatch.setattr(verify, solver, fake)
    with pytest.raises(InternalConsistencyError, match=f"{route} eigensolver residual nan"):
        min_eigenvalue(h, dense_sites=dense_sites)


def test_quantum_expectation_guard_rejects_a_nan():
    op = product_operator(1, 0b11, build_hypercube(1, 2))
    psi = np.array([1.0, np.nan, 1.0, 1.0])
    with pytest.raises(InternalConsistencyError, match="imaginary part nan"):
        quantum_expectation(op, psi)


@pytest.mark.parametrize("xx_weight", [-1.0, 1.0])
def test_iterative_route_agrees_with_dense_route(xx_weight):
    model = _ising_chain_model(9, 1.0, xx_weight=xx_weight)
    dense = min_eigenvalue(model.h)
    iterative = min_eigenvalue(model.h, dense_sites=8)
    assert dense.method == "dense"
    assert (iterative.method, iterative.blocks, iterative.largest_block) == (
        "iterative",
        1,
        512,
    )
    assert abs(iterative.eigenvalue - dense.eigenvalue) <= 1e-12 * model.h.norm_max


# ---------------------------------------------------------------------------
# Hypotheses
# ---------------------------------------------------------------------------


def test_sx_product_bound_follows_the_model_quantum_cap():
    lat = build_hypercube(1, 6)
    parts = dict(
        lattice=lat,
        table=CouplingTable.xx_nearest_neighbor(lat, -1.0),
        potential=ClassicalPotential.ising_nn(lat, 1.0),
        alpha=1.0,
    )
    full = sx_product_bound(ModelInstance(**parts), 0b11)
    capped = sx_product_bound(ModelInstance(**parts, caps=Caps(quantum_sites=4)), 0b11)
    assert full.details["quantum"] is not None
    assert capped.details["quantum"] is None
    assert capped.passed and capped.value == full.value


def test_hypotheses_ferro_xx():
    lat = build_hypercube(1, 4)
    ferro = CouplingTable.xx_nearest_neighbor(lat, -1.0)
    report = groundstate_hypotheses(ferro)
    assert report.satisfied and not report.odd_entries

    anti = CouplingTable.xx_nearest_neighbor(lat, 1.0)
    report = groundstate_hypotheses(anti)
    assert not report.satisfied
    assert report.positive_couplings


def test_hypotheses_odd_flag():
    table = CouplingTable.from_site_lists(3, [([], [1], 0.4)])
    report = groundstate_hypotheses(table)
    assert not report.satisfied
    assert report.odd_entries


def test_hypotheses_empty_table_vacuous():
    report = groundstate_hypotheses(CouplingTable(n_sites=3, entries=()))
    assert report.satisfied


def test_hypotheses_scan_every_chunk_of_assignments(monkeypatch):
    # J = -0.2 - 0.3 s_1 s_2 is positive only where s_1 s_2 = -1, which no
    # assignment in the first chunk of two has
    table = CouplingTable.from_site_lists(3, [([0, 1, 2], [], -0.2), ([0], [1, 2], 0.3)])
    monkeypatch.setattr(classical, "_CHUNK_BITS", 1)
    (positive,) = groundstate_hypotheses(table).positive_couplings
    assert positive == {"sites": [0, 1, 2], "max_value": pytest.approx(0.1)}
    with pytest.raises(SizeCapError, match="cap of 2"):
        groundstate_hypotheses(table, cap=2)


# ---------------------------------------------------------------------------
# Expectations, bounds, reduction
# ---------------------------------------------------------------------------


def test_quantum_expectation_identity_and_symmetry():
    model = _ising_chain_model(4, 0.0)
    ident = product_operator(1, 0, model.lattice)
    assert quantum_expectation(ident, model.state) == pytest.approx(1.0)
    z0 = product_operator(3, 0b1, model.lattice)
    assert quantum_expectation(z0, model.state) == pytest.approx(0.0, abs=1e-14)


def test_classical_reduction_identity():
    model = _ising_chain_model(6, 1.2)
    for x, y in [(0, 1), (0, 3), (2, 5)]:
        op = product_operator(3, (1 << x) | (1 << y), model.lattice)
        quantum = quantum_expectation(op, model.state)
        classical = classical_expectation(
            spin_product(x, y), model.potential, model.alpha
        )
        assert quantum == pytest.approx(classical, rel=1e-10)
        assert quantum == pytest.approx(
            open_chain_correlation_closed_form(1.2, abs(x - y)), rel=1e-10
        )


def test_sx_bound_alpha_zero_equality():
    model = _ising_chain_model(5, 0.0)
    record = sx_product_bound(model, 0b00011)
    assert record.passed
    assert record.value == pytest.approx(1.0, abs=1e-12)
    assert record.threshold == pytest.approx(1.0, abs=1e-12)


def test_sx_bound_free_site():
    # a site no potential term touches has W = 0 and expectation exactly 1
    lat = build_hypercube(1, 4)
    model = ModelInstance(
        lattice=lat,
        table=CouplingTable.xx_nearest_neighbor(lat, -1.0),
        potential=ClassicalPotential.from_terms(4, [([1, 2], -1.0)]),
        alpha=1.5,
    )
    record = sx_product_bound(model, 0b1000)
    assert record.passed
    assert record.value == pytest.approx(1.0, rel=1e-12)
    assert max_abs_flip_energy(model.potential, 0b1000) == 0.0


def test_checks_honour_enumeration_cap():
    model = dataclasses.replace(
        _ising_chain_model(10, 1.0), caps=Caps(enumeration_sites=8)
    )
    with pytest.raises(SizeCapError, match="cap of 8"):
        sx_product_bound(model, 0b11)
    with pytest.raises(SizeCapError, match="cap of 8"):
        model.partition_value()
    with pytest.raises(SizeCapError, match="cap of 8"):
        verify_model(model, trials=2)
    # a cap the model fits under changes nothing in the report
    small = _ising_chain_model(6, 1.0)
    capped = dataclasses.replace(small, caps=Caps(enumeration_sites=6))
    assert (
        verify_model(capped, trials=2).to_payload()
        == verify_model(small, trials=2).to_payload()
    )


def test_sx_bound_classical_only_between_caps():
    # 16 sites: enumerable classically, above the operator cap
    lat = build_hypercube(2, 4)
    model = ModelInstance(
        lattice=lat,
        table=CouplingTable.xx_nearest_neighbor(lat, -1.0),
        potential=ClassicalPotential.ising_nn(lat, 1.0),
        alpha=1.0,
    )
    record = sx_product_bound(model, 0b11)
    assert record.passed
    assert record.details["quantum"] is None
    assert record.value >= record.threshold


def test_sx_bound_ising_pairs_hold_with_slack():
    for alpha in (0.0, 1.0, 2.0, 5.0):
        model = _ising_chain_model(8, alpha)
        for mask in (0b11, 0b1001, 0b1):
            record = sx_product_bound(model, mask)
            assert record.passed
            assert record.value >= record.threshold * (1 - 1e-12)
            if alpha > 0 and mask == 0b11:
                assert record.value > record.threshold


# ---------------------------------------------------------------------------
# Weighted symmetry and the flip-difference form
# ---------------------------------------------------------------------------


def test_reversibility_even_models():
    rng = np.random.default_rng(211)
    for _ in range(6):
        model = random_model(rng, flavor="generic", shapes=[(1, 5), (1, 6), (2, 2)])
        record, _ = trial_vector_checks(model, trials=20, seed=3)
        assert record.passed, record.details


def test_dirichlet_form_even_models_identity():
    rng = np.random.default_rng(223)
    for _ in range(6):
        model = random_model(rng, flavor="generic", shapes=[(1, 5), (1, 6)])
        hyp = groundstate_hypotheses(model.table)
        _, record = trial_vector_checks(
            model, trials=10, seed=5, require_nonneg=hyp.satisfied
        )
        assert record.passed, record.details


def reversibility_check(model, **kwargs):
    # the reversibility record alone, as the checks that reject bad trials
    # and seeds are parametrized per record
    return trial_vector_checks(model, **kwargs)[0]


def dirichlet_form_check(model, **kwargs):
    return trial_vector_checks(model, **kwargs)[1]


_RANDOMIZED_CHECKS = [reversibility_check, dirichlet_form_check, verify_model]


@pytest.mark.parametrize("check", _RANDOMIZED_CHECKS)
def test_randomized_checks_reject_zero_trials(check):
    # with no trials the check would pass at value 0.0 from no samples
    model = _ising_chain_model(4, 1.0)
    with pytest.raises(ConstraintError, match="at least 1 trial"):
        check(model, trials=0)


@pytest.mark.parametrize("check", _RANDOMIZED_CHECKS)
def test_randomized_checks_reject_a_negative_seed(check):
    # numpy's default_rng used to raise a bare ValueError here
    model = _ising_chain_model(4, 1.0)
    with pytest.raises(ConstraintError, match="seed must be nonnegative, got -1"):
        check(model, seed=-1)


@pytest.mark.parametrize("check", _RANDOMIZED_CHECKS)
def test_randomized_checks_reject_a_seed_beyond_64_bits(check):
    # numpy's default_rng took any seed; the SplitMix64 seed is one word
    model = _ising_chain_model(4, 1.0)
    with pytest.raises(ConstraintError, match=rf"seed must be at most 2\^64 - 1, got {2**64}"):
        check(model, seed=2**64)


def test_trial_vectors_are_consecutive_runs_of_the_stream(monkeypatch):
    # F are vectors 0..T-1 and F' vectors T..2T-1, each drawn once, on its
    # own, for both records.  Vector k is run k of the stream.
    dim, trials = 5, 3
    stream = splitmix.uniform(7, 0, 2 * trials * dim).reshape(2 * trials, dim)
    for k in range(2 * trials):
        assert np.array_equal(verify._trial_vector(7, dim, k), stream[k])
    drawn = []
    trial_vector = verify._trial_vector
    monkeypatch.setattr(
        verify, "_trial_vector", lambda *args: drawn.append(args) or trial_vector(*args)
    )
    model = _ising_chain_model(4, 1.0)
    trial_vector_checks(model, trials=trials, seed=7)
    assert drawn == [(7, 16, k) for k in (0, 3, 1, 4, 2, 5)]


def test_verify_model_computes_each_product_once(monkeypatch):
    # The verify-dense benchmark model: H+ F, H+ F' and H on the
    # half-weighted F once per trial, 60 products for 20 trials, and 7 for
    # the other records; the similarity route of H+ is built once for both
    # records that read it.
    calls = []
    for name in ("apply", "_similarity_conjugate"):
        original = getattr(verify, name)
        counted = lambda *args, name=name, f=original: calls.append(name) or f(*args)
        for module in (verify, models):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    report = verify_model(_ising_chain_model(11, 1.0), trials=20, seed=11, pairs=[(0, 3)])
    assert report.all_passed
    assert (calls.count("apply"), calls.count("_similarity_conjugate")) == (67, 1)


def test_trials_beyond_the_stream_boundary():
    # F and F' need 2 * trials * dim outputs, fewer than 2^64
    verify._check_trials(2**59 - 1, 16)
    with pytest.raises(ConstraintError, match="2\\^64 or more SplitMix64 outputs"):
        verify._check_trials(2**59, 16)


@pytest.mark.parametrize("check", _RANDOMIZED_CHECKS)
def test_randomized_checks_reject_trials_beyond_the_stream(check):
    # All trial vectors at once once raised a bare ValueError from numpy
    # ("Maximum allowed size exceeded"); verify_model stops before any
    # check, so H is never built.
    model = _ising_chain_model(4, 1.0)
    with pytest.raises(ConstraintError, match=f"{2**62} trials of dimension 16"):
        check(model, trials=2**62)
    if check is verify_model:
        assert "h" not in vars(model)


def test_reversibility_memory_does_not_grow_with_trials():
    # Each trial vector is drawn when it is used: the traced peak on 10
    # sites is the same for 2 trials as for 200, where holding all 400
    # vectors would take 3.2 MB.
    model = _ising_chain_model(10, 1.0)
    trial_vector_checks(model, trials=1)  # builds the model's cached operators
    peaks = []
    for trials in (2, 200):
        tracemalloc.start()
        try:
            assert all(r.passed for r in trial_vector_checks(model, trials=trials))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * model.h.dim, peaks


def test_dirichlet_form_nonnegative_for_ferro():
    rng = np.random.default_rng(227)
    for _ in range(6):
        model = random_model(rng, flavor="ferro", shapes=[(1, 5), (1, 7), (2, 2)])
        _, record = trial_vector_checks(model, trials=10, seed=7, require_nonneg=True)
        assert record.passed
        assert record.details["min_scaled_form"] >= -1e-12


def test_dirichlet_form_vanishes_on_constants():
    model = _ising_chain_model(5, 0.9)
    n = model.h_conjugate.dim
    ones = np.ones(n)
    lhs = model.h_conjugate.mat @ ones
    assert np.abs(lhs).max() <= 1e-12 * model.h.norm_max


def test_dirichlet_form_sign_violation_breaks_nonnegativity():
    lat = build_hypercube(1, 3)
    table = CouplingTable.from_site_lists(3, [([0], [], 1.0)])  # positive coupling
    model = ModelInstance(
        lattice=lat, table=table, potential=ClassicalPotential.zero(3), alpha=0.4
    )
    _, identity_only = trial_vector_checks(model, trials=10, seed=9, require_nonneg=False)
    assert identity_only.passed  # the two-route identity still holds
    _, with_sign = trial_vector_checks(model, trials=10, seed=9, require_nonneg=True)
    assert not with_sign.passed
    assert with_sign.details["min_scaled_form"] < 0


def test_dirichlet_form_min_scaled_form_is_scale_free():
    # Every phi times 2^k scales H, H+ and |H| by 2^k exactly; the form
    # over |H| |F|^2 must not move.
    records = [
        trial_vector_checks(_ising_chain_model(6, 1.0, xx_weight=-(2.0**k)), trials=4, seed=3)[1]
        for k in (-20, 0, 20)
    ]
    forms = {r.details["min_scaled_form"] for r in records}
    assert len(forms) == 1 and forms.pop() > 0


@pytest.mark.parametrize("term", ["first", "last"])
def test_verify_model_fails_a_nan_planted_in_the_conjugate(term):
    # Negative control: one NaN in a flip term of H+.  Python's max and min
    # dropped it, and conjugate_two_route, reversibility and dirichlet_form
    # passed with value 0.0.
    model = _ising_chain_model(6, 1.0)
    flips = [c for c in model.h_conjugate.terms if c]
    model.h_conjugate.terms[flips[0 if term == "first" else -1]][5] = np.nan
    payload = verify_model(model, trials=4).to_payload()
    assert payload["all_passed"] is False
    by_name = {c["name"]: c for c in payload["checks"]}
    for name in ("conjugate_two_route", "reversibility", "dirichlet_form"):
        assert by_name[name]["passed"] is False, name
        assert math.isnan(by_name[name]["value"]), name
    # each witness keeps the NaN, not only the reported maximum
    for name, key in [
        ("reversibility", "max_symmetry_gap"),
        ("reversibility", "max_conjugation_gap"),
        ("dirichlet_form", "min_scaled_form"),
    ]:
        assert math.isnan(by_name[name]["details"][key]), key


# ---------------------------------------------------------------------------
# Order-parameter scan
# ---------------------------------------------------------------------------


def _ising_chain_potential(L):
    return ClassicalPotential.ising_nn(build_hypercube(1, L), 1.0)


def test_scan_alpha_zero_values():
    (row,) = order_parameter_scan(_ising_chain_potential(6), [0.0], [(0, 3)])
    assert row.sz_sz == pytest.approx(0.0, abs=1e-14)
    assert row.sx_sx == pytest.approx(1.0, rel=1e-14)
    assert row.mx == pytest.approx(1.0, rel=1e-14)
    assert row.method == "exact"


def test_scan_matches_transfer_matrix():
    rows = order_parameter_scan(_ising_chain_potential(8), [0.0, 0.5, 1.0, 2.0, 5.0], [(0, 3)])
    for row in rows:
        assert row.sz_sz == pytest.approx(
            open_chain_correlation_closed_form(row.alpha, 3), rel=1e-9
        )
    # finite-volume monotonicity of tanh(alpha)^3 along the grid
    values = [row.sz_sz for row in rows]
    assert values == sorted(values)


def test_scan_large_alpha_orders():
    (row,) = order_parameter_scan(_ising_chain_potential(8), [5.0], [(0, 3)])
    assert row.sz_sz >= 0.99
    assert row.sz_sz == pytest.approx(math.tanh(5.0) ** 3, rel=1e-9)


def test_scan_metropolis_path_beyond_cap():
    # 36 sites, above the enumeration cap
    potential = ClassicalPotential.ising_nn(build_hypercube(2, 6), 1.0)
    (row,) = order_parameter_scan(
        potential, [0.2], [(0, 1)], sweeps=2000, burn_in=200, seed=11
    )
    assert row.method == "metropolis"
    assert row.sz_sz_se > 0
    assert math.isfinite(row.mz_sq)


@pytest.mark.parametrize("pair", [(0, 9), (-1, 3), (6, 7)])
@pytest.mark.parametrize("route", ["exact", "metropolis"])
def test_scan_rejects_a_pair_site_outside_the_lattice(route, pair):
    # 7 sites; the metropolis route runs with the enumeration cap below them.
    potential = _ising_chain_potential(7)
    cap = 4 if route == "metropolis" else 7
    with pytest.raises(ConstraintError, match="outside the 7 sites"):
        order_parameter_scan(potential, [0.5], [(0, 3), pair], cap=cap, sweeps=10, seed=1)
    # a repeated site is a pair
    (row,) = order_parameter_scan(potential, [0.5], [(5, 5)], cap=cap, sweeps=10, seed=1)
    assert row.method == route and row.sz_sz == 1.0


@pytest.mark.parametrize("route", ["exact", "metropolis"])
def test_scan_repeated_site_pair_is_the_identity(route):
    # sigma^x_5 sigma^x_5 = I: the flip set of (5, 5) is empty, as its
    # z-product is.  It used to be {5}, whose <sigma^x_5> is 0.7864 here.
    potential = _ising_chain_potential(7)
    cap = 4 if route == "metropolis" else 7
    (row,) = order_parameter_scan(potential, [0.5], [(5, 5)], cap=cap, sweeps=64, seed=1)
    assert row.method == route
    assert row.sx_sx == 1.0 and row.sx_sx_se == 0.0
    assert row.sz_sz == 1.0


def test_scan_routes_return_one_grid_alpha_major():
    # The exact and Metropolis routes of one scan, below and above the cap
    # on the same 7 sites: the same (alpha, x, y) rows in the same order,
    # and an exact row carries no standard error.
    potential = _ising_chain_potential(7)
    alphas, pairs = [0.5, 1.0, 2.0], [(0, 3), (2, 6), (4, 4)]
    exact = order_parameter_scan(potential, alphas, pairs)
    sampled = order_parameter_scan(potential, alphas, pairs, cap=4, sweeps=64, seed=2)
    grid = [(alpha, x, y) for alpha in alphas for x, y in pairs]
    assert [(r.alpha, r.x, r.y) for r in exact] == grid
    assert [(r.alpha, r.x, r.y) for r in sampled] == grid
    assert {r.method for r in exact} == {"exact"}
    assert {r.method for r in sampled} == {"metropolis"}
    for row in exact:
        assert (row.sx_sx_se, row.sz_sz_se, row.mz_sq_se, row.mx_se) == (0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# Full driver
# ---------------------------------------------------------------------------


def test_verify_model_ferro_all_pass():
    model = _ising_chain_model(6, 1.0)
    report = verify_model(model, trials=10, seed=1)
    assert report.all_passed
    names = {r.name for r in report.records}
    assert "eigenstate_residual" in names
    assert "ground_energy" in names
    assert "dirichlet_form" in names
    for record in report.records:
        if record.asserted:
            assert record.passed, record.name


@pytest.mark.filterwarnings("error")
def test_verify_model_passes_a_potential_whose_boltzmann_factor_overflows():
    # U = 300 + 50 sum_x s_x spreads over 600, so exp((alpha/2) U) alone
    # overflows at alpha=3, though every entry of the conjugate is of order
    # one: the similarity route scales each entry by one exponential.
    lat = build_hypercube(1, 6)
    potential = ClassicalPotential.from_terms(6, [([], 300.0)] + [([x], 50.0) for x in range(6)])
    model = ModelInstance(lat, CouplingTable.xx_nearest_neighbor(lat, -1.0), potential, 3.0)
    assert verify_model(model, trials=4).all_passed


def test_verify_model_judges_pairs_as_the_scan_does():
    model = _ising_chain_model(6, 1.0)
    # used to end in a bare ValueError: negative shift count
    with pytest.raises(ConstraintError, match="outside the 6 sites"):
        verify_model(model, trials=2, pairs=[(-1, 3)])
    # (2, 2) is s_2 s_2 = 1, the z-product over no site; it used to be
    # taken over {2}, whose <sigma^z_2> is 0 here, and the record failed
    report = verify_model(model, trials=2, pairs=[(2, 2)])
    assert report.all_passed
    (record,) = [r for r in report.records if r.name == "classical_reduction[2,2]"]
    assert record.details["quantum"] == pytest.approx(1.0, rel=1e-14)
    (row,) = order_parameter_scan(model.potential, [model.alpha], [(2, 2)])
    assert record.details["classical"] == row.sz_sz == 1.0
    # and sigma^x_2 sigma^x_2 = I, the x-product over no site
    (record,) = [r for r in report.records if r.name == "sx_product_bound[]"]
    assert record.details["quantum"] == pytest.approx(1.0, rel=1e-14)
    assert record.value == row.sx_sx == 1.0
    assert record.details["max_abs_flip_energy"] == 0.0


def _no_solve(*args, **kwargs):
    raise AssertionError("the spectral solve ran before the input was validated")


@pytest.mark.parametrize(
    "model, kwargs, error, match",
    [
        ((6, 1.0, {}), {"seed": -1}, ConstraintError, "seed must be nonnegative"),
        ((6, 1.0, {}), {"trials": 2**62}, ConstraintError, "trials of dimension 64"),
        ((6, 1.0, {}), {"pairs": [(0, 6)]}, ConstraintError, "outside the 6 sites"),
        ((6, 1.0, {"enumeration_sites": 4}), {}, SizeCapError, "6 sites exceeds the cap of 4"),
        # Z of the 8-site chain at alpha=120 leaves double precision
        ((8, 120.0, {}), {}, NumericRangeError, "alpha=120"),
    ],
    ids=["seed", "trials", "pair", "enumeration-cap", "partition-range"],
)
def test_verify_model_validates_before_the_spectral_solve(
    monkeypatch, model, kwargs, error, match
):
    # The solve runs early, while few operators are alive, but after every
    # check of the input: each of these raises its own error, not the
    # patched solve's.
    monkeypatch.setattr(verify, "min_eigenvalue", _no_solve)
    L, alpha, caps = model
    model = dataclasses.replace(_ising_chain_model(L, alpha), caps=Caps(**caps))
    with pytest.raises(error, match=match):
        verify_model(model, **{"trials": 2, **kwargs})


# Negative controls: one route of a record, off by a relative 1e-4, must fail
# that record.  On the ferro chain every record is asserted, and the
# smallest margin, reversibility's, is still about 200 times its threshold.
_NUDGE = 1.0 + 1e-4


def _nudged_term(key):
    """A perturbation of an operator builder: its flip term key (0 is the
    diagonal, None the first off-diagonal term) scaled by _NUDGE."""

    def nudge(build):
        def perturbed(model):
            terms = dict(build(model).terms)
            k = min(c for c in terms if c) if key is None else key
            terms[k] = terms[k] * _NUDGE
            return OperatorMatrix(model.lattice.n_sites, terms)

        return perturbed

    return nudge


def _nudged_amplitude(build):
    def perturbed(model):
        state = build(model)
        # one spin down: the all-up amplitude is a null vector of H by itself
        state[1] *= _NUDGE
        return state

    return perturbed


def _nudged_functional(make):
    def perturbed(*args):
        f = make(*args)
        return lambda spins: f(spins) * _NUDGE

    return perturbed


_NEGATIVE_CONTROLS = {
    # record: (owner, name it is looked up by, perturbation)
    "eigenstate_residual": (models, "build_gibbs_state", _nudged_amplitude),
    "offdiagonal_grouping": (models, "offdiagonal_from_couplings", _nudged_term(None)),
    "state_norm_partition": (
        ModelInstance,
        "partition_value",
        lambda value: lambda model: value(model) * _NUDGE,
    ),
    "classical_reduction[0,1]": (verify, "spin_product", _nudged_functional),
    # the agreement half: the classical value stays above the lower bound
    "sx_product_bound[0]": (verify, "flip_weight", _nudged_functional),
    "conjugate_row_sums": (models, "build_v", _nudged_term(0)),
    "rayleigh_quotient": (models, "build_v", _nudged_term(0)),
    "reversibility": (models, "conjugate_hamiltonian", _nudged_term(0)),
    # the two-route half: the form stays nonnegative
    "dirichlet_form": (models, "conjugate_hamiltonian", _nudged_term(0)),
}


@pytest.mark.parametrize("record", list(_NEGATIVE_CONTROLS))
def test_verify_model_fails_the_record_of_a_perturbed_route(monkeypatch, record):
    owner, name, nudge = _NEGATIVE_CONTROLS[record]
    monkeypatch.setattr(owner, name, nudge(getattr(owner, name)))
    payload = verify_model(_ising_chain_model(6, 1.0), trials=8, seed=11).to_payload()
    assert payload["all_passed"] is False
    (check,) = [c for c in payload["checks"] if c["name"] == record]
    assert (check["passed"], check["asserted"]) == (False, True)
    assert check["value"] > check["threshold"]
    if record.startswith("sx_product_bound"):
        assert check["details"]["relative_gap"] > verify.SX_AGREEMENT_RTOL
    if record == "dirichlet_form":
        assert check["details"]["min_scaled_form"] >= -verify.DIRICHLET_NONNEG_SLACK


def test_verify_model_odd_still_passes_asserted_subset():
    rng = np.random.default_rng(301)
    model = random_model(rng, flavor="odd", shapes=[(1, 5)])
    report = verify_model(model, trials=5, seed=2)
    # asserted checks (structural agreements) must pass; spectral checks
    # are informational for odd tables
    assert report.all_passed
    by_name = {r.name: r for r in report.records}
    assert not by_name["eigenstate_residual"].asserted
    assert by_name["eigenstat" + "e_residual"].passed
    # the trial-vector records: reversibility informational, the form skipped
    assert not by_name["reversibility"].asserted
    assert "skipped" in by_name["dirichlet_form"].details


def test_operator_layer_decodes_spins_only_for_the_gibbs_state(monkeypatch):
    # Outside the classical module's own Functional route, the operators
    # and checks work on configuration masks; only build_gibbs_state
    # decodes spins, to stay independent of the mask-native Z.
    import sys

    from gibbs_ground import classical, models

    original = classical.spins_from_masks
    callers = []

    def counting(masks, n_sites):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(masks, n_sites)

    for name, module in list(sys.modules.items()):
        if (
            name.startswith("gibbs_ground.")
            and module is not classical
            and getattr(module, "spins_from_masks", None) is original
        ):
            monkeypatch.setattr(module, "spins_from_masks", counting)
    model = random_model(np.random.default_rng(5), flavor="generic")
    model.h
    model.h_conjugate
    models.offdiagonal_from_couplings(model)
    assert callers == []
    verify_model(model, trials=2)
    assert callers == ["build_gibbs_state"]


def test_verify_report_payload_shape():
    model = _ising_chain_model(4, 0.5)
    report = verify_model(model, trials=5, seed=3)
    payload = report.to_payload()
    assert payload["model_digest"] == model.digest()
    assert all("wall_time_s" not in check for check in payload["checks"])
