import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest

from gibbs_ground import (
    ClassicalPotential,
    CouplingTable,
    ModelInstance,
    build_hypercube,
    diagonal_couplings,
    partition_function,
)
from gibbs_ground import classical
from gibbs_ground.classical import monomial_signs, spins_from_masks
from gibbs_ground.errors import ConstraintError, SizeCapError
from gibbs_ground.lattice import Caps, nearest_neighbor_pairs
from gibbs_ground.models import (
    build_gibbs_state,
    build_h0,
    build_v,
    conjugate_hamiltonian,
    offdiagonal_from_couplings,
)
from gibbs_ground.operators import flip_operator, max_entry_diff
from gibbs_ground.verify import groundstate_hypotheses, verify_model

from .conftest import random_coupling_table, random_model, random_potential, xxz_model
from .flip_terms import dense_from_operator
from .oracles import PAULI, on_sites, site_coords, xxz_dense


def _xx_table(n, pairs_with_phi):
    entries = []
    for x, y, phi in pairs_with_phi:
        entries.append(([x, y], [], phi))
        entries.append(([], [x, y], phi))
    return CouplingTable.from_site_lists(n, entries)


def _model(lat, table=None, potential=None, alpha=0.0):
    """The model the builders take; the table and potential default to zero."""
    n = lat.n_sites
    return ModelInstance(
        lattice=lat,
        table=CouplingTable(n_sites=n, entries=()) if table is None else table,
        potential=ClassicalPotential.zero(n) if potential is None else potential,
        alpha=alpha,
    )


# ---------------------------------------------------------------------------
# Coupling tables and diagonal couplings
# ---------------------------------------------------------------------------


def test_table_rejects_overlap_and_duplicates():
    with pytest.raises(ConstraintError, match="overlap"):
        CouplingTable.from_site_lists(3, [([0, 1], [1], 1.0)])
    with pytest.raises(ConstraintError, match="duplicate"):
        CouplingTable.from_site_lists(3, [([0], [], 1.0), ([0], [], 2.0)])


def test_sites_beyond_the_mask_width_are_a_size_cap_error():
    # Configuration masks are 64-bit words: a 100-site table or potential
    # used to end in a bare OverflowError once it was evaluated.
    with pytest.raises(SizeCapError, match="64-bit"):
        groundstate_hypotheses(CouplingTable.from_site_lists(100, [([70, 71], [72, 73], -1.0)]))
    with pytest.raises(SizeCapError, match="64-bit"):
        ClassicalPotential.from_terms(100, [([70, 71], 1.0)])
    # 64 sites still fit, up to the last bit.
    table = CouplingTable.from_site_lists(64, [([62, 63], [61], -1.0)])
    assert not groundstate_hypotheses(table).satisfied
    potential = ClassicalPotential.from_terms(64, [([62, 63], 1.0)])
    masks = np.array([0, 1 << 63, 3 << 62], dtype=np.uint64)
    term_masks = [mask for mask, _ in potential.terms]
    assert monomial_signs(masks, term_masks).tolist() == [[1, -1, 1]]


@pytest.mark.parametrize("entry", [([0, 0], [], 1.0), ([2], [1, 1], 1.0)])
def test_table_rejects_a_repeated_site(entry):
    # X_0 X_0 = I, not the X_0 a single-bit mask would encode
    with pytest.raises(ConstraintError, match="duplicate site index"):
        CouplingTable.from_site_lists(3, [entry])


def test_xx_pair_coupling_expands_by_hand():
    # expansion over the union {x, y}: phi * (1 - s_x s_y)
    table = _xx_table(2, [(0, 1, 0.7)])
    (coupling,) = diagonal_couplings(table)
    assert coupling.sites_mask == 0b11
    values = coupling.restricted_values(range(4))
    spins = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    for local, (s0, s1) in enumerate(spins):
        assert values[local] == pytest.approx(0.7 * (1 - s0 * s1))


def test_constant_coupling_when_y_sets_empty():
    table = CouplingTable.from_site_lists(3, [([0, 2], [], -0.9)])
    (coupling,) = diagonal_couplings(table)
    assert np.allclose(coupling.restricted_values(range(4)), -0.9)


def test_single_odd_y_coupling_is_imaginary():
    # a lone y-Pauli carries (-i) * phi * s_x
    table = CouplingTable.from_site_lists(2, [([], [1], 0.5)])
    (coupling,) = diagonal_couplings(table)
    assert coupling.sites_mask == 0b10
    values = coupling.restricted_values(range(2))
    assert values[0] == pytest.approx(-0.5j)  # s_1 = +1
    assert values[1] == pytest.approx(0.5j)  # s_1 = -1


# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------


def test_h0_single_site_is_pauli_x():
    lat = build_hypercube(1, 1)
    table = CouplingTable.from_site_lists(1, [([0], [], 1.0)])
    h0 = build_h0(_model(lat, table))
    assert np.array_equal(dense_from_operator(h0), PAULI[1])


def test_h0_xx_pair_matches_kron():
    lat = build_hypercube(1, 2)
    table = _xx_table(2, [(0, 1, 0.6)])
    h0 = build_h0(_model(lat, table))
    # site 0 is the fast bit, so the first kron factor acts on site 0
    xx = np.kron(PAULI[1], PAULI[1])
    yy = np.kron(PAULI[2], PAULI[2])
    assert np.allclose(dense_from_operator(h0), 0.6 * (xx + yy), atol=1e-15)


def test_empty_table_builds_zero():
    lat = build_hypercube(1, 3)
    table = CouplingTable(n_sites=3, entries=())
    model = ModelInstance(
        lattice=lat, table=table, potential=ClassicalPotential.zero(3), alpha=1.0
    )
    assert model.h.norm_max == 0.0
    assert model.h.mat.nnz == 0
    zero = flip_operator(3, [])
    assert zero.mat.shape == (8, 8) and zero.mat.nnz == 0 and zero.mat.dtype == complex


def test_h0_grouping_identity_randomized():
    rng = np.random.default_rng(21)
    for _ in range(10):
        model = random_model(rng, flavor="generic", shapes=[(1, 5), (1, 6), (2, 2)])
        direct = model.h0
        grouped = offdiagonal_from_couplings(model)
        scale = max(direct.norm_max, 1.0)
        assert max_entry_diff(direct, grouped) <= 1e-12 * scale


def test_build_v_zero_couplings():
    lat = build_hypercube(1, 3)
    table = CouplingTable(n_sites=3, entries=())
    v = build_v(_model(lat, table, alpha=1.0))
    assert v.mat.nnz == 0


def test_build_v_alpha_zero_xx():
    lat = build_hypercube(1, 2)
    table = _xx_table(2, [(0, 1, 0.8)])
    v = build_v(_model(lat, table))
    sz0 = np.kron(np.eye(2), PAULI[3])  # site 0 fast bit
    sz1 = np.kron(PAULI[3], np.eye(2))
    want = -0.8 * (np.eye(4) - sz0 @ sz1)
    assert np.allclose(dense_from_operator(v), want, atol=1e-15)


def test_build_h_single_site_hand_case():
    lat = build_hypercube(1, 1)
    table = CouplingTable.from_site_lists(1, [([0], [], -1.0)])
    for alpha in (0.0, 1.3):
        model = ModelInstance(
            lattice=lat,
            table=table,
            potential=ClassicalPotential.zero(1),
            alpha=alpha,
        )
        assert np.allclose(dense_from_operator(model.h), -(PAULI[1] - np.eye(2)), atol=1e-15)
        assert sorted(np.linalg.eigvalsh(dense_from_operator(model.h))) == pytest.approx([0.0, 2.0])


def test_an_identity_entry_is_a_constant_that_v_cancels():
    # ([], [], phi) puts phi on the diagonal of H0 and, grouped, is J_C on
    # the empty union set; V takes -phi exp(0) from it, so H is unchanged.
    # No conftest family draws such an entry.
    lat = build_hypercube(1, 4)
    plain = _xx_table(4, [(0, 1, -0.8), (2, 3, -0.5)])
    table = CouplingTable(4, plain.entries + ((0, 0, 1.1),))
    potential = ClassicalPotential.ising_nn(lat, 0.35)
    model, without = (_model(lat, t, potential, 0.7) for t in (table, plain))
    assert model.h0.terms[0].tolist() == [1.1] * 16
    assert model.two_path_diff == 0.0
    assert max_entry_diff(model.h, without.h) <= 1e-15 * (1.1 + without.h.norm_max)
    assert verify_model(model, trials=4).all_passed


def test_two_route_agreement_randomized():
    rng = np.random.default_rng(5)
    for _ in range(15):
        model = random_model(rng)
        # the hamiltonian_two_route threshold; the builders do not judge the gap
        assert model.two_path_diff <= 1e-12 * max(model.h.norm_max, 1e-300)


def _assert_kernel_equals_decoded_route(model, sites_masks):
    potential = model.potential
    spins = spins_from_masks(model.masks, model.lattice.n_sites)
    energies = potential.value_many(spins)
    # compared as bytes, so that a signed zero counts too
    assert model.shifted_energies.tobytes() == (energies - energies.min()).tobytes()
    for sites_mask in sites_masks:
        want = potential.flip_energy_many(spins, sites_mask)
        assert model.flip_energy(sites_mask).tobytes() == want.tobytes()


@pytest.mark.parametrize("flavor", ["ferro", "generic", "odd"])
def test_model_energies_equal_the_decoded_route(flavor):
    # The operators read U and W_C from the mask-native kernel; the decoded
    # spins of value_many and flip_energy_many are its independent witness.
    rng = np.random.default_rng(41)
    for _ in range(6):
        model = random_model(rng, flavor=flavor)
        _assert_kernel_equals_decoded_route(model, [c.sites_mask for c in model.couplings])


def test_model_kernel_stays_one_chunk_below_the_chunk_bits(monkeypatch):
    # The operators index U and W_C by mask, so the model's kernel is one
    # chunk over all 2^n masks whatever chunk size the exact scans use.
    monkeypatch.setattr(classical, "_CHUNK_BITS", 2)
    lat = build_hypercube(1, 7)
    # a high-bit first term (no energy prefix at 2 bits), a constant, and a
    # -0.0 term that is the only odd one for the flip set {1}
    potential = ClassicalPotential.from_terms(
        7, [([0, 5], 0.4), ([], 0.75), ([1], -0.0), ([2, 3, 6], 0.3), ([4], -0.6)]
    )
    model = _model(lat, CouplingTable.xx_nearest_neighbor(lat, -1.0), potential, 0.8)
    assert classical._Enumeration(potential).bits == 2
    enum = model.enumeration
    assert enum.bits == 7 and enum.chunk_count == 1
    _assert_kernel_equals_decoded_route(model, range(1 << 7))
    assert model.flip_energy(0b10).tobytes() == np.full(128, -0.0).tobytes()


def test_hermitian_iff_even_real():
    rng = np.random.default_rng(8)
    even = random_model(rng, flavor="generic")
    assert even.h.is_hermitian
    lat = build_hypercube(1, 3)
    odd_table = CouplingTable.from_site_lists(3, [([], [0], 0.7)])
    odd = ModelInstance(
        lattice=lat,
        table=odd_table,
        potential=random_potential(np.random.default_rng(9), lat),
        alpha=0.8,
    )
    assert not odd.h.is_hermitian


def _xx_ising_model(n, caps):
    lat = build_hypercube(1, n)
    return ModelInstance(
        lattice=lat,
        table=CouplingTable.xx_nearest_neighbor(lat, -1.0),
        potential=ClassicalPotential.ising_nn(lat, 1.0),
        alpha=0.5,
        caps=caps,
    )


@pytest.mark.parametrize(
    "builder",
    [
        build_h0,
        offdiagonal_from_couplings,
        build_v,
        build_gibbs_state,
        conjugate_hamiltonian,
    ],
    ids=lambda builder: builder.__name__,
)
def test_the_model_quantum_cap_reaches_every_builder(builder):
    with pytest.raises(SizeCapError, match="cap of 3"):
        builder(_xx_ising_model(4, Caps(quantum_sites=3)))


def test_a_raised_quantum_cap_admits_a_larger_state():
    # Positive control for the test above: the cap, not the size, decides.
    model = _xx_ising_model(15, Caps(quantum_sites=15))
    assert model.state.shape == (1 << 15,)
    with pytest.raises(SizeCapError, match="cap of 14"):
        dataclasses.replace(model, caps=Caps()).state


# ---------------------------------------------------------------------------
# Gibbs state
# ---------------------------------------------------------------------------


def test_gibbs_state_uniform_at_zero_alpha():
    lat = build_hypercube(1, 3)
    psi = build_gibbs_state(_model(lat))
    assert np.array_equal(psi, np.ones(8))


def test_gibbs_state_single_site_amplitudes():
    lat = build_hypercube(1, 1)
    pot = ClassicalPotential.from_terms(1, [([0], 0.9)])
    psi = build_gibbs_state(_model(lat, potential=pot, alpha=1.4))
    assert psi[0] == pytest.approx(math.exp(-1.4 * 0.9 / 2))
    assert psi[1] == pytest.approx(math.exp(1.4 * 0.9 / 2))


def test_gibbs_state_norm_squared_is_partition_value():
    rng = np.random.default_rng(13)
    for _ in range(8):
        lat = build_hypercube(1, int(rng.integers(3, 8)))
        pot = random_potential(rng, lat)
        alpha = float(rng.uniform(0, 2))
        psi = build_gibbs_state(_model(lat, potential=pot, alpha=alpha))
        z = partition_function(pot, alpha)
        assert float(psi @ psi) == pytest.approx(z, rel=1e-12)


# ---------------------------------------------------------------------------
# Conjugated Hamiltonian
# ---------------------------------------------------------------------------


def test_conjugate_equals_h_at_zero_alpha():
    rng = np.random.default_rng(17)
    lat = build_hypercube(1, 5)
    model = ModelInstance(
        lattice=lat,
        table=random_coupling_table(rng, lat),
        potential=random_potential(rng, lat),
        alpha=0.0,
    )
    assert max_entry_diff(model.h_conjugate, model.h) <= 1e-13 * model.h.norm_max


def test_conjugate_single_site_hand_case():
    lat = build_hypercube(1, 1)
    table = CouplingTable.from_site_lists(1, [([0], [], 0.6)])
    pot = ClassicalPotential.from_terms(1, [([0], 0.5)])
    alpha = 1.2
    model = ModelInstance(lattice=lat, table=table, potential=pot, alpha=alpha)
    up = 0.6 * math.exp(alpha * 0.5)  # rate out of s=+1 (W = -2u s)
    down = 0.6 * math.exp(-alpha * 0.5)
    want = np.array([[-up, up], [down, -down]])
    assert np.allclose(dense_from_operator(model.h_conjugate), want, atol=1e-14)


def test_conjugate_annihilates_constants():
    # Row r of the direct route holds rate_C(r) at column r XOR C and
    # -sum_C rate_C(r) on the diagonal: its rows sum to zero whatever the
    # model, on every conftest family.
    rng = np.random.default_rng(23)
    for flavor in ("ferro", "generic", "odd"):
        for _ in range(8):
            model = random_model(rng, flavor=flavor)
            ones = np.ones(model.h_conjugate.dim)
            residual = np.abs(model.h_conjugate.mat @ ones).max()
            assert residual <= 1e-12 * max(model.h.norm_max, 1e-300)


# ---------------------------------------------------------------------------
# The XXZ reduction, against the dense oracle
# ---------------------------------------------------------------------------


def _linear_potential(field):
    return ClassicalPotential.from_terms(
        len(field), [([x], float(u)) for x, u in enumerate(field) if u != 0.0]
    )


def _dense_v(model) -> np.ndarray:
    return dense_from_operator(model.v).diagonal()


def test_xxz_diagonal_constant_field():
    lat = build_hypercube(1, 2)
    table = _xx_table(2, [(0, 1, 0.9)])
    model = _model(lat, table, _linear_potential([2.0, 2.0]), alpha=1.7)
    sz0 = np.kron(np.eye(2), PAULI[3])
    sz1 = np.kron(PAULI[3], np.eye(2))
    want = 0.9 * (sz0 @ sz1 - np.eye(4))
    assert np.allclose(dense_from_operator(model.v), want, atol=1e-15)
    oracle = xxz_dense(2, [(0, 1, 0.9)], [2.0, 2.0], 1.7)
    assert np.allclose(np.diag(oracle.diagonal()), want, atol=1e-15)


def _random_xx_draw(rng):
    """(lattice, pairs (x, y, phi), linear field, alpha) of an XX table."""
    d, L = [(1, 4), (1, 6), (1, 8), (2, 2)][int(rng.integers(4))]
    lat = build_hypercube(d, L)
    pairs = nearest_neighbor_pairs(lat)
    chosen = [
        (x, y, float(rng.uniform(-1, 1)))
        for x, y in pairs
        if rng.random() < 0.8
    ] or [(*pairs[0], 0.5)]
    field = rng.uniform(-1.5, 1.5, size=lat.n_sites)
    return lat, chosen, field, float(rng.uniform(0, 1.5))


def test_xxz_diagonal_matches_build_v_randomized():
    rng = np.random.default_rng(31)
    for _ in range(20):
        lat, chosen, field, alpha = _random_xx_draw(rng)
        model = _model(lat, _xx_table(lat.n_sites, chosen), _linear_potential(field), alpha)
        oracle = xxz_dense(lat.n_sites, chosen, field, alpha)
        assert np.abs(_dense_v(model) - oracle.diagonal()).max() <= 1e-12


def test_xxz_hamiltonian_matches_generic_builder():
    rng = np.random.default_rng(37)
    for _ in range(10):
        d, L = [(1, 4), (1, 6), (1, 8), (2, 2)][int(rng.integers(4))]
        lat = build_hypercube(d, L)
        coupling = float(rng.choice([-1, 1]) * rng.uniform(0.3, 1.2))
        alpha = float(rng.uniform(0, 1.5))
        model = xxz_model(lat, coupling, alpha)
        oracle = _xxz_oracle(lat, coupling, alpha)
        assert np.abs(dense_from_operator(model.h) - oracle).max() <= 1e-12 * model.h.norm_max


def _heights(lat) -> list[float]:
    return [float(sum(c)) for c in site_coords(lat)]


def _xxz_oracle(lat, coupling, alpha):
    """The oracle's XXZ chain: weight coupling on every bond, u the heights."""
    pairs = [(x, y, coupling) for x, y in nearest_neighbor_pairs(lat)]
    return xxz_dense(lat.n_sites, pairs, _heights(lat), alpha)


def test_xxz_oracle_rejects_a_shifted_field_or_a_flipped_coupling():
    # Negative controls: a model whose linear field is off by one site, or
    # whose J has the wrong sign, fails both comparisons above.
    lat = build_hypercube(1, 6)
    oracle = _xxz_oracle(lat, -0.8, 0.9)
    right = xxz_model(lat, -0.8, 0.9)
    shifted = _model(lat, right.table, _linear_potential(np.roll(_heights(lat), 1)), 0.9)
    for model, fails in [(right, False), (xxz_model(lat, 0.8, 0.9), True), (shifted, True)]:
        h_gap = np.abs(dense_from_operator(model.h) - oracle).max()
        assert (h_gap > 1e-12 * model.h.norm_max) == fails
        assert (np.abs(_dense_v(model) - oracle.diagonal()).max() > 1e-12) == fails


def test_xxz_alpha_zero_is_isotropic():
    # cosh 0 = 1, sinh 0 = 0: plain xx + yy + zz exchange minus a constant
    lat = build_hypercube(1, 4)
    want = sum(
        np.eye(16) - sum(on_sites(4, {x: PAULI[a], y: PAULI[a]}) for a in (1, 2, 3))
        for x, y in nearest_neighbor_pairs(lat)
    )
    assert np.allclose(dense_from_operator(xxz_model(lat, -1.0, 0.0).h), want, atol=1e-14)
    assert np.allclose(_xxz_oracle(lat, -1.0, 0.0), want, atol=1e-14)


def test_xxz_interior_field_vanishes_in_matrix():
    # the linear z coefficient of the generic H, via the trace against Z_k
    lat = build_hypercube(1, 6)
    diag = xxz_model(lat, -1.0, 0.9).h.terms[0].real
    spins = spins_from_masks(np.arange(64), 6).astype(float)
    for k in range(1, 5):
        coeff = float(diag @ spins[:, k]) / 64
        assert abs(coeff) <= 1e-12
    edge = float(diag @ spins[:, 0]) / 64
    assert abs(edge) == pytest.approx(abs(math.sinh(0.9)), rel=1e-12)


def test_model_digest_stable():
    lat = build_hypercube(1, 4)
    m1 = xxz_model(lat, -1.0, 0.5)
    m2 = xxz_model(lat, -1.0, 0.5)
    m3 = xxz_model(lat, -1.0, 0.75)
    assert m1.digest() == m2.digest()
    assert m1.digest() != m3.digest()


def _digest_blob(model: ModelInstance) -> bytes:
    payload = {
        "d": model.lattice.dimension,
        "L": model.lattice.side,
        "couplings": [list(e) for e in model.table.entries],
        "potential": [list(t) for t in model.potential.terms],
        "alpha": model.alpha,
    }
    return json.dumps(payload, sort_keys=True).encode()


def test_model_digest_falls_back_to_hashlib(monkeypatch):
    # With neither builtin SHA-256 module (_sha2 from 3.12, _sha256 before)
    # importable, the digest comes from hashlib and is the same string.
    model = xxz_model(build_hypercube(1, 4), -1.0, 0.5)
    builtin = model.digest()
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    with pytest.raises(ImportError):
        import _sha2  # noqa: F401
    with pytest.raises(ImportError):
        import _sha256  # noqa: F401
    assert model.digest() == builtin
    assert builtin == hashlib.sha256(_digest_blob(model)).hexdigest()[:16]


def test_model_digest_takes_the_builtin_sha256(monkeypatch):
    # hashlib maps OpenSSL; one of the builtin modules exists on 3.10+, so
    # the digest never reaches hashlib's constructor.
    def refuse(data=b""):
        raise AssertionError("hashlib.sha256 called")

    model = xxz_model(build_hypercube(1, 4), -1.0, 0.5)
    expected = hashlib.sha256(_digest_blob(model)).hexdigest()[:16]
    monkeypatch.setattr(hashlib, "sha256", refuse)
    assert model.digest() == expected
