import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbs_ground import (
    ClassicalPotential,
    apply,
    basis_vector,
    build_hypercube,
    diagonal_operator,
    pauli,
    product_operator,
    weighted_inner_product,
)
from gibbs_ground.errors import ConstraintError, SizeCapError
from gibbs_ground.operators import OperatorMatrix, max_entry_diff


def test_pauli_matrices():
    sx, sy, sz = pauli(1), pauli(2), pauli(3)
    i2 = np.eye(2)
    assert np.array_equal(sx, [[0, 1], [1, 0]])
    assert np.array_equal(sy, [[0, -1j], [1j, 0]])
    assert np.array_equal(sz, [[1, 0], [0, -1]])
    for m in (sx, sy, sz):
        assert np.array_equal(m @ m, i2)
        assert np.array_equal(m, m.conj().T)
        assert sorted(np.linalg.eigvalsh(m)) == [-1.0, 1.0]
    # exact, entrywise: sy = -i sz sx = +i sx sz
    assert np.array_equal(sy, -1j * (sz @ sx))
    assert np.array_equal(sy, 1j * (sx @ sz))
    with pytest.raises(ConstraintError):
        pauli(4)


def test_basis_vectors_single_site():
    assert np.array_equal(basis_vector(0b0, 1), [1, 0])
    assert np.array_equal(basis_vector(0b1, 1), [0, 1])


def test_basis_vectors_orthonormal():
    vecs = [basis_vector(m, 2) for m in range(4)]
    for a, b in itertools.product(range(4), repeat=2):
        expected = 1.0 if a == b else 0.0
        assert np.vdot(vecs[a], vecs[b]) == expected


def test_x_product_flips_spins(chain4):
    op = product_operator(1, 0b0110, chain4)
    for m in range(16):
        out = apply(op, basis_vector(m, 4))
        assert np.array_equal(out, basis_vector(m ^ 0b0110, 4))


def test_z_is_diagonal_with_spin_eigenvalue(chain4):
    op = product_operator(3, 0b0001, chain4)
    for m in range(16):
        s0 = -1.0 if m & 1 else 1.0
        out = apply(op, basis_vector(m, 4))
        assert np.array_equal(out, s0 * basis_vector(m, 4))


def test_y_on_basis_vector():
    lat = build_hypercube(1, 1)
    op = product_operator(2, 0b1, lat)
    up, down = basis_vector(0, 1), basis_vector(1, 1)
    assert np.array_equal(apply(op, up), 1j * down)
    assert np.array_equal(apply(op, down), -1j * up)


def test_empty_set_gives_identity(chain4):
    for axis in (1, 2, 3):
        op = product_operator(axis, 0, chain4)
        assert max_entry_diff(op, OperatorMatrix(op.mat)) == 0
        v = np.arange(16, dtype=complex)
        assert np.array_equal(apply(op, v), v)


def test_y_product_matches_z_x_phase_identity(chain4):
    # entrywise and exactly: Y_[A] = (-i)^|A| Z_[A] X_[A], |A| up to 4
    for mask in range(16):
        y = product_operator(2, mask, chain4)
        z = product_operator(3, mask, chain4)
        x = product_operator(1, mask, chain4)
        combo = ((-1j) ** mask.bit_count()) * (z.mat @ x.mat)
        diff = (y.mat - combo).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0


def test_x_products_compose_by_xor(chain4):
    rng = np.random.default_rng(7)
    for _ in range(10):
        a, b = int(rng.integers(16)), int(rng.integers(16))
        left = product_operator(1, a, chain4).mat @ product_operator(1, b, chain4).mat
        right = product_operator(1, a ^ b, chain4).mat
        assert (left != right).nnz == 0


def test_different_sites_commute(chain4):
    for kx, lx in itertools.product((1, 2, 3), repeat=2):
        a = product_operator(kx, 0b0001, chain4).mat
        b = product_operator(lx, 0b0100, chain4).mat
        comm = (a @ b - b @ a).tocoo()
        assert comm.nnz == 0 or np.abs(comm.data).max() == 0.0


def test_pauli_is_hermitian_flag(chain4):
    assert product_operator(2, 0b1011, chain4).is_hermitian
    skew = OperatorMatrix(1j * product_operator(1, 0b1, chain4).mat)
    assert not skew.is_hermitian


def test_diagonal_operator_eigenbasis(chain4):
    pot = ClassicalPotential.from_terms(4, [([0], 1.0), ([1, 2], -2.0)])
    op = diagonal_operator(lambda spins: pot.value_many(spins), chain4)
    for m in (0b0000, 0b0110, 0b1111):
        out = apply(op, basis_vector(m, 4))
        assert np.array_equal(out, pot.value(m) * basis_vector(m, 4))


def test_diagonal_operator_identity(chain4):
    op = diagonal_operator(lambda spins: np.ones(spins.shape[0]), chain4)
    v = np.arange(16, dtype=complex)
    assert np.array_equal(apply(op, v), v)


def test_diagonal_operator_rejects_nonfinite(chain4):
    def bad(spins):
        out = np.ones(spins.shape[0])
        out[3] = np.inf
        return out

    with pytest.raises(ConstraintError, match="0x3"):
        diagonal_operator(bad, chain4)


def test_apply_dimension_mismatch(chain4):
    op = product_operator(1, 0b1, chain4)
    with pytest.raises(ConstraintError):
        apply(op, np.ones(8))


def test_diagonal_conjugation_identity(chain4):
    # moving an x-flip product across a Boltzmann diagonal swaps U(s)
    # for U(flip(s, A)) in the exponent
    pot = ClassicalPotential.from_terms(4, [([0], 0.6), ([1, 2], -0.9)])
    alpha = 1.1
    for mask in (0b0001, 0b0110, 0b1011):
        d_plain = diagonal_operator(
            lambda spins: np.exp(-0.5 * alpha * pot.value_many(spins)), chain4
        )
        d_flipped = diagonal_operator(
            lambda spins: np.exp(
                -0.5
                * alpha
                * (pot.value_many(spins) + pot.flip_energy_many(spins, mask))
            ),
            chain4,
        )
        x_op = product_operator(1, mask, chain4)
        left = d_plain.mat @ x_op.mat
        right = x_op.mat @ d_flipped.mat
        gap = np.abs((left - right).toarray()).max()
        assert gap <= 1e-14 * np.abs(left.toarray()).max()


def test_quantum_site_cap():
    lat = build_hypercube(1, 15)
    with pytest.raises(SizeCapError):
        product_operator(1, 0b1, lat)
    with pytest.raises(SizeCapError):
        basis_vector(0, 15)


def test_product_operator_honours_its_cap(chain4):
    with pytest.raises(SizeCapError, match="cap of 3"):
        product_operator(1, 0b1, chain4, cap=3)
    wide = product_operator(1, 0b1, build_hypercube(1, 15), cap=15)
    assert wide.dim == 1 << 15


def test_weighted_inner_product_reduces_to_euclidean():
    pot = ClassicalPotential.from_terms(3, [([0], 0.4)])
    rng = np.random.default_rng(0)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    g = rng.normal(size=8) + 1j * rng.normal(size=8)
    got = weighted_inner_product(f, g, pot, 0.0)
    assert got == pytest.approx(complex(np.vdot(f, g)), rel=1e-14)


def test_weighted_inner_product_positive():
    pot = ClassicalPotential.from_terms(3, [([0, 1], -0.8)])
    rng = np.random.default_rng(1)
    f = rng.normal(size=8) + 1j * rng.normal(size=8)
    value = weighted_inner_product(f, f, pot, 1.5)
    assert value.imag == pytest.approx(0.0, abs=1e-14)
    assert value.real > 0


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=255))
def test_basis_vector_unit_norm(mask):
    v = basis_vector(mask, 8)
    assert np.linalg.norm(v) == 1.0
    assert v[mask] == 1.0
