import itertools

import numpy as np
import pytest

from gibbs_ground import (
    ClassicalPotential,
    apply,
    build_hypercube,
    product_operator,
)
from gibbs_ground.classical import spins_from_masks
from gibbs_ground.errors import ConstraintError, SizeCapError
from gibbs_ground.operators import OperatorMatrix, flip_operator, max_entry_diff

from .flip_terms import dense_from_operator, operator_from_dense
from .oracles import PAULI


def test_pauli_matrices():
    sx, sy, sz = PAULI[1], PAULI[2], PAULI[3]
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


def test_x_product_flips_spins(chain4):
    op = product_operator(1, 0b0110, chain4)
    for m in range(16):
        out = apply(op, np.eye(16)[m])
        assert np.array_equal(out, np.eye(16)[m ^ 0b0110])


def test_z_is_diagonal_with_spin_eigenvalue(chain4):
    op = product_operator(3, 0b0001, chain4)
    for m in range(16):
        s0 = -1.0 if m & 1 else 1.0
        out = apply(op, np.eye(16)[m])
        assert np.array_equal(out, s0 * np.eye(16)[m])


def test_y_on_basis_vector():
    lat = build_hypercube(1, 1)
    op = product_operator(2, 0b1, lat)
    up, down = np.eye(2)[0], np.eye(2)[1]
    assert np.array_equal(apply(op, up), 1j * down)
    assert np.array_equal(apply(op, down), -1j * up)


def test_empty_set_gives_identity(chain4):
    for axis in (1, 2, 3):
        op = product_operator(axis, 0, chain4)
        assert max_entry_diff(op, operator_from_dense(np.eye(16))) == 0
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
    skew = operator_from_dense(1j * dense_from_operator(product_operator(1, 0b1, chain4)))
    assert not skew.is_hermitian


def test_flip_operator_by_hand():
    # term (C, d) puts d[m] at (m ^ C, m); the two C = 0b01 terms sum at
    # each position in term order, (2, 3) cancels to an exact zero and is
    # dropped with the d = 0 entries, and C = 0 is the diagonal
    op = flip_operator(
        2,
        [
            (0b01, np.array([1.0, 2.0, 0.0, 4.0])),
            (0, np.array([0.0, 5.0, 0.0, 0.0])),
            (0b01, np.array([0.5, 0.0, 0.0, -4.0])),
        ],
    )
    want = np.zeros((4, 4), dtype=complex)
    want[1, 0] = 1.5
    want[0, 1] = 2.0
    want[1, 1] = 5.0
    assert np.array_equal(dense_from_operator(op), want)
    assert op.mat.nnz == 3 and op.mat.has_canonical_format


@pytest.mark.parametrize("nan_term", ["first", "last"])
def test_a_nan_entry_survives_the_maxima_over_terms(nan_term):
    # Python's max over the per-term maxima kept a NaN only in the first
    # term; the NaN must reach norm_max, max_entry_diff and the Hermitian
    # flag from any term.
    clean = {0: np.array([1.0, 2.0], complex), 1: np.array([3.0, 3.0], complex)}
    planted = {0: clean[0].copy(), 1: np.array([3.0, np.nan], complex)}
    order = [1, 0] if nan_term == "first" else [0, 1]
    op = OperatorMatrix(1, {c: planted[c] for c in order})
    reference = OperatorMatrix(1, {c: clean[c] for c in order})
    assert np.isnan(op.norm_max)
    assert not op.is_hermitian
    assert np.isnan(max_entry_diff(op, reference))
    assert reference.norm_max == 3.0 and max_entry_diff(reference, reference) == 0.0
    assert OperatorMatrix(1, {}).norm_max == 0.0


def test_apply_dimension_mismatch(chain4):
    op = product_operator(1, 0b1, chain4)
    with pytest.raises(ConstraintError):
        apply(op, np.ones(8))


def test_diagonal_conjugation_identity(chain4):
    # moving an x-flip product across a Boltzmann diagonal swaps U(s)
    # for U(flip(s, A)) in the exponent
    pot = ClassicalPotential.from_terms(4, [([0], 0.6), ([1, 2], -0.9)])
    alpha = 1.1
    spins = spins_from_masks(np.arange(16), 4)
    for mask in (0b0001, 0b0110, 0b1011):
        d_plain = flip_operator(4, [(0, np.exp(-0.5 * alpha * pot.value_many(spins)))])
        flipped = pot.value_many(spins) + pot.flip_energy_many(spins, mask)
        d_flipped = flip_operator(4, [(0, np.exp(-0.5 * alpha * flipped))])
        x_op = product_operator(1, mask, chain4)
        left = d_plain.mat @ x_op.mat
        right = x_op.mat @ d_flipped.mat
        gap = np.abs((left - right).toarray()).max()
        assert gap <= 1e-14 * np.abs(left.toarray()).max()


def test_quantum_site_cap():
    lat = build_hypercube(1, 15)
    with pytest.raises(SizeCapError):
        product_operator(1, 0b1, lat)


def test_product_operator_honours_its_cap(chain4):
    with pytest.raises(SizeCapError, match="cap of 3"):
        product_operator(1, 0b1, chain4, cap=3)
    wide = product_operator(1, 0b1, build_hypercube(1, 15), cap=15)
    assert wide.dim == 1 << 15
