"""The flip-term operator against its CSR view.

Each OperatorMatrix the package assembles computes its norms, Hermitian
flag, entrywise differences and flip-graph blocks from the flip terms with
numpy, and its products and dense eigensolver blocks from its row table;
the CSR form from OperatorMatrix.mat is the independent reference here.
Products match CSR bit for bit unless both the operator and the vector
are complex, where they agree within a stated rounding bound.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from gibbs_ground import apply, product_operator
from gibbs_ground.errors import ConstraintError
from gibbs_ground.models import offdiagonal_from_couplings
from gibbs_ground.verify import min_eigenvalue
from gibbs_ground.operators import (
    HERMITIAN_RTOL,
    flip_graph_labels,
    flip_operator,
    max_entry_diff,
)

from .conftest import random_model
from .flip_terms import dense_from_operator

FAMILY_SEEDS = {"ferro": 601, "generic": 607, "odd": 613}


def _family_operators(flavor, count=4):
    """(model, {name: operator}) for models of one conftest family, covering
    every function that assembles an operator."""
    rng = np.random.default_rng(FAMILY_SEEDS[flavor])
    for _ in range(count):
        model = random_model(rng, flavor=flavor)
        lat = model.lattice
        ops = {
            "h0": model.h0,
            "v": model.v,
            "h": model.h,
            "h_conjugate": model.h_conjugate,
            "grouped": offdiagonal_from_couplings(model),
        }
        for axis in (1, 2, 3):
            mask = int(rng.integers(1, 1 << lat.n_sites))
            ops[f"product{axis}"] = product_operator(axis, mask, lat)
        yield model, ops


def _csr_max_abs(mat) -> float:
    data = mat.tocoo().data
    return float(np.abs(data).max()) if data.size else 0.0


@pytest.mark.parametrize("flavor", sorted(FAMILY_SEEDS))
def test_products_match_csr_bitwise_unless_both_complex(flavor):
    # With a real operator or a real vector every product rounds once and
    # each row is summed in CSR's column order, so the bits agree.  A
    # complex operator times a complex vector may fuse a multiply-add inside
    # each complex product.  Either side then errs by at most
    # (terms + 2 sqrt 2) * eps/2 * S per entry, with S = max_m sum_C
    # |d_C||v| (recursive summation plus one complex product), so the two
    # differ by less than (terms + 2) * eps * S.
    eps = np.finfo(float).eps
    compared = {"bitwise": 0, "bounded": 0}
    for model, ops in _family_operators(flavor):
        rng = np.random.default_rng(model.lattice.n_sites)
        real = rng.standard_normal(model.h.dim)
        vectors = [real, real + 1j * rng.standard_normal(model.h.dim), model.state]
        for name, op in ops.items():
            for v in vectors:
                got, want = apply(op, v), op.mat @ v
                if op.is_real or not np.iscomplexobj(v):
                    assert got.tobytes() == want.tobytes(), name
                    compared["bitwise"] += 1
                else:
                    scale = float((abs(op.mat) @ abs(v)).max())
                    bound = (len(op.terms) + 2) * eps * scale
                    assert np.abs(got - want).max() <= bound, name
                    compared["bounded"] += 1
    assert min(compared.values()) > 0


@pytest.mark.parametrize("flavor", sorted(FAMILY_SEEDS))
def test_derived_quantities_match_csr(flavor):
    for _, ops in _family_operators(flavor):
        for name, op in ops.items():
            mat = op.mat
            assert op.nnz == mat.nnz, name
            assert op.norm_max == _csr_max_abs(mat), name
            hermitian = _csr_max_abs(mat - mat.conj().T) <= HERMITIAN_RTOL * op.norm_max
            assert op.is_hermitian == hermitian, name
            assert np.array_equal(dense_from_operator(op), mat.toarray()), name
            rows, cols, vals = op.nonzero_entries()
            coo = mat.tocoo()
            got, want = np.lexsort((cols, rows)), np.lexsort((coo.col, coo.row))
            assert np.array_equal(rows[got], coo.row[want]), name
            assert np.array_equal(cols[got], coo.col[want]), name
            assert np.array_equal(vals[got], coo.data[want]), name
        for a, b in [("h0", "grouped"), ("h", "h_conjugate"), ("h0", "v")]:
            want = _csr_max_abs(ops[a].mat - ops[b].mat)
            assert max_entry_diff(ops[a], ops[b]) == want, (a, b)


@pytest.mark.parametrize("flavor", sorted(FAMILY_SEEDS))
def test_flip_graph_labels_match_connected_components(flavor):
    for _, ops in _family_operators(flavor):
        for name, op in ops.items():
            mat = op.mat
            pattern = sparse.csr_array(
                (np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape
            )
            _, want = connected_components(pattern, directed=False)
            _, got = np.unique(flip_graph_labels(op), return_inverse=True)
            assert np.array_equal(got, want), name


def test_flip_graph_labels_by_hand():
    # 3 sites: X on site 0 joins m and m ^ 1 except 6 and 7, whose entries
    # are zero on both sides; X on sites {1, 2} joins 0 and 6 through one
    # nonzero entry, d[0], with d[6] = 0.  Components: {0, 1, 6}, {2, 3},
    # {4, 5} and {7}, each labelled by its smallest mask.
    x0 = np.array([1, 1, 1, 1, 1, 1, 0, 0.0])
    x12 = np.zeros(8)
    x12[0] = 2.0
    op = flip_operator(3, [(0b001, x0), (0b110, x12), (0, np.arange(8.0))])
    assert flip_graph_labels(op).tolist() == [0, 0, 2, 2, 4, 4, 0, 7]
    assert flip_graph_labels(flip_operator(2, [])).tolist() == [0, 1, 2, 3]


def test_min_eigenvalue_blocks_by_hand():
    # A complex Hermitian version of the operator above: the same flip graph
    # (now d[6] = conj(d[0]) for X on {1, 2}), so the row table holds zeros
    # whose columns lie in other blocks, e.g. row 6 at column 7 and row 2 at
    # column 4.  A block filled transposed would be the complex conjugate:
    # the same eigenvalues, but an eigenvector whose residual on H is large.
    phase = np.exp(0.3j)
    x0 = np.array([phase, phase.conjugate()] * 3 + [0, 0])
    x12 = np.zeros(8, dtype=complex)
    x12[0], x12[6] = 2.0 - 1.0j, 2.0 + 1.0j
    op = flip_operator(3, [(0b001, x0), (0b110, x12), (0, np.arange(8.0))])
    assert op.is_hermitian and not op.is_real
    result = min_eigenvalue(op)
    assert (result.method, result.blocks, result.largest_block) == ("dense", 4, 3)
    want = np.linalg.eigvalsh(dense_from_operator(op))[0]
    assert want < 0 and abs(result.eigenvalue - want) <= 1e-14 * op.norm_max
    assert result.residual <= 1e-14 * op.norm_max


def test_sum_and_difference_read_a_missing_term_as_zeros():
    a = flip_operator(2, [(0b01, np.array([1.0, -2.0, 0.0, 3.0]))])
    b = flip_operator(2, [(0, np.array([0.5, 0.0, 0.0, 0.0]))])
    total = a + b
    assert sorted(total.terms) == [0, 0b01]
    dense_sum = dense_from_operator(a) + dense_from_operator(b)
    assert np.array_equal(dense_from_operator(total), dense_sum)
    assert max_entry_diff(a, b) == 3.0
    assert max_entry_diff(total, a) == 0.5
    with pytest.raises(ConstraintError, match="do not combine"):
        a + flip_operator(3, [])
