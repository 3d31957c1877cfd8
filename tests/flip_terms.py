"""Flip terms of a dense matrix and back, for tests that need an arbitrary
operator or the dense form of one.

Any 2^n x 2^n matrix A is a sum of flip terms: term C collects the entries
A[m XOR C, m] over all columns m.
"""

from __future__ import annotations

import numpy as np

from gibbs_ground.operators import OperatorMatrix, all_masks


def operator_from_dense(dense) -> OperatorMatrix:
    """The OperatorMatrix equal to a square matrix whose side is a power of
    two; flip sets with no nonzero entry get no term."""
    dense = np.asarray(dense, dtype=complex)
    dim = dense.shape[0]
    n_sites = dim.bit_length() - 1
    if dense.shape != (dim, dim) or dim != 1 << n_sites:
        raise ValueError(f"need a square matrix with a power-of-two side, got {dense.shape}")
    masks = all_masks(n_sites)
    terms = {c: dense[masks ^ c, masks] for c in range(dim)}
    return OperatorMatrix(n_sites, {c: d for c, d in terms.items() if d.any()})


def dense_from_operator(op: OperatorMatrix) -> np.ndarray:
    """The dense matrix of an operator, the inverse of operator_from_dense:
    d_C[m] at row m XOR C, column m."""
    masks = all_masks(op.n_sites)
    dense = np.zeros((op.dim, op.dim), dtype=complex)
    for c, d in op.terms.items():
        dense[masks ^ c, masks] = d
    return dense
