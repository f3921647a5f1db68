"""Reference block-Jacobi set-ups: the per-block loops the library ran before
``repro.preconditioners.blocks`` replaced them.

They densify a whole row range and push the blocks through the public
scipy / numpy wrappers one at a time — quadratic in rows per node, which
is why they live here — and they define, bit for bit, what the O(nnz)
builder must produce (``test_block_identity.py``).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from repro.preconditioners import split_into_blocks


def reference_block_jacobi(dmatrix, max_block_size):
    """``(P_s per rank, M_s per rank, stacked P)`` of the dense per-rank loop."""
    forward, backward = [], []
    for rank in range(dmatrix.partition.n_nodes):
        local = dmatrix.diagonal_block(rank).toarray()
        inverse_blocks, original_blocks = [], []
        for lo, hi in split_into_blocks(local.shape[0], max_block_size):
            block = local[lo:hi, lo:hi]
            chol = scipy.linalg.cho_factor(block, lower=True)
            inverse_blocks.append(scipy.linalg.cho_solve(chol, np.eye(hi - lo)))
            original_blocks.append(block)
        forward.append(sp.block_diag(inverse_blocks, format="csr"))
        backward.append(sp.block_diag(original_blocks, format="csr"))
    return forward, backward, sp.block_diag(forward, format="csr")


def reference_serial_block_jacobi(matrix, max_block_size):
    """The inverse-block operator of the per-block ``np.linalg.inv`` loop."""
    dense_blocks = [
        np.linalg.inv(matrix[lo:hi, lo:hi].toarray())
        for lo, hi in split_into_blocks(matrix.shape[0], max_block_size)
    ]
    return sp.block_diag(dense_blocks, format="csr")
