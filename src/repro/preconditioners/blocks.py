"""Small dense diagonal blocks of a CSR matrix, gathered and assembled in O(nnz).

Block Jacobi — the outer preconditioner and the inner reconstruction
solver alike — works on consecutive diagonal sub-blocks of at most ~10
rows.  Both directions are one vectorised pass here, so no caller ever
densifies a whole row range: :func:`gather_diagonal_blocks` turns the
matrix into a zero-padded ``(n_blocks, k, k)`` stack,
:func:`block_diagonal_csr` turns such a stack back into the CSR that
``scipy.sparse.block_diag`` builds from the dense blocks (every block
entry stored, zeros included, row-major, same index dtype).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def gather_diagonal_blocks(matrix: sp.csr_matrix, sizes: np.ndarray) -> np.ndarray:
    """Stack the consecutive diagonal blocks of ``matrix`` of the given ``sizes``.

    Block ``b`` is ``out[b, :sizes[b], :sizes[b]]``; the padding is zero.
    Duplicate entries are summed in storage order, exactly as
    ``matrix[lo:hi, lo:hi].toarray()`` does.
    """
    k = int(sizes.max())
    starts = np.cumsum(sizes) - sizes
    coo = matrix.tocoo(copy=False)
    block = np.repeat(np.arange(sizes.size), sizes)[coo.row]
    col = coo.col - starts[block]
    inside = (col >= 0) & (col < sizes[block])
    block = block[inside]
    flat = (block * k + (coo.row[inside] - starts[block])) * k + col[inside]
    stack = np.bincount(flat, weights=coo.data[inside], minlength=sizes.size * k * k)
    return stack.reshape(sizes.size, k, k)


def block_diagonal_csr(stack: np.ndarray, sizes: np.ndarray) -> sp.csr_matrix:
    """``sp.block_diag([stack[b, :sizes[b], :sizes[b]] ...], format="csr")``."""
    n = int(sizes.sum())
    row_nnz = np.repeat(sizes, sizes)
    nnz = int(row_nnz.sum())
    index_dtype = sp.get_index_dtype(maxval=max(nnz, n))
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.cumsum(row_nnz, out=indptr[1:])
    row_first_col = np.repeat(np.cumsum(sizes) - sizes, sizes)
    indices = np.arange(nnz, dtype=index_dtype)
    indices -= np.repeat(indptr[:-1] - row_first_col.astype(index_dtype), row_nnz)
    used = np.arange(stack.shape[1]) < sizes[:, None]
    data = stack[used[:, :, None] & used[:, None, :]]
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))
