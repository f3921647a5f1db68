"""Distributed sparse matrices under a block-row partition.

The *dynamic* data of the solver lives in distributed vectors; the
matrix is **static** data which, following the paper, survives failures
("the reconstruction procedure assumes that the static solver data can
be retrieved from safe storage").  :class:`DistributedMatrix` therefore
keeps the global CSR form (the safe-storage master copy, used for
reconstruction and diagnostics) alongside the per-node column-compressed
row blocks used by the actual distributed product.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from ..cluster.communicator import VirtualCluster
from ..exceptions import ConfigurationError
from .comm_plan import SpMVPlan
from .partition import BlockRowPartition

try:  # pragma: no cover - exercised on any scipy we support
    # The kernel scipy's ``csr_matrix @ vector`` itself runs: it
    # accumulates ``y += A @ x`` into a caller-owned output.
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - ancient/exotic scipy builds
    _csr_matvec = None


def csr_matvec(matrix: sp.csr_matrix, x: np.ndarray, out: np.ndarray) -> None:
    """``out[:] = matrix @ x``, written into ``out``.

    Zero-fills ``out`` and runs the kernel ``matrix @ x`` runs on the
    zeroed result it allocates, so the values are bit-identical (same
    kernel, same per-row accumulation order) without a fresh array and a
    copy per call.  ``out`` must not share memory with ``x``.
    """
    if _csr_matvec is None:
        out[:] = matrix @ x
        return
    out.fill(0.0)
    n_rows, n_cols = matrix.shape
    _csr_matvec(n_rows, n_cols, matrix.indptr, matrix.indices, matrix.data, x, out)


class DistributedMatrix:
    """A square sparse matrix distributed by block rows."""

    def __init__(
        self,
        cluster: VirtualCluster,
        partition: BlockRowPartition,
        matrix: sp.spmatrix,
    ):
        if partition.n_nodes != cluster.n_nodes:
            raise ConfigurationError(
                f"partition has {partition.n_nodes} blocks, cluster has {cluster.n_nodes} nodes"
            )
        csr = sp.csr_matrix(matrix)
        if csr.shape[0] != csr.shape[1]:
            raise ConfigurationError(f"matrix must be square, got {csr.shape}")
        if csr.shape[0] != partition.n:
            raise ConfigurationError(
                f"matrix is {csr.shape[0]}x{csr.shape[0]}, partition expects {partition.n}"
            )
        self.cluster = cluster
        self.partition = partition
        #: Safe-storage master copy (static data; survives node failures).
        self.global_csr = csr
        self.plan = SpMVPlan(csr, partition)

    # ------------------------------------------------------------------ queries

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def nnz(self) -> int:
        return int(self.global_csr.nnz)

    def local_nnz(self, rank: int) -> int:
        """Non-zeros of rank's row block (for flop accounting)."""
        return self.plan.local_nnz[rank]

    def row_block(self, ranks: Iterable[int]) -> sp.csr_matrix:
        """``A[I_f, :]`` for a set of ranks — retrieved from safe storage."""
        indices = self.partition.indices_of(ranks)
        return self.global_csr[indices, :].tocsr()

    def submatrix(self, ranks: Iterable[int]) -> sp.csr_matrix:
        """``A[I_f, I_f]`` — the inner system operator of Alg. 2 line 8."""
        indices = self.partition.indices_of(ranks)
        return self.global_csr[np.ix_(indices, indices)].tocsr()

    def coupling_block(self, ranks: Iterable[int]) -> sp.csr_matrix:
        """``A[I_f, I \\ I_f]`` — couples lost rows to surviving entries."""
        lost = self.partition.indices_of(ranks)
        kept = self.partition.complement_indices(ranks)
        return self.global_csr[np.ix_(lost, kept)].tocsr()

    def diagonal_block(self, rank: int) -> sp.csr_matrix:
        """``A[I_s, I_s]`` for one rank (used by block preconditioners)."""
        lo, hi = self.partition.bounds(rank)
        return self.global_csr[lo:hi, lo:hi].tocsr()

    def diagonal(self) -> np.ndarray:
        """The matrix diagonal (used by the Jacobi preconditioner)."""
        return self.global_csr.diagonal()

    def bandwidth(self) -> int:
        """Maximum |i - j| over stored non-zeros (sparsity bandedness)."""
        coo = self.global_csr.tocoo()
        if coo.nnz == 0:
            return 0
        return int(np.abs(coo.row - coo.col).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DistributedMatrix(n={self.n}, nnz={self.nnz}, "
            f"n_nodes={self.partition.n_nodes})"
        )
