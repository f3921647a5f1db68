"""Block-local SSOR preconditioner.

Distributed codes commonly localise SSOR to each node's diagonal block
(an "inexact block Jacobi with SSOR blocks"): per node ``s`` with
``A_ss = L + D + Lᵀ``,

    M_s = (D/ω + L) · ((2-ω)/ω · D)⁻¹ · (D/ω + L)ᵀ,   0 < ω < 2,

and the preconditioner action is ``P_s = M_s⁻¹`` via two triangular
solves.  Because M_s is node-local and SPD, this operator is
node-aligned block diagonal and therefore reconstruction-compatible:
``P_ff r_f = v`` is solved by applying ``M_s`` (two matvecs + a diagonal
scale) per failed node.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..distribution.matrix import DistributedMatrix
from ..exceptions import ConfigurationError
from .base import BlockDiagonalPreconditioner


class BlockSSORPreconditioner(BlockDiagonalPreconditioner):
    """Node-local symmetric SOR (SSOR) preconditioner."""

    name = "block_ssor"

    def __init__(self, omega: float = 1.2):
        super().__init__()
        if not 0.0 < omega < 2.0:
            raise ConfigurationError(f"omega must be in (0, 2), got {omega}")
        self.omega = float(omega)

    def _setup_impl(self, matrix: DistributedMatrix) -> None:
        omega = self.omega
        self._lower: list[sp.csr_matrix] = []  # D/ω + L  (lower triangular)
        self._lower_t: list[sp.csr_matrix] = []  # its transpose, for the back solve
        self._mid: list[np.ndarray] = []  # ((2-ω)/ω) · diag
        self._flops: list[float] = []
        for rank in range(matrix.partition.n_nodes):
            block = matrix.diagonal_block(rank)
            diagonal = block.diagonal()
            if np.any(diagonal <= 0):
                raise ConfigurationError(
                    f"SSOR requires positive diagonal entries (rank {rank})"
                )
            strict_lower = sp.tril(block, k=-1, format="csr")
            lower = (strict_lower + sp.diags_array(diagonal / omega, format="csr")).tocsr()
            self._lower.append(lower)
            self._lower_t.append(lower.T.tocsr())
            self._mid.append((2.0 - omega) / omega * diagonal)
            # two triangular solves + diagonal scale per application
            self._flops.append(4.0 * lower.nnz + diagonal.size)

    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        y = spla.spsolve_triangular(self._lower[rank], values, lower=True)
        y *= self._mid[rank]
        return spla.spsolve_triangular(self._lower_t[rank], y, lower=False)

    def _apply_inverse_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        lower = self._lower[rank]
        y = lower.T @ values
        y /= self._mid[rank]
        return lower @ y

    def _apply_flops(self, rank: int) -> float:
        return self._flops[rank]
