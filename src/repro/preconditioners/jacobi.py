"""Jacobi (diagonal) preconditioner."""

from __future__ import annotations

import numpy as np

from ..distribution.matrix import DistributedMatrix
from ..exceptions import ConfigurationError
from .base import BlockDiagonalPreconditioner


class JacobiPreconditioner(BlockDiagonalPreconditioner):
    """``P = diag(A)⁻¹`` — the cheapest non-trivial preconditioner.

    Node-aligned block diagonal with 1×1 blocks, hence fully
    reconstruction-compatible: ``P_ff r_f = v  ⇔  r_f = diag(A)_f · v``.
    """

    name = "jacobi"

    def _setup_impl(self, matrix: DistributedMatrix) -> None:
        diagonal = matrix.diagonal()
        if np.any(diagonal <= 0):
            raise ConfigurationError(
                "Jacobi preconditioner requires a strictly positive diagonal "
                "(is the matrix SPD?)"
            )
        partition = matrix.partition
        self._diag_blocks = [
            diagonal[partition.bounds(rank)[0] : partition.bounds(rank)[1]]
            for rank in range(partition.n_nodes)
        ]
        self._inv_blocks = [1.0 / d for d in self._diag_blocks]
        self._inv_flat = np.concatenate(self._inv_blocks)

    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return values * self._inv_blocks[rank]

    def flat_apply(self, values: np.ndarray, out: np.ndarray) -> None:
        np.multiply(values, self._inv_flat, out=out)

    def _apply_inverse_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return values * self._diag_blocks[rank]

    def _apply_flops(self, rank: int) -> float:
        return float(self._diag_blocks[rank].size)
