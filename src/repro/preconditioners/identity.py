"""Identity preconditioner: plain CG in PCG clothing."""

from __future__ import annotations

import numpy as np

from ..distribution.matrix import DistributedMatrix
from .base import BlockDiagonalPreconditioner


class IdentityPreconditioner(BlockDiagonalPreconditioner):
    """``P = I`` — turns PCG into unpreconditioned CG."""

    name = "identity"

    def _setup_impl(self, matrix: DistributedMatrix) -> None:
        pass

    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return values

    def flat_apply(self, values: np.ndarray, out: np.ndarray) -> None:
        out[:] = values

    def _apply_inverse_local(self, rank: int, values: np.ndarray) -> np.ndarray:
        return values

    def _apply_flops(self, rank: int) -> float:
        return 0.0
