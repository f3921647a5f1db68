"""Serial PCG for the inner reconstruction systems (Alg. 2, line 8).

After a node failure, the replacement nodes must solve the inner system
``A_ff x_f = w`` on the lost index set.  The paper solves it with the
same preconditioner family as the outer solve (block Jacobi, blocks
≤ 10) to a relative residual of 1e-14.

The inner system is small (ψ node blocks) and lives entirely on the
replacement group, so this solver is a plain sequential PCG on numpy
arrays; the caller charges its cost to the replacement nodes' clocks
using the returned iteration/flop counts.  Its dot products and norms
use the engine's canonical reduction
(:func:`~repro.kernels.base.flat_dot`), so its bits do not depend on
the BLAS thread count either.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError, ConvergenceError
from ..kernels.base import flat_dot
from ..preconditioners.block_jacobi import split_into_blocks
from ..preconditioners.blocks import block_diagonal_csr, gather_diagonal_blocks

#: The paper's convergence requirement for reconstruction systems.
INNER_RTOL = 1e-14


@dataclasses.dataclass(frozen=True)
class InnerSolveReport:
    """Outcome of an inner solve, used for cost accounting."""

    iterations: int
    relative_residual: float
    flops: float
    converged: bool


def serial_block_jacobi(
    matrix: sp.csr_matrix, max_block_size: int = 10
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Block-Jacobi application for a *serial* matrix.

    Returns ``(apply, flops_per_application)`` where ``apply(v)``
    multiplies by the block-diagonal inverse.  Used for the inner
    reconstruction systems, mirroring the outer preconditioner setup.
    """
    n = matrix.shape[0]
    if n == 0:
        return (lambda v: v), 0.0
    sizes = np.array(
        [hi - lo for lo, hi in split_into_blocks(n, max_block_size)], dtype=np.int64
    )
    blocks = gather_diagonal_blocks(matrix, sizes)
    inverses = np.zeros_like(blocks)
    for size in np.unique(sizes):  # at most two sizes: one stacked inv each
        members = np.flatnonzero(sizes == size)
        try:
            inverses[members, :size, :size] = np.linalg.inv(blocks[members, :size, :size])
        except np.linalg.LinAlgError as exc:
            raise ConfigurationError(f"an inner block of {size} rows is singular: {exc}") from exc
    operator = block_diagonal_csr(inverses, sizes)

    def apply(v: np.ndarray) -> np.ndarray:
        return operator @ v

    return apply, 2.0 * operator.nnz


def inner_pcg(
    matrix: sp.csr_matrix,
    rhs: np.ndarray,
    rtol: float = INNER_RTOL,
    maxiter: int | None = None,
    max_block_size: int = 10,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, InnerSolveReport]:
    """Solve ``matrix @ x = rhs`` with serial PCG + block Jacobi.

    Raises :class:`ConvergenceError` if the relative residual neither
    reaches ``rtol`` nor at least a loose acceptance threshold
    (``1e-10``) within the iteration budget — reconstruction must not
    silently continue from garbage.
    """
    matrix = sp.csr_matrix(matrix)
    n = matrix.shape[0]
    rhs = np.asarray(rhs, dtype=np.float64).ravel()
    if rhs.size != n:
        raise ConfigurationError(f"rhs has {rhs.size} entries, matrix is {n}x{n}")
    if n == 0:
        return np.empty(0), InnerSolveReport(0, 0.0, 0.0, True)
    if maxiter is None:
        maxiter = max(200, 60 * n)

    precond, precond_flops = serial_block_jacobi(matrix, max_block_size)
    rhs_norm = math.sqrt(flat_dot(rhs, rhs))
    if rhs_norm == 0.0:
        return np.zeros(n), InnerSolveReport(0, 0.0, 0.0, True)

    x = np.zeros(n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    r = rhs - matrix @ x
    z = precond(r)
    p = z.copy()
    rz = flat_dot(r, z)
    flops = 2.0 * matrix.nnz + precond_flops

    iterations = 0
    relative = math.sqrt(flat_dot(r, r)) / rhs_norm
    while relative > rtol and iterations < maxiter:
        ap = matrix @ p
        pap = flat_dot(p, ap)
        if pap <= 0.0:
            raise ConvergenceError("inner PCG (A_ff not SPD?)", iterations, relative, rtol)
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        z = precond(r)
        rz_new = flat_dot(r, z)
        beta = rz_new / rz if rz != 0.0 else 0.0
        rz = rz_new
        p = z + beta * p
        iterations += 1
        relative = math.sqrt(flat_dot(r, r)) / rhs_norm
        flops += 2.0 * matrix.nnz + precond_flops + 10.0 * n

    converged = relative <= rtol
    if not converged and relative > 1e-10:
        raise ConvergenceError("inner PCG", iterations, relative, rtol)
    return x, InnerSolveReport(iterations, relative, flops, converged)
