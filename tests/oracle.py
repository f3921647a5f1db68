"""The numerical oracle: a serial textbook PCG.

Apart from recovery, the resilient solvers run the trajectory of plain
preconditioned CG (arXiv:2007.04066 §3).  This module is that
trajectory in ~30 lines of serial numpy, sharing nothing with the
distributed engine but the definition of a dot product
(:func:`~repro.kernels.base.flat_dot`, the canonical chunked ``ddot``).
The matrix is applied as one scipy CSR product and the preconditioner
as one global operator, so the per-node partition, the halo exchange
and the kernel backend do not enter.  ``tests/properties/test_oracle.py``
requires the engine to reproduce it bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.kernels.base import flat_dot

Operator = Callable[[np.ndarray], np.ndarray]


def serial_pcg(
    matrix, b: np.ndarray, apply_p: Operator, rtol: float = 1e-8, maxiter: int = 10_000
) -> tuple[np.ndarray, list[float]]:
    """``(x, relative residual after every iteration)`` of PCG from x₀ = 0.

    The update order is the engine's: ``x += αp``, ``r -= αAp``,
    ``z = P r``, then ``r·z`` and ``r·r``, then ``p = z + βp``.  Stops
    once the relative residual drops below ``rtol`` or after
    ``maxiter`` iterations.
    """
    A = sp.csr_matrix(matrix)
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    r = b - A @ x
    z = apply_p(r)
    p = z.copy()
    rz = flat_dot(r, z)
    b_norm = math.sqrt(max(flat_dot(b, b), 0.0))
    history: list[float] = []
    while len(history) < maxiter:
        rho = A @ p
        alpha = rz / flat_dot(p, rho)
        x += alpha * p
        r -= alpha * rho
        z = apply_p(r)
        rz_new, rr = flat_dot(r, z), flat_dot(r, r)
        beta = rz_new / rz if rz != 0.0 else 0.0
        rz = rz_new
        p *= beta
        p += z
        history.append(math.sqrt(max(rr, 0.0)) / b_norm)
        if history[-1] < rtol:
            break
    return x, history


def global_operator(precond) -> Operator:
    """One global ``r ↦ P r`` for a set-up block-diagonal preconditioner.

    Built from the matrix (Jacobi) or from the per-node factors the
    preconditioner computed, stacked into one block-diagonal operator,
    so the per-rank application path is not involved.
    """
    name = precond.name
    if name == "identity":
        return np.copy
    if name == "jacobi":
        inverse = 1.0 / precond.matrix.global_csr.diagonal()
        return lambda r: r * inverse
    if name == "block_jacobi":
        stacked = sp.block_diag(precond._forward, format="csr")
        return lambda r: stacked @ r
    if name == "block_ssor":
        lower = sp.block_diag(precond._lower, format="csr")
        upper = sp.block_diag(precond._lower_t, format="csr")
        mid = np.concatenate(precond._mid)
        return lambda r: spla.spsolve_triangular(
            upper, spla.spsolve_triangular(lower, r, lower=True) * mid, lower=False
        )
    if name == "block_ichol":
        lower = sp.block_diag(precond._factors, format="csr")
        upper = sp.block_diag(precond._factors_t, format="csr")
        return lambda r: spla.spsolve_triangular(
            upper, spla.spsolve_triangular(lower, r, lower=True), lower=False
        )
    raise ValueError(f"no global operator for preconditioner {name!r}")
