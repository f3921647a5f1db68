"""Residual replacement for PCG (Van der Vorst & Ye [27]).

The paper's accuracy study (§5, Table 4) measures the *residual drift*
between the recursively updated residual ``r`` and the true residual
``b − A x`` — citing [27] for the phenomenon.  Residual replacement is
the classic mitigation: every ``interval`` iterations the recursive
residual is replaced by the explicitly recomputed one, bounding the
drift at the cost of one extra SpMV per replacement.

This is implemented as an engine *add-on* so it composes with every
resilience strategy: the replacement is a deterministic state update
and therefore participates in checkpoints/reconstruction like any other
iteration work.  The drift ablation compares Table 4 with and without
it.

The drift itself (Eq. 2 of the paper) is
``(‖r_end‖₂ − ‖b − A x_end‖₂) / ‖b − A x_end‖₂``, computed only after
convergence; more positive ⇒ the true residual is *smaller* than the
recursive one ⇒ more accurate (:func:`drift_from_result`).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from ..distribution.spmv import SpMVExecutor
from ..exceptions import ConfigurationError
from ..kernels.base import flat_dot
from .engine import PCGEngine, SolveResult
from .state import PCGState


def _norm(v: np.ndarray) -> float:
    """‖v‖₂ by the engine's canonical reduction (BLAS-thread independent)."""
    return math.sqrt(flat_dot(v, v))


def true_residual_norm(matrix: sp.spmatrix, b: np.ndarray, x: np.ndarray) -> float:
    """‖b − A x‖₂ recomputed from scratch (not the CG recursion)."""
    return _norm(np.asarray(b, dtype=np.float64).ravel() - sp.csr_matrix(matrix) @ x)


def residual_drift(
    matrix: sp.spmatrix,
    b: np.ndarray,
    x_end: np.ndarray,
    recursive_residual_norm: float,
) -> float:
    """Eq. (2) of the paper: drift between recursive and true residual."""
    true_norm = true_residual_norm(matrix, b, x_end)
    if true_norm == 0.0:
        return 0.0
    return (recursive_residual_norm - true_norm) / true_norm


def drift_from_result(matrix: sp.spmatrix, b: np.ndarray, result: SolveResult) -> float:
    """Residual drift of a finished solve (‖r‖ from the recursion)."""
    b_norm = _norm(np.asarray(b, dtype=np.float64).ravel())
    recursive_norm = result.relative_residual * b_norm
    return residual_drift(matrix, b, result.x, recursive_norm)


class ResidualReplacer:
    """Periodically replaces ``r`` by ``b − A x`` inside a PCG engine.

    Usage::

        engine = PCGEngine(...)
        replacer = ResidualReplacer(engine, interval=50)
        # wrap the strategy's post_iteration hook
        result = replacer.attach().solve()

    ``attach()`` decorates the engine's strategy so that every
    ``interval`` iterations — right after the β update, i.e. at a
    well-defined point of the recursion — the residual is recomputed
    explicitly and the preconditioned residual and rz are refreshed.
    The search direction ``p`` is kept (a "residual-only" replacement,
    the variant of [27] that preserves the CG recursion).
    """

    def __init__(self, engine: PCGEngine, interval: int = 50):
        if interval < 1:
            raise ConfigurationError(f"interval must be >= 1, got {interval}")
        self.engine = engine
        self.interval = int(interval)
        self._executor = SpMVExecutor(engine.matrix)
        self.replacements = 0

    def attach(self) -> PCGEngine:
        """Wrap the engine's strategy hooks; returns the engine."""
        strategy = self.engine.strategy
        original_post = strategy.post_iteration
        replacer = self

        def post_iteration(j: int, state: PCGState) -> None:
            original_post(j, state)
            if j > 0 and j % replacer.interval == 0:
                replacer.replace(state)

        strategy.post_iteration = post_iteration  # type: ignore[method-assign]
        return self.engine

    def replace(self, state: PCGState) -> None:
        """``r ← b − A x``; refresh ``z`` and ``rz`` (all charged)."""
        engine = self.engine
        self._executor.multiply(state.x, out=state.rho)
        state.r.subtract(engine.b, state.rho)
        engine.preconditioner.apply(state.r, state.z)
        state.rz = state.r.dot(state.z)
        self.replacements += 1
