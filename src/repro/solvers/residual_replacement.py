"""Residual replacement for PCG (Van der Vorst & Ye [27]).

The paper's accuracy study (§5, Table 4) measures the *residual drift*
between the recursively updated residual ``r`` and the true residual
``b − A x`` — citing [27] for the phenomenon.  Residual replacement is
the classic mitigation: every ``interval`` iterations the recursive
residual is replaced by the explicitly recomputed one, bounding the
drift at the cost of one extra SpMV per replacement.

This is implemented as a strategy *add-on* so it composes with every
resilience strategy: the replacement is a deterministic state update
and therefore participates in checkpoints/reconstruction like any other
iteration work.  A replaced solve leaves the reference trajectory, so
the wrapped strategy promises no replay horizon (see "Replay" in
:mod:`repro.api.session`).  The drift ablation compares Table 4 with
and without it.

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
from .engine import ResilienceStrategy, SolveResult
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
    """Periodically replaces ``r`` by ``b − A x`` under a strategy.

    Usage, as a registered strategy a session can serve::

        @register_strategy("esrp_replaced")
        def build(T=1, phi=1):
            return ResidualReplacer(ESRPStrategy(T=T, phi=phi), interval=50).attach()

    ``attach()`` decorates the strategy so that every ``interval``
    iterations — right after the β update, i.e. at a well-defined point
    of the recursion — the residual is recomputed explicitly and the
    preconditioned residual and rz are refreshed.  The search direction
    ``p`` is kept (a "residual-only" replacement, the variant of [27]
    that preserves the CG recursion).  It also sets the strategy's
    :meth:`~repro.solvers.engine.ResilienceStrategy.replay_horizon` to
    0: no part of a replaced solve is the reference's.
    """

    def __init__(self, strategy: ResilienceStrategy, interval: int = 50):
        if interval < 1:
            raise ConfigurationError(f"interval must be >= 1, got {interval}")
        self.strategy = strategy
        self.interval = int(interval)
        self.replacements = 0

    def attach(self) -> ResilienceStrategy:
        """Wrap the strategy's hooks; returns the strategy."""
        strategy = self.strategy
        original_post = strategy.post_iteration
        replacer = self

        def post_iteration(j: int, state: PCGState) -> None:
            original_post(j, state)
            if j > 0 and j % replacer.interval == 0:
                replacer.replace(state)

        strategy.post_iteration = post_iteration  # type: ignore[method-assign]
        strategy.replay_horizon = lambda failures: 0  # type: ignore[method-assign]
        return strategy

    def replace(self, state: PCGState) -> None:
        """``r ← b − A x``; refresh ``z`` and ``rz`` (all charged)."""
        engine = self.strategy.engine
        SpMVExecutor(engine.matrix).multiply(state.x, out=state.rho)
        state.r.subtract(engine.b, state.rho)
        engine.preconditioner.apply(state.r, state.z)
        state.rz = state.r.dot(state.z)
        self.replacements += 1
