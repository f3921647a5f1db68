"""Distributed PCG solvers (S5, S7 in DESIGN.md)."""

from .engine import (
    NoResilience,
    PCGEngine,
    ResilienceStrategy,
    SolveOptions,
    SolveResult,
)
from .inner import INNER_RTOL, InnerSolveReport, inner_pcg, serial_block_jacobi
from .residual_replacement import (
    ResidualReplacer,
    drift_from_result,
    residual_drift,
    true_residual_norm,
)
from .state import PCGState, STATE_VECTOR_NAMES

__all__ = [
    "INNER_RTOL",
    "InnerSolveReport",
    "NoResilience",
    "PCGEngine",
    "PCGState",
    "ResidualReplacer",
    "ResilienceStrategy",
    "STATE_VECTOR_NAMES",
    "SolveOptions",
    "SolveResult",
    "drift_from_result",
    "inner_pcg",
    "residual_drift",
    "serial_block_jacobi",
    "true_residual_norm",
]
