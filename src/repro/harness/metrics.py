"""Evaluation metrics of the paper (§5).

* **relative overhead** — ``(t − t₀) / t₀`` where t₀ is the median
  runtime of the non-resilient reference solver;
* **reconstruction overhead** — the recovery-phase time relative to t₀
  (the "Reconstruction overhead" columns of Tables 2/3);
* **residual drift** (Eq. 2) —
  ``(‖r_end‖₂ − ‖b − A x_end‖₂) / ‖b − A x_end‖₂``, computed only after
  convergence; more positive ⇒ the true residual is *smaller* than the
  recursive one ⇒ more accurate.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from ..campaign.results import median
from ..exceptions import ConfigurationError
from ..kernels.base import flat_dot
from ..solvers.engine import SolveResult


def _norm(v: np.ndarray) -> float:
    """‖v‖₂ by the engine's canonical reduction (BLAS-thread independent)."""
    return math.sqrt(flat_dot(v, v))


def relative_overhead(runtime: float, reference_runtime: float) -> float:
    """``(t − t₀) / t₀`` — may be slightly negative under noise."""
    if reference_runtime <= 0:
        raise ConfigurationError("reference runtime must be > 0")
    return (runtime - reference_runtime) / reference_runtime


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


@dataclasses.dataclass(frozen=True)
class OverheadSummary:
    """Median overheads of one experiment cell (one table entry)."""

    strategy: str
    T: int
    phi: int
    location: str | None
    failures: int
    failure_free_overhead: float | None
    total_overhead: float | None
    reconstruction_overhead: float | None

    def as_percent(self, value: float | None) -> str:
        if value is None:
            return "-"
        return f"{100.0 * value:.1f}"


def summarize_overheads(
    runtimes: Sequence[float],
    recovery_times: Sequence[float],
    reference_runtime: float,
) -> tuple[float, float]:
    """(median total overhead, median reconstruction overhead) vs t₀."""
    total = median([relative_overhead(t, reference_runtime) for t in runtimes])
    reconstruction = median([rt / reference_runtime for rt in recovery_times])
    return total, reconstruction
