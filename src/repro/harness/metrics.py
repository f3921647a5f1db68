"""Evaluation metrics of the paper (§5).

* **relative overhead** — ``(t − t₀) / t₀`` where t₀ is the runtime of
  the non-resilient reference solver;
* **reconstruction overhead** — the recovery-phase time relative to t₀
  (the "Reconstruction overhead" columns of Tables 2/3);
* **residual drift** (Eq. 2, Table 4) — every campaign run records it
  (:func:`repro.solvers.drift_from_result`).
"""

from __future__ import annotations

from ..exceptions import ConfigurationError


def relative_overhead(runtime: float, reference_runtime: float) -> float:
    """``(t − t₀) / t₀`` — may be slightly negative under noise."""
    if reference_runtime <= 0:
        raise ConfigurationError("reference runtime must be > 0")
    return (runtime - reference_runtime) / reference_runtime
