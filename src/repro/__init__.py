"""repro — Algorithm-Based Checkpoint-Recovery for the Conjugate Gradient Method.

A production-quality reproduction of Pachajoa, Pacher, Levonyak &
Gansterer, *"Algorithm-Based Checkpoint-Recovery for the Conjugate
Gradient Method"*, ICPP 2020 (DOI 10.1145/3404397.3404438):

* a simulated distributed-memory cluster with node failures and an
  α/β/γ cost model (:mod:`repro.cluster`),
* block-row distributed sparse linear algebra with an explicit SpMV
  halo exchange and the paper's *augmented* SpMV (:mod:`repro.distribution`),
* resilient preconditioned CG with pluggable recovery strategies —
  ESR, ESRP (the paper's contribution), in-memory buddy CR, and
  approximate-recovery baselines (:mod:`repro.solvers`, :mod:`repro.core`),
* the renderers that regenerate every table and figure of the paper's
  evaluation from a campaign over its §5 grid (:mod:`repro.harness`),
* a service-style API (:mod:`repro.api`): reusable
  :class:`~repro.api.SolverSession` objects, declarative
  :class:`~repro.api.SolveRequest`/:class:`~repro.api.SolveReport`
  pairs, and decorator-based plugin registries.

Quickstart — a session sets the problem up once (cluster, partition,
distributed matrix, factorised preconditioner, cached reference
trajectory) and serves many solves against it::

    import repro

    session = repro.SolverSession.from_problem("emilia_923_like",
                                               scale="small", n_nodes=8)
    request = repro.SolveRequest(
        strategy="esrp", T=20, phi=2,
        failures=[repro.FailureEvent(iteration=50, ranks=(0, 1))],
    )
    report = session.solve(request, with_reference=True)
    print(report.iterations, report.total_overhead, report.converged)

    # sweep the same problem without re-paying setup:
    reports = [
        session.solve(repro.SolveRequest(strategy=s, T=20, phi=2),
                      with_reference=True)
        for s in ("esr", "esrp", "imcr")
    ]

For one-shot use the classic convenience wrapper still works — it is a
thin shim over a throwaway session::

    A, b, meta = repro.matrices.load("emilia_923_like", scale="small")
    result = repro.solve(
        A, b, n_nodes=8, strategy="esrp", T=20, phi=2,
        failures=[repro.FailureEvent(iteration=50, ranks=(0, 1))],
    )
    print(result.iterations, result.modeled_time, result.converged)

Third-party components plug in via the registries::

    from repro.api import register_strategy

    @register_strategy("my_strategy")
    def build(T=1, phi=1):
        return MyStrategy(T=T, phi=phi)
"""

from __future__ import annotations

import numpy as np

from . import cluster, core, distribution, harness, kernels, matrices, preconditioners, solvers
from .cluster import (
    CostModel,
    FailureEvent,
    FailureSchedule,
    FatTree,
    Ring,
    VirtualCluster,
    block_failure_ranks,
    poisson_schedule,
)
from .distribution import (
    ASpMVExecutor,
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
    SpMVExecutor,
)
from .events import Event, EventKind, EventLog
from .exceptions import (
    ClusterError,
    ConfigurationError,
    ConvergenceError,
    DeadNodeError,
    IrrecoverableDataLossError,
    NodeFailureError,
    PartitionError,
    ReconstructionUnsupportedError,
    RecoveryError,
    ReproError,
)
from .core import (
    ESRPStrategy,
    ESRStrategy,
    IMCRStrategy,
    RedundancyQueue,
    make_strategy,
    solve_without_spares,
)
from .preconditioners import Preconditioner, make_preconditioner
from .solvers import PCGEngine, SolveOptions, SolveResult
from . import api
from .api import (
    SolveReport,
    SolveRequest,
    SolverSession,
    register_backend,
    register_matrix,
    register_preconditioner,
    register_strategy,
)
from .kernels import KernelBackend

__version__ = "1.2.0"

__all__ = [
    "ASpMVExecutor",
    "BlockRowPartition",
    "campaign",
    "ClusterError",
    "ConfigurationError",
    "ConvergenceError",
    "CostModel",
    "DeadNodeError",
    "DistributedMatrix",
    "DistributedVector",
    "ESRPStrategy",
    "ESRStrategy",
    "Event",
    "EventKind",
    "EventLog",
    "FailureEvent",
    "FailureSchedule",
    "FatTree",
    "IMCRStrategy",
    "IrrecoverableDataLossError",
    "KernelBackend",
    "NodeFailureError",
    "PCGEngine",
    "PartitionError",
    "Preconditioner",
    "ReconstructionUnsupportedError",
    "RecoveryError",
    "RedundancyQueue",
    "ReproError",
    "Ring",
    "SolveOptions",
    "SolveReport",
    "SolveRequest",
    "SolveResult",
    "SolverSession",
    "SpMVExecutor",
    "VirtualCluster",
    "api",
    "block_failure_ranks",
    "cluster",
    "core",
    "distribution",
    "harness",
    "kernels",
    "make_preconditioner",
    "make_strategy",
    "matrices",
    "poisson_schedule",
    "preconditioners",
    "register_backend",
    "register_matrix",
    "register_preconditioner",
    "register_strategy",
    "solve",
    "solve_without_spares",
    "solvers",
]


def solve(
    matrix,
    b: np.ndarray,
    n_nodes: int = 8,
    strategy: str = "esrp",
    T: int = 20,
    phi: int = 1,
    preconditioner: str = "block_jacobi",
    rtol: float = 1e-8,
    maxiter: int | None = None,
    failures=None,
    cost_model: CostModel | None = None,
    seed: int | None = 0,
    rule: str = "paper",
    destinations: str = "eq1",
    backend: str | None = None,
    **precond_kwargs,
) -> SolveResult:
    """One-call convenience API: solve ``A x = b`` resiliently.

    Parameters
    ----------
    matrix:
        Square SPD matrix (anything :mod:`scipy.sparse` accepts).
    b:
        Right-hand side vector.
    n_nodes:
        Number of virtual cluster nodes.
    strategy:
        ``"reference"``, ``"esr"``, ``"esrp"``, ``"imcr"``,
        ``"full_restart"``, ``"linear_interpolation"``,
        ``"least_squares"`` (see :func:`repro.core.make_strategy`).
    T, phi:
        Checkpoint/storage interval and redundancy count.
    preconditioner:
        Name for :func:`repro.preconditioners.make_preconditioner`;
        extra keyword arguments are forwarded to it.
    failures:
        ``FailureSchedule`` or iterable of ``FailureEvent``.
    cost_model, seed:
        Machine model and noise seed of the cluster.
    rule:
        ASpMV extra-entry selection rule (``"paper"`` or ``"greedy"``).
    backend:
        Compute-kernel backend (any registered name; the built-in is
        ``"vectorized"``).  ``None`` runs the default.

    Every call builds a throwaway :class:`SolverSession` and serves one
    request on it, so its cluster, distributed matrix and preconditioner
    start fresh; keep a session to reuse them across solves.

    Inputs are validated eagerly: unknown strategy/preconditioner
    names, ``maxiter < 1`` and ``phi >= n_nodes`` raise
    :class:`ConfigurationError` before any setup work happens.
    """
    request = api.SolveRequest(
        strategy=strategy,
        T=T,
        phi=phi,
        preconditioner=preconditioner,
        precond_params=precond_kwargs,
        rtol=rtol,
        maxiter=maxiter,
        failures=failures,
        rule=rule,
        destinations=destinations,
        seed=seed,
        backend=backend,
        n_nodes=n_nodes,
    )
    session = api.SolverSession(
        matrix,
        b,
        n_nodes=n_nodes,
        cost_model=cost_model,
        seed=seed,
    )
    return session.solve(request).result


# Imported last: the campaign workers call back into :func:`solve`.
from . import campaign  # noqa: E402
