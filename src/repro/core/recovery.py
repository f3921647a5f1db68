"""Shared recovery plumbing used by the resilience strategies.

Keeps the strategy classes focused on *what* they store and rebuild;
the common mechanics — the local state copies a rollback restores
from, spare-node replacement, recovery-phase event bracketing, and the
restart-from-scratch fallback — live here.
"""

from __future__ import annotations

from typing import Any

from ..cluster.cost_model import BYTES_PER_FLOAT
from ..cluster.failures import FailureEvent
from ..events import EventKind
from ..solvers.engine import PCGEngine
from ..solvers.state import PCGState, STATE_VECTOR_NAMES


def keep_local_copies(engine: PCGEngine, state: PCGState, prefix: str) -> None:
    """Every node stores a copy of its x, r, z, p blocks under ``prefix``.

    Billed first, as one memcpy profile (each rank copies its four
    blocks), the same bill as a per-rank ``memcpy`` loop.
    """
    cluster = engine.cluster
    cluster.charge_memcpy(
        engine.partition.charge_profile(len(STATE_VECTOR_NAMES) * BYTES_PER_FLOAT)
    )
    vectors = [(prefix + name, state.vector(name).blocks) for name in STATE_VECTOR_NAMES]
    for rank, node in enumerate(cluster.nodes):
        for key, blocks in vectors:
            node.keep(key, blocks[rank].copy())


def begin_recovery(engine: PCGEngine, j: int, event: FailureEvent, **detail: Any) -> None:
    """Bring up spare nodes for the failed ranks and open a recovery span.

    The paper assumes spare nodes are pre-allocated and the middleware
    costs of detection/communicator reconstruction are comparable
    between strategies (§4 "Beyond node-failure simulation"); those are
    therefore not charged.
    """
    engine.cluster.replace(event.ranks)
    engine.log.record(
        EventKind.RECOVERY_START,
        iteration=j,
        time=engine.cluster.elapsed(),
        ranks=event.ranks,
        **detail,
    )


def end_recovery(engine: PCGEngine, j: int, resume_iteration: int, **detail: Any) -> None:
    """Close a recovery span (synchronising all nodes first).

    Recovery ends with every node agreeing on the restored state, which
    in MPI terms is at least a barrier on the new communicator.
    """
    engine.cluster.barrier()
    engine.log.record(
        EventKind.RECOVERY_END,
        iteration=j,
        time=engine.cluster.elapsed(),
        resume_iteration=resume_iteration,
        **detail,
    )


def fallback_restart(engine: PCGEngine, state: PCGState, j: int, reason: str) -> int:
    """Restart from the initial guess when recovery data is unavailable.

    Used when a failure strikes before the first storage
    stage/checkpoint completed, or when a second failure destroyed the
    only surviving copies.  Static data is safe, so the solve restarts
    cleanly at iteration 0; the cost is all progress so far.
    """
    engine.log.record(
        EventKind.WARNING,
        iteration=j,
        time=engine.cluster.elapsed(),
        reason=reason,
        action="full restart from initial guess",
    )
    engine.reinitialize_state(state)
    return 0
