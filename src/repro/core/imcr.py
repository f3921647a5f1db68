"""IMCR — in-memory buddy checkpoint-restart (§3.1 of the paper).

The comparison baseline: once every T iterations each node copies the
local parts of all four state vectors (plus the replicated scalars)
and ships the copy to its ϕ "buddy" nodes — the same Eq. (1) neighbour
destinations the ASpMV uses.  Unlike ESR/ESRP, this introduces a
completely new round of communication per checkpoint, but recovery is
trivial: surviving nodes roll back from their own local copy and each
replacement retrieves one message from a surviving buddy — no
reconstruction mathematics at all (hence the ≈0 "reconstruction
overhead" columns of Tables 2 and 3).

IMCR is algorithm-agnostic about the preconditioner: it works with
operators that ESR/ESRP cannot restrict (e.g. the polynomial
preconditioner), which the preconditioner ablation exercises.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..cluster.cost_model import BYTES_PER_FLOAT
from ..cluster.failures import FailureEvent
from ..distribution.aspmv import RECOVERY_CHANNEL, eq1_destinations
from ..distribution.spmv import SpMVExecutor
from ..events import EventKind
from ..exceptions import ConfigurationError
from ..solvers.engine import ResilienceStrategy
from ..solvers.state import PCGState, STATE_VECTOR_NAMES

from .recovery import begin_recovery, end_recovery, fallback_restart

#: Statistics channel for buddy-checkpoint traffic.
CHECKPOINT_CHANNEL = "checkpoint"
#: Node-store key prefix for a node's own local checkpoint copy.
CKPT_PREFIX = "imcr_ckpt_"
#: Node-scalar key for the checkpointed β.
CKPT_BETA = "imcr_ckpt_beta"
#: Node-scalar key for the checkpoint iteration.
CKPT_ITERATION = "imcr_ckpt_iteration"


class IMCRStrategy(ResilienceStrategy):
    """In-memory buddy checkpoint-restart with interval T and ϕ buddies."""

    name = "imcr"

    def __init__(self, T: int, phi: int = 1):
        super().__init__()
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {phi}")
        self.T = int(T)
        self.phi = int(phi)
        #: Iteration of the most recent checkpoint, or None.
        self.checkpoint_iteration: int | None = None

    def _setup(self) -> None:
        engine = self._engine
        self._executor = SpMVExecutor(engine.matrix)
        n_nodes = engine.partition.n_nodes
        phi = min(self.phi, n_nodes - 1)
        self._buddies = [
            eq1_destinations(rank, phi, n_nodes) for rank in range(n_nodes)
        ]

    # ------------------------------------------------------------------- hooks

    def spmv(self, j: int, state: PCGState) -> None:
        if j % self.T == 0 and j > 0 and j != self.checkpoint_iteration:
            self._take_checkpoint(j, state)
        self._executor.multiply(state.p, out=state.rho)

    # Checkpoint-content hooks: lossy variants (repro.core.lossy)
    # override these to compress what is stored and what crosses the
    # wire.  The base class stores exact copies at full size.

    def _checkpoint_block(self, block: np.ndarray) -> np.ndarray:
        """The stored/shipped representation of one state block."""
        return block.copy()

    def _checkpoint_nbytes(self, nbytes: int) -> int:
        """The wire/copy size of an ``nbytes`` checkpoint payload."""
        return nbytes

    def _take_checkpoint(self, j: int, state: PCGState) -> None:
        """Copy the local state and ship it to the buddies (charged)."""
        engine = self._engine
        cluster = engine.cluster
        beta = float(state.beta) if state.beta is not None else 0.0
        messages = []
        for rank in range(engine.partition.n_nodes):
            node = cluster.node(rank)
            payload: dict[str, Any] = {"iteration": j, "beta": beta}
            nbytes = 2 * BYTES_PER_FLOAT
            for name in STATE_VECTOR_NAMES:
                block = state.vector(name).blocks[rank]
                stored = self._checkpoint_block(block)
                payload[name] = stored
                node.store[CKPT_PREFIX + name] = stored.copy()
                nbytes += block.nbytes
            node.scalars[CKPT_BETA] = beta
            node.scalars[CKPT_ITERATION] = float(j)
            wire_bytes = self._checkpoint_nbytes(nbytes)
            cluster.memcpy(rank, wire_bytes)
            for buddy in self._buddies[rank]:
                messages.append((rank, buddy, wire_bytes, CHECKPOINT_CHANNEL, False))
                cluster.node(buddy).buddy_checkpoints[rank] = dict(payload)
        # one concurrent communication round ("a completely new round of
        # communication in each storage iteration", §3.1)
        cluster.exchange(messages)
        self.checkpoint_iteration = j
        cluster.snapshot_redundancy_footprint()
        engine.log.record(
            EventKind.CHECKPOINT,
            iteration=j,
            time=cluster.elapsed(),
            buddies=self.phi,
        )

    # ---------------------------------------------------------------- recovery

    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        engine = self._engine
        begin_recovery(engine, j, event, strategy=self.name)

        target = self.checkpoint_iteration
        if target is None:
            resume = fallback_restart(engine, state, j, "failure before first checkpoint")
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        cluster = engine.cluster
        survivors = [r for r in range(engine.partition.n_nodes) if r not in event.ranks]
        # A rank an earlier fallback restart left without its copy of the
        # checkpoint cannot roll back to it.
        for rank in survivors:
            if cluster.node(rank).scalars.get(CKPT_ITERATION) != float(target):
                resume = fallback_restart(
                    engine, state, j, f"rank {rank} holds no copy of the checkpoint"
                )
                end_recovery(engine, j, resume, strategy=self.name)
                return resume

        # Replacements retrieve the checkpoint from a surviving buddy.
        for rank in event.ranks:
            restored = False
            for buddy in self._buddies[rank]:
                node = cluster.node(buddy)
                if not node.alive:
                    continue
                payload = node.buddy_checkpoints.get(rank)
                if payload is None or payload["iteration"] != target:
                    continue
                nbytes = 2 * BYTES_PER_FLOAT + sum(
                    payload[name].nbytes for name in STATE_VECTOR_NAMES
                )
                cluster.send(buddy, rank, self._checkpoint_nbytes(nbytes), RECOVERY_CHANNEL)
                replacement = cluster.node(rank)
                for name in STATE_VECTOR_NAMES:
                    state.vector(name).blocks[rank][:] = payload[name]
                    replacement.store[CKPT_PREFIX + name] = payload[name].copy()
                replacement.scalars[CKPT_BETA] = payload["beta"]
                replacement.scalars[CKPT_ITERATION] = float(target)
                restored = True
                break
            if not restored:
                resume = fallback_restart(
                    engine,
                    state,
                    j,
                    f"no surviving buddy holds the checkpoint of rank {rank}",
                )
                end_recovery(engine, j, resume, strategy=self.name)
                return resume

        # Survivors roll back from their own local copies.
        for rank in survivors:
            node = cluster.node(rank)
            nbytes = 0
            for name in STATE_VECTOR_NAMES:
                stored = node.store[CKPT_PREFIX + name]
                state.vector(name).blocks[rank][:] = stored
                nbytes += stored.nbytes
            cluster.memcpy(rank, nbytes)

        beta = cluster.node(survivors[0]).scalars.get(CKPT_BETA, 0.0)
        state.beta = float(beta) if beta != 0.0 else None

        end_recovery(engine, j, target, strategy=self.name)
        return target
