"""ESRP — exact state reconstruction with periodic storage (Alg. 3, §3).

The paper's main contribution.  Redundant copies of the search
direction are created only during a two-iteration *storage stage* every
T iterations:

* iteration j ≡ 0 (mod T), j > 2 — ASpMV pushes p′^{(j)}; after the β
  update of this iteration, every node duplicates β** ← β^{(j)};
* iteration j ≡ 1 (mod T), j > 2 — ASpMV pushes p′^{(j)}; every node
  duplicates its local blocks x*, r*, z*, p* ← state^{(j)} and promotes
  β* ← β** (= β^{(j-1)}).  The storage stage is complete: iteration j
  becomes the recovery point ĵ.

The queue holds **three** redundant copies so that a failure *between*
the two pushes of a storage stage still finds the previous complete
pair (Fig. 1).

On failure: surviving nodes roll back to their starred copies,
replacements reconstruct via Alg. 2 from p′^{(ĵ-1)}, p′^{(ĵ)} and β*;
the solver resumes at ĵ, re-executing (wasting) the iterations since.

See DESIGN.md §3.2 for the hook-ordering resolution of the printed
algorithm (β^{(j)} does not exist yet at the *top* of iteration j).
"""

from __future__ import annotations

import numpy as np

from ..cluster.failures import FailureEvent
from ..distribution.aspmv import ASpMVExecutor, gather_redundant_copy
from ..events import EventKind
from ..exceptions import ConfigurationError, IrrecoverableDataLossError
from ..solvers.engine import ResilienceStrategy, fail_stop_iterations
from ..solvers.state import PCGState, STATE_VECTOR_NAMES
from .reconstruction import reconstruct_lost_state, require_reconstruction_support
from .recovery import begin_recovery, end_recovery, fallback_restart, keep_local_copies
from .redundancy import RedundancyQueue

#: Node-store key prefix for the starred vector copies.
STAR_PREFIX = "esrp_star_"
#: Node-scalar keys for the duplicated betas.
BETA_STAR = "esrp_beta_star"
BETA_DOUBLE_STAR = "esrp_beta_double_star"


class ESRPStrategy(ResilienceStrategy):
    """Exact state reconstruction with periodic storage (interval T)."""

    name = "esrp"

    def __init__(
        self, T: int, phi: int = 1, rule: str = "paper", destinations: str = "eq1"
    ):
        super().__init__()
        if T < 3:
            raise ConfigurationError(
                f"ESRP requires T >= 3 (got {T}); for T in {{1, 2}} the paper "
                "prescribes plain ESR — use ESRStrategy or make_strategy()"
            )
        if phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {phi}")
        self.T = int(T)
        self.phi = int(phi)
        self.rule = rule
        self.destinations = destinations
        self.queue = RedundancyQueue(capacity=3)
        #: Iteration ĵ of the last *completed* storage stage, or None.
        self.recovery_point: int | None = None

    def _setup(self) -> None:
        """Fetch the augmented SpMV for (ϕ, rule, destinations).

        Its redundancy plan, flat cache and compiled exchange are built
        once per matrix plan (:meth:`ASpMVExecutor.plan_for
        <repro.distribution.aspmv.ASpMVExecutor.plan_for>`), so a
        session builds them once for all its solves; a solve allocates
        only its own stashes.
        """
        require_reconstruction_support(self._engine)
        self._aspmv = ASpMVExecutor(
            self._engine.matrix, self.phi, rule=self.rule,
            destinations=self.destinations,
        )

    # ------------------------------------------------------------------- hooks

    def _is_first_storage_iteration(self, j: int) -> bool:
        return j % self.T == 0 and j > 2

    def _is_second_storage_iteration(self, j: int) -> bool:
        return (j - 1) % self.T == 0 and j > 2

    def spmv(self, j: int, state: PCGState) -> None:
        engine = self._engine
        if self._is_first_storage_iteration(j):
            self._aspmv.multiply_augmented(state.p, j, self.queue, out=state.rho)
            engine.log.record(
                EventKind.STORAGE_STAGE,
                iteration=j,
                time=engine.cluster.elapsed(),
                phase="first_push",
                queue=self.queue.render(),
            )
        elif self._is_second_storage_iteration(j):
            self._aspmv.multiply_augmented(state.p, j, self.queue, out=state.rho)
            self._make_starred_copies(j, state)
            self.recovery_point = j
            engine.cluster.snapshot_redundancy_footprint()
            engine.log.record(
                EventKind.STORAGE_STAGE,
                iteration=j,
                time=engine.cluster.elapsed(),
                phase="complete",
                queue=self.queue.render(),
                recovery_point=j,
            )
        else:
            self._aspmv.multiply(state.p, out=state.rho)

    def post_iteration(self, j: int, state: PCGState) -> None:
        # β** ← β^{(j)} right after it is computed (Alg. 3 line 6; the
        # printed "top-of-loop" placement is impossible — DESIGN.md §3.2).
        if self._is_first_storage_iteration(j):
            for node in self._engine.cluster.nodes:
                if node.alive:
                    node.scalars[BETA_DOUBLE_STAR] = float(state.beta)  # type: ignore[arg-type]

    def _make_starred_copies(self, j: int, state: PCGState) -> None:
        """x*,r*,z*,p* ← state^{(j)}; β* ← β** (local, no communication)."""
        keep_local_copies(self._engine, state, STAR_PREFIX)
        for node in self._engine.cluster.nodes:
            if BETA_DOUBLE_STAR in node.scalars:
                node.scalars[BETA_STAR] = node.scalars[BETA_DOUBLE_STAR]

    # ---------------------------------------------------------------- recovery

    def replay_horizon(self, failures) -> int | None:
        # Up to iteration T no storage stage has completed, so a failure
        # restarts from x₀ (below), back onto the reference trajectory.
        # A later one at j₁ rolls back to the last stage completed by
        # then, kT + 1 ≤ j₁, and reads its pushes of kT and kT + 1.
        iterations = fail_stop_iterations(failures)
        if iterations is None:
            return 0
        later = [j for j in iterations if j > self.T]
        return (later[0] - 1) // self.T * self.T if later else None

    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        engine = self._engine
        begin_recovery(engine, j, event, strategy=self.name)

        target = self.recovery_point
        if target is None:
            resume = fallback_restart(
                engine, state, j, "failure before the first complete storage stage"
            )
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        survivors = [
            r for r in range(engine.partition.n_nodes) if r not in event.ranks
        ]
        beta_star = self._replicated_scalar(survivors, BETA_STAR)
        if beta_star is None or not self.queue.holds_pair(target - 1, target):
            resume = fallback_restart(
                engine, state, j, "storage-stage data incomplete at failure time"
            )
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        try:
            p_curr = gather_redundant_copy(
                engine.cluster, engine.partition, target, event.ranks
            )
            p_prev = gather_redundant_copy(
                engine.cluster, engine.partition, target - 1, event.ranks
            )
        except IrrecoverableDataLossError as exc:
            resume = fallback_restart(engine, state, j, str(exc))
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        # Surviving nodes roll back to their starred copies (local).
        for rank in survivors:
            node = engine.cluster.node(rank)
            nbytes = 0
            for name in STATE_VECTOR_NAMES:
                stored = node.store[STAR_PREFIX + name]
                state.vector(name).blocks[rank][:] = stored
                nbytes += stored.nbytes
            engine.cluster.memcpy(rank, nbytes)

        # Replacements fetch the replicated scalars (β*, β**, rz, ...).
        engine.fetch_replicated_scalar(event.ranks, count=3)

        report = reconstruct_lost_state(
            engine,
            state,
            event.ranks,
            target_iteration=target,
            p_curr=p_curr,
            p_prev=p_prev,
            beta_prev=beta_star,
        )

        # The replacements now hold the state of iteration ĵ: they adopt
        # the starred copies and scalars so a later failure of a
        # *different* node can still roll everything back to ĵ.
        beta_double = self._replicated_scalar(survivors, BETA_DOUBLE_STAR)
        for rank in event.ranks:
            node = engine.cluster.node(rank)
            nbytes = 0
            for name in STATE_VECTOR_NAMES:
                block = state.vector(name).blocks[rank]
                node.keep(STAR_PREFIX + name, block.copy())
                nbytes += block.nbytes
            engine.cluster.memcpy(rank, nbytes)
            node.scalars[BETA_STAR] = beta_star
            if beta_double is not None:
                node.scalars[BETA_DOUBLE_STAR] = beta_double

        # The solver continues from ĵ with β^{(ĵ-1)} = β*.
        state.beta = beta_star

        end_recovery(
            engine,
            j,
            target,
            strategy=self.name,
            inner_iterations=report.inner_iterations,
            lost_rows=report.lost_rows,
        )
        return target

    def _replicated_scalar(self, survivors: list[int], key: str) -> float | None:
        for rank in survivors:
            node = self._engine.cluster.node(rank)
            if key in node.scalars:
                return float(node.scalars[key])
        return None
