"""ESR — exact state reconstruction with per-iteration storage (§2.3).

The previously-existing method the paper starts from (Chen [7],
Pachajoa et al. [20, 21]): *every* iteration runs the augmented SpMV,
so the redundancy queue (capacity 2) always holds the search directions
of the two most recent iterations and a failure during iteration j is
recovered *in place* — the surviving nodes keep their current state,
the replacements reconstruct iteration j, and no work is lost.

Equivalent to ESRP with T = 1 (the paper evaluates it as such).
"""

from __future__ import annotations

from ..cluster.failures import FailureEvent
from ..distribution.aspmv import ASpMVExecutor, gather_redundant_copy
from ..exceptions import ConfigurationError, IrrecoverableDataLossError
from ..solvers.engine import ResilienceStrategy, fail_stop_iterations
from ..solvers.state import PCGState
from .reconstruction import reconstruct_lost_state, require_reconstruction_support
from .recovery import begin_recovery, end_recovery, fallback_restart
from .redundancy import RedundancyQueue


class ESRStrategy(ResilienceStrategy):
    """Exact state reconstruction, redundant storage in every iteration."""

    name = "esr"

    def __init__(self, phi: int = 1, rule: str = "paper", destinations: str = "eq1"):
        super().__init__()
        if phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {phi}")
        self.phi = int(phi)
        self.rule = rule
        self.destinations = destinations
        self.queue = RedundancyQueue(capacity=2)

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

    # --------------------------------------------------------------------- run

    def spmv(self, j: int, state: PCGState) -> None:
        self._aspmv.multiply_augmented(state.p, j, self.queue, out=state.rho)

    # ---------------------------------------------------------------- recovery

    def replay_horizon(self, failures) -> int | None:
        # A failure in iteration 0 restarts from x₀ (below), back onto
        # the reference trajectory; a later one at j₁ reads the stashes
        # of j₁ - 1 and j₁ and the survivors' state of j₁.
        iterations = fail_stop_iterations(failures)
        if iterations is None:
            return 0
        later = [j for j in iterations if j > 0]
        return later[0] - 1 if later else None

    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        begin_recovery(self._engine, j, event, strategy=self.name)
        engine = self._engine

        if j == 0 or state.beta is None or not self.queue.holds_pair(j - 1, j):
            # No two consecutive copies yet (failure in iteration 0):
            # nothing meaningful is lost; restart from the initial guess.
            resume = fallback_restart(engine, state, j, "failure before first ESR pair")
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        try:
            p_curr = gather_redundant_copy(
                engine.cluster, engine.partition, j, event.ranks
            )
            p_prev = gather_redundant_copy(
                engine.cluster, engine.partition, j - 1, event.ranks
            )
        except IrrecoverableDataLossError as exc:
            resume = fallback_restart(engine, state, j, str(exc))
            end_recovery(engine, j, resume, strategy=self.name)
            return resume

        # β^{(j-1)} and the other replicated scalars survive on every
        # surviving node; the replacements fetch them with one message.
        engine.fetch_replicated_scalar(event.ranks, count=2)

        report = reconstruct_lost_state(
            engine,
            state,
            event.ranks,
            target_iteration=j,
            p_curr=p_curr,
            p_prev=p_prev,
            beta_prev=state.beta,
        )
        end_recovery(
            engine,
            j,
            j,
            strategy=self.name,
            inner_iterations=report.inner_iterations,
            lost_rows=report.lost_rows,
        )
        # Surviving nodes keep their state; the solver re-enters
        # iteration j (recomputing ϱ = A p with the restored p).
        return j
