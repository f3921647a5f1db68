"""Periodic-verification CG for silent-data-corruption detection.

Self-stabilising CG in the spirit of arXiv:1511.04478: every T
iterations the solver *verifies* its state by recomputing the true
residual ``b - A x`` and comparing it against the recurrence residual
r.  In exact arithmetic the two are equal; a silent corruption of any
state vector breaks the invariant, and the relative gap
``‖(b - A x) - r‖ / ‖b‖`` exposes it.  On detection:

``backward``
    Roll back to the last *verified* checkpoint (stored locally on
    every node at each passing verification — SDC destroys no nodes,
    so local copies suffice; no buddy traffic).  A repeated detection
    at the same iteration (a persistent gap that rollback cannot
    clear, e.g. a too-tight threshold) escalates to forward recovery,
    which restores the invariant by construction.
``forward``
    Reconstruct instead of rolling back: adopt the recomputed true
    residual, re-apply the preconditioner, restart the search
    direction, and continue from the current iterate.  The corrupted x
    simply becomes the new starting point — CG converges from any
    iterate whose residual is consistent, so no progress before the
    corruption is wasted (at the price of a Krylov-space restart).

Verification is charged honestly: one extra SpMV, one vector subtract,
and one norm allreduce per verification point — the overhead the
interval ablation (``bench_ablation_verification_interval``) sweeps.

Against *fail-stop* failures PV keeps no redundancy; a node failure
falls back to a full restart (use ESR/ESRP/IMCR for that regime — the
campaign A/Bs them side by side).
"""

from __future__ import annotations

from ..cluster.failures import FailureEvent
from ..distribution.spmv import SpMVExecutor
from ..distribution.vector import DistributedVector
from ..events import EventKind
from ..exceptions import ConfigurationError
from ..solvers.engine import ResilienceStrategy
from ..solvers.state import PCGState, STATE_VECTOR_NAMES

from .recovery import begin_recovery, end_recovery, fallback_restart, keep_local_copies

#: Node-store key prefix for the locally held verified checkpoint.
PV_CKPT_PREFIX = "pv_ckpt_"
#: Default detection threshold on the relative residual gap.
PV_THRESHOLD = 1e-8
#: Verification modes.
PV_MODES = ("backward", "forward")


class PeriodicVerificationStrategy(ResilienceStrategy):
    """Recomputed-residual verification every T iterations."""

    name = "pv"

    def __init__(
        self,
        T: int = 10,
        phi: int = 1,
        threshold: float = PV_THRESHOLD,
        mode: str = "backward",
    ):
        super().__init__()
        if T < 1:
            raise ConfigurationError(f"T must be >= 1, got {T}")
        if threshold <= 0:
            raise ConfigurationError(f"threshold must be > 0, got {threshold}")
        if mode not in PV_MODES:
            raise ConfigurationError(f"pv mode must be one of {PV_MODES}, got {mode!r}")
        self.T = int(T)
        self.phi = int(phi)  # kept for interface uniformity; PV stores locally
        self.threshold = float(threshold)
        self.mode = mode
        #: Iteration of the last verified checkpoint (backward mode).
        self.checkpoint_iteration: int | None = None
        self._ckpt_rz: float = 0.0
        self._ckpt_beta: float | None = None
        #: Iteration of the last detection (repeat => escalate forward).
        self._last_detection: int | None = None

    def _setup(self) -> None:
        engine = self._engine
        self._executor = SpMVExecutor(engine.matrix)
        # Scratch vectors for the recomputed residual and the gap;
        # unregistered — they hold no algorithm state worth wiping.
        self._true_r = DistributedVector(engine.cluster, engine.partition, register=False)
        self._gap = DistributedVector(engine.cluster, engine.partition, register=False)

    # ------------------------------------------------------------------- hooks

    def spmv(self, j: int, state: PCGState) -> None:
        self._executor.multiply(state.p, out=state.rho)

    def verify(self, j: int, state: PCGState) -> int | None:
        if (j + 1) % self.T != 0:
            return None
        engine = self._engine
        cluster = engine.cluster
        cluster.record_fault("verification")
        # True residual b - A x (one extra SpMV), gap against the
        # recurrence residual, relative to ‖b‖ — all charged.
        self._executor.multiply(state.x, out=self._true_r)
        self._true_r.subtract(engine.b, self._true_r)
        self._gap.subtract(self._true_r, state.r)
        gap = self._gap.norm2()
        if state.b_norm > 0.0:
            gap /= state.b_norm
        engine.log.record(
            EventKind.VERIFICATION,
            iteration=j,
            time=cluster.elapsed(),
            gap=gap,
            threshold=self.threshold,
        )
        if gap <= self.threshold:
            self._last_detection = None
            if self.mode == "backward":
                self._store_checkpoint(j, state)
            return None

        cluster.record_fault("sdc_detected")
        engine.log.record(
            EventKind.SDC_DETECTED,
            iteration=j,
            time=cluster.elapsed(),
            gap=gap,
            mode=self.mode,
        )
        if (
            self.mode == "forward"
            or self.checkpoint_iteration is None
            or self._last_detection == j
        ):
            # Forward reconstruction — also the escape hatch when
            # backward has no checkpoint yet, or when a rollback failed
            # to clear the gap (re-detection at the same iteration).
            self._last_detection = j
            return self._forward_recovery(j, state)
        self._last_detection = j
        return self._restore_checkpoint(j, state)

    # -------------------------------------------------------------- checkpoint

    def _store_checkpoint(self, j: int, state: PCGState) -> None:
        """Every node keeps a local copy of its verified state (charged)."""
        engine = self._engine
        cluster = engine.cluster
        keep_local_copies(engine, state, PV_CKPT_PREFIX)
        self._ckpt_rz = float(state.rz)
        self._ckpt_beta = state.beta
        self.checkpoint_iteration = j
        cluster.snapshot_redundancy_footprint()
        engine.log.record(
            EventKind.CHECKPOINT,
            iteration=j,
            time=cluster.elapsed(),
            verified=True,
        )

    def _restore_checkpoint(self, j: int, state: PCGState) -> int:
        """Backward recovery: roll every node back to the verified copy."""
        engine = self._engine
        cluster = engine.cluster
        assert self.checkpoint_iteration is not None
        for rank in range(engine.partition.n_nodes):
            node = cluster.node(rank)
            nbytes = 0
            for name in STATE_VECTOR_NAMES:
                stored = node.store[PV_CKPT_PREFIX + name]
                state.vector(name).blocks[rank][:] = stored
                nbytes += stored.nbytes
            cluster.memcpy(rank, nbytes)
        state.rz = self._ckpt_rz
        state.beta = self._ckpt_beta
        return self.checkpoint_iteration + 1

    def _forward_recovery(self, j: int, state: PCGState) -> int:
        """Adopt the recomputed residual; restart the Krylov direction."""
        engine = self._engine
        state.r.assign(self._true_r, charge=True)
        engine.preconditioner.apply(state.r, state.z)
        state.p.assign(state.z, charge=False)
        state.rz = state.r.dot(state.z)
        state.beta = None
        return j + 1

    # ---------------------------------------------------------------- recovery

    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        engine = self._engine
        begin_recovery(engine, j, event, strategy=self.name)
        # PV keeps no cross-node redundancy: the failed ranks' local
        # copies died with them, so the surviving checkpoint is
        # incomplete — invalidate it and restart.
        self.checkpoint_iteration = None
        self._last_detection = None
        resume = fallback_restart(
            engine, state, j, "pv keeps no node-failure redundancy"
        )
        end_recovery(engine, j, resume, strategy=self.name)
        return resume
