"""The resilient PCG engine (Alg. 1 / Alg. 3 with strategy hooks).

One engine runs every configuration of the paper:

* reference PCG (no resilience — a node failure is fatal),
* ESR  (redundant storage every iteration, §2.3),
* ESRP (periodic redundant storage, Alg. 3),
* IMCR (in-memory buddy checkpoint-restart, §3.1),

by delegating three decision points to a
:class:`ResilienceStrategy`:

* ``spmv(j, state)`` — compute ϱ = A p via plain SpMV or ASpMV and
  perform storage-stage actions (queue pushes, starred copies,
  checkpoints) — Alg. 3 lines 4–12;
* ``post_iteration(j, state)`` — end-of-iteration scalar duplication
  (β** in Alg. 3 line 6, see DESIGN.md §3.2);
* ``recover(j, event, state)`` — rebuild a consistent state after a
  failure and return the iteration to resume from.

Failure injection point (DESIGN.md §3.1): a scheduled failure for
iteration j strikes right after the SpMV of iteration j.
"""

from __future__ import annotations

import abc
import dataclasses
import time
from array import array
from typing import Any, Sequence

import numpy as np

from ..cluster.communicator import VirtualCluster
from ..cluster.cost_model import BYTES_PER_FLOAT
from ..cluster.failures import FailureEvent, FailureSchedule
from ..distribution.matrix import DistributedMatrix
from ..distribution.spmv import SpMVExecutor
from ..distribution.vector import DistributedVector
from ..events import EventKind, EventLog
from ..exceptions import ConfigurationError, ConvergenceError, NodeFailureError
from ..preconditioners.base import Preconditioner
from .state import PCGState, STATE_VECTOR_NAMES


@dataclasses.dataclass(frozen=True)
class SolveOptions:
    """Knobs of one PCG run (paper defaults)."""

    #: Convergence criterion ‖r‖₂ / ‖b‖₂ < rtol (paper: 1e-8).
    rtol: float = 1e-8
    #: Iteration budget; ``None`` means ``10 * n``.
    maxiter: int | None = None
    #: Raise instead of returning an unconverged result.
    require_convergence: bool = True

    def budget(self, n: int) -> int:
        if self.maxiter is not None:
            if self.maxiter < 1:
                raise ConfigurationError(f"maxiter must be >= 1, got {self.maxiter}")
            return int(self.maxiter)
        return 10 * int(n)


@dataclasses.dataclass
class SolveResult:
    """Outcome of one PCG run."""

    #: Gathered solution vector.
    x: np.ndarray
    #: Converged-at iteration count C (trajectory length).
    iterations: int
    #: Loop bodies actually executed, incl. re-executed (wasted) ones.
    executed_iterations: int
    converged: bool
    relative_residual: float
    #: Simulated cluster makespan in seconds (the paper's "runtime").
    modeled_time: float
    #: Python wall-clock seconds (secondary metric).
    wall_time: float
    events: EventLog
    stats: dict[str, float]
    residual_history: list[float]
    strategy: str
    #: Name of the compute-kernel backend that executed the numerics.
    backend: str = ""
    #: Loop bodies whose arithmetic was replayed from a cached reference
    #: (:mod:`repro.kernels.replay`) rather than computed: all of them
    #: for a replayed solve, those before the state snapshot it resumed
    #: from for a fast-forwarded one (restarts included), 0 for a real
    #: solve.  Host-side provenance like ``wall_time``: in no report
    #: dict, digest or record.
    replayed_iterations: int = 0

    @property
    def wasted_iterations(self) -> int:
        """Iterations re-executed after rollbacks."""
        return self.executed_iterations - self.iterations

    @property
    def recovery_time(self) -> float:
        """Simulated seconds spent in recovery (reconstruction) phases."""
        return self.events.recovery_time()


class ResilienceStrategy(abc.ABC):
    """Strategy hook interface (see module docstring)."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.engine: "PCGEngine" | None = None

    # -- lifecycle ---------------------------------------------------------

    def bind(self, engine: "PCGEngine") -> None:
        """Attach to an engine; build executors; validate compatibility."""
        self.engine = engine
        self._setup()

    @abc.abstractmethod
    def _setup(self) -> None: ...

    # -- hooks ----------------------------------------------------------------

    @abc.abstractmethod
    def spmv(self, j: int, state: PCGState) -> None:
        """Compute ``state.rho = A @ state.p`` (+ storage-stage actions)."""

    def post_iteration(self, j: int, state: PCGState) -> None:
        """Called after β^{(j)} is computed, before the convergence test."""

    def verify(self, j: int, state: PCGState) -> int | None:
        """Optional silent-error check after iteration ``j`` completes.

        Return the iteration to resume at to *reject* the iteration (a
        detected corruption — the engine logs a rollback and jumps
        there), or ``None`` to accept.  The base implementation never
        rejects; periodic-verification strategies (:mod:`repro.core.pv`)
        override this.
        """
        return None

    @abc.abstractmethod
    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        """Restore a consistent state; return the iteration to resume at."""

    # -- replay (see "Replay" in repro.api.session) ------------------------------

    def replay_horizon(self, failures: Sequence) -> int | None:
        """How much of a solve from x₀ = 0 under ``failures`` is the reference's.

        * ``None``: all of it.  The iterates and reductions are the
          reference PCG trajectory's; only the bills differ.
        * ``h > 0``: the solve runs the reference trajectory until a
          recovery, which reads vector contents (stashes, copies, the
          survivors' blocks) of iteration ``h`` or later, and nothing
          older.
        * ``0`` (this default): no promise; the solve runs for real.
        """
        return 0

    # -- shared helpers ---------------------------------------------------------

    @property
    def _engine(self) -> "PCGEngine":
        if self.engine is None:
            raise ConfigurationError(f"strategy {self.name!r} is not bound to an engine")
        return self.engine


class NoResilience(ResilienceStrategy):
    """Reference PCG: plain SpMV, no redundancy, failures are fatal."""

    name = "reference"

    def _setup(self) -> None:
        self._executor = SpMVExecutor(self._engine.matrix)

    def spmv(self, j: int, state: PCGState) -> None:
        self._executor.multiply(state.p, out=state.rho)

    def recover(self, j: int, event: FailureEvent, state: PCGState) -> int:
        raise NodeFailureError(j, event.ranks)

    def replay_horizon(self, failures: Sequence) -> int | None:
        return 0 if failures else None


def fail_stop_iterations(failures: Sequence) -> list[int] | None:
    """Sorted iterations of ``failures`` if every one is a plain node failure.

    ``None`` when any event is of another kind (a subclass such as a
    churn departure, or a silent corruption), whose effect on the
    trajectory a replay horizon does not model.
    """
    if any(type(event) is not FailureEvent for event in failures):
        return None
    return sorted(event.iteration for event in failures)


class PCGEngine:
    """Distributed PCG with pluggable node-failure resilience."""

    def __init__(
        self,
        matrix: DistributedMatrix,
        b: np.ndarray | DistributedVector,
        preconditioner: Preconditioner,
        strategy: ResilienceStrategy,
        options: SolveOptions | None = None,
        failures: FailureSchedule | None = None,
    ):
        self.matrix = matrix
        self.cluster: VirtualCluster = matrix.cluster
        self.partition = matrix.partition
        self.preconditioner = preconditioner
        self.strategy = strategy
        self.options = options or SolveOptions()
        self.failures = failures or FailureSchedule()
        self.log = EventLog()
        #: The state object of the most recent solve (the no-spare
        #: path hands its phase-1 state over to phase 2).
        self.final_state: PCGState | None = None
        #: Every reduction value the most recent solve read, in call
        #: order: b·b and r·z at each state set-up, r·z after each
        #: recovery, and p·Ap, r·z, r·r per iteration.  A failure-free
        #: solve from x₀ = 0 reads b·b, r₀·z₀, then (p·Ap, r·z, r·r) per
        #: iteration: what a cached reference replays
        #: (:mod:`repro.kernels.replay`).  Packed doubles, 8 B each.
        self.reductions = array("d")

        if isinstance(b, DistributedVector):
            if b.partition != self.partition:
                raise ConfigurationError("b lives on a different partition")
            self.b = b
        else:
            # b is *static* data (safe storage): it must not be wiped by
            # node failures, hence register=False.
            self.b = DistributedVector.from_global(
                self.cluster, self.partition, b, register=False
            )

        preconditioner.setup(matrix)
        strategy.bind(self)

    # ------------------------------------------------------------ state set-up

    def initialize_state(self, x0: np.ndarray | None = None) -> PCGState:
        """Line 1 of Alg. 1: r = b - A x0, z = P r, p = z (all charged)."""
        cluster, partition = self.cluster, self.partition
        if x0 is None:
            x = DistributedVector(cluster, partition)
        else:
            x = DistributedVector.from_global(cluster, partition, x0)
        r = DistributedVector(cluster, partition)
        z = DistributedVector(cluster, partition)
        p = DistributedVector(cluster, partition)
        rho = DistributedVector(cluster, partition)

        executor = SpMVExecutor(self.matrix)
        executor.multiply(x, out=rho)
        r.subtract(self.b, rho)
        self.preconditioner.apply(r, z)
        p.assign(z, charge=False)

        state = PCGState(x=x, r=r, z=z, p=p, rho=rho)
        cluster.kernels.enter_iteration(0, state)
        # ‖b‖ (from b·b, as ``b.norm2()`` computes it) and r·z.
        b_dot_b = self.b.dot(self.b)
        state.b_norm = float(np.sqrt(max(b_dot_b, 0.0)))
        state.rz = r.dot(z)
        self.reductions.extend((b_dot_b, state.rz))
        state.beta = None
        return state

    def reinitialize_state(self, state: PCGState) -> None:
        """Full restart from the zero initial guess (fallback recovery)."""
        fresh = self.initialize_state()
        for name in STATE_VECTOR_NAMES:
            state.vector(name).assign(fresh.vector(name), charge=False)
        state.rho.assign(fresh.rho, charge=False)
        state.rz = fresh.rz
        state.beta = None
        state.b_norm = fresh.b_norm
        self.log.record(EventKind.RESTART, time=self.cluster.elapsed())

    def recompute_rz(self, state: PCGState) -> None:
        """Refresh r·z after a recovery (one fused allreduce)."""
        state.rz = state.r.dot(state.z)
        self.reductions.append(state.rz)

    # ------------------------------------------------------------------- solve

    def solve(self, x0: np.ndarray | None = None) -> SolveResult:
        """Run PCG to convergence, surviving scheduled node failures."""
        wall_start = time.perf_counter()
        options = self.options
        budget = options.budget(self.partition.n)
        self.failures.reset()
        self.reductions = array("d")

        self.log.record(
            EventKind.SOLVE_START,
            time=self.cluster.elapsed(),
            strategy=self.strategy.name,
            rtol=options.rtol,
            n=self.partition.n,
            n_nodes=self.partition.n_nodes,
        )

        state = self.initialize_state(x0)
        j = 0
        residual_history: list[float] = []
        executed = 0
        converged = False
        relative = float("inf")

        while executed < budget:
            self.cluster.kernels.enter_iteration(j, state)
            # --- SpMV phase (strategy may store redundant data) -------------
            self.strategy.spmv(j, state)

            # --- failure injection point ------------------------------------
            event = self.failures.pop_due(j)
            if event is not None:
                self._inject_failure(j, event)
                resume = self.strategy.recover(j, event, state)
                self.cluster.kernels.enter_iteration(resume, state)
                self.recompute_rz(state)
                self.cluster.record_fault("rollback")
                self.log.record(
                    EventKind.ROLLBACK,
                    iteration=j,
                    time=self.cluster.elapsed(),
                    resume_iteration=resume,
                    wasted=j - resume,
                )
                j = resume
                continue

            # --- silent-corruption injection point --------------------------
            # Same spot as fail-stop events, but no notification: the
            # environment mutates a block and the solver runs on.
            for fault in self.failures.pop_corruptions(j):
                self._inject_corruption(j, fault, state)

            # --- Alg. 1 lines 3-8 -------------------------------------------
            pap = state.p.dot(state.rho)
            if pap <= 0.0:
                raise ConvergenceError(
                    "PCG (matrix not SPD along search direction)", j, relative, options.rtol
                )
            alpha = state.rz / pap
            # The whole post-alpha tail runs as one backend hook so a
            # fused backend can execute it with single-pass kernels;
            # the default composition is the exact historical sequence
            # (axpy, axpy, precondition, fused dots, aypx).
            rz_new, r_norm_sq, beta = self.cluster.kernels.cg_update(
                state.x,
                state.r,
                state.z,
                state.p,
                state.rho,
                alpha,
                state.rz,
                self.preconditioner,
            )
            state.rz = rz_new
            state.beta = beta
            self.reductions.extend((pap, rz_new, r_norm_sq))

            self.strategy.post_iteration(j, state)

            executed += 1

            # --- verification point (silent-error detection) ----------------
            resume = self.strategy.verify(j, state)
            if resume is not None:
                self.cluster.record_fault("rollback")
                self.log.record(
                    EventKind.ROLLBACK,
                    iteration=j,
                    time=self.cluster.elapsed(),
                    resume_iteration=resume,
                    wasted=j + 1 - resume,
                    cause="verification",
                )
                j = resume
                continue

            relative = float(np.sqrt(max(r_norm_sq, 0.0))) / state.b_norm
            residual_history.append(relative)
            if relative < options.rtol:
                converged = True
                j += 1
                break
            j += 1

        self.final_state = state
        result = SolveResult(
            x=state.x.to_global(),
            iterations=j,
            executed_iterations=executed,
            converged=converged,
            relative_residual=relative,
            modeled_time=self.cluster.elapsed(),
            wall_time=time.perf_counter() - wall_start,
            events=self.log,
            stats=self.cluster.stats.summary(),
            residual_history=residual_history,
            strategy=self.strategy.name,
            backend=self.cluster.kernels.name,
        )
        self.log.record(
            EventKind.SOLVE_END,
            iteration=result.iterations,
            time=result.modeled_time,
            converged=converged,
            relative_residual=relative,
        )
        if options.require_convergence and not converged:
            raise ConvergenceError("PCG", executed, relative, options.rtol)
        return result

    # ----------------------------------------------------------------- failure

    def _inject_failure(self, j: int, event: FailureEvent) -> None:
        """Wipe the failed nodes and log the event."""
        self.cluster.fail(event.ranks)
        kind = getattr(event, "fault_kind", "node_failure")
        self.cluster.record_fault(kind)
        detail: dict = {"ranks": event.ranks, "width": event.width}
        if kind == "churn":
            # Epoch-membership accounting: did the departure push the
            # cluster below its full-capacity (sufficient) size?  The
            # critical floor (N - ϕ survivors) is unreachable here
            # because generators clamp widths to recoverable blocks.
            alive = len(self.cluster.alive_ranks())
            detail.update(
                epoch=event.epoch,
                alive=alive,
                critical_size=event.critical_size,
                sufficient_size=event.sufficient_size,
            )
            if alive < event.sufficient_size:
                self.cluster.record_fault("churn_degraded")
        self.log.record(
            EventKind.NODE_FAILURE,
            iteration=j,
            time=self.cluster.elapsed(),
            **detail,
        )

    def _inject_corruption(self, j: int, fault, state: PCGState) -> None:
        """Silently perturb one element of an owned block (no signal).

        The mutation is plain elementwise numpy on the owned block and
        costs nothing on the simulated clock — corruption is an act of
        the environment, not of the algorithm.
        """
        self.cluster.corrupt(fault.rank, kind=fault.fault_kind)
        block = state.vector(fault.vector).blocks[fault.rank]
        info = fault.apply(block)
        self.log.record(
            EventKind.SDC,
            iteration=j,
            time=self.cluster.elapsed(),
            rank=fault.rank,
            vector=fault.vector,
            **info,
        )

    # -------------------------------------------------- helpers for strategies

    def scalar_bytes(self, count: int = 1) -> int:
        """Wire size of ``count`` replicated scalars."""
        return count * BYTES_PER_FLOAT

    def fetch_replicated_scalar(self, to_ranks: tuple[int, ...], count: int = 1) -> None:
        """Charge retrieving ``count`` scalars from a surviving node.

        Replicated scalars (β, ‖b‖, ...) survive on every alive node;
        a replacement fetches them with one tiny message each.
        """
        survivors = [r for r in self.cluster.alive_ranks() if r not in to_ranks]
        if not survivors:
            return
        source = survivors[0]
        for rank in to_ranks:
            self.cluster.send(source, rank, self.scalar_bytes(count), "recovery")
