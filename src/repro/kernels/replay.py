"""Replay a reference trajectory's bills without its arithmetic.

A failure-free solve of a value-independent strategy, and an IMCR
solve under fail-stop failures, run the reference PCG trajectory
exactly: the same iterates, the same reductions, only more bills.  A
:class:`~repro.api.session.SolverSession` therefore keeps the
reference solve's reductions
(:attr:`~repro.solvers.engine.PCGEngine.reductions`: b·b and r₀·z₀,
then (p·Ap, r·z, r·r) per iteration, so ``2 + 3 C`` floats for C
iterations) and replays every such solve's bills against them.

:class:`ReplayBackend`, an unregistered per-solve twin of
:class:`~repro.kernels.vectorized.VectorizedBackend` that reports the
name ``vectorized``, makes the same ``charge_compute`` /
``charge_memcpy`` / ``exchange_compiled`` / ``allreduce`` calls as
``vectorized``, in the same order, and skips every SpMV,
preconditioner, elementwise update and :func:`~repro.kernels.base.flat_dot`.
So clocks, statistics, cost-noise draws, the event log and the *sizes*
of stashes and checkpoints equal the real solve's by construction,
while vector contents are never computed.  Its reductions answer from
the recording, for the iteration the engine last announced through
:meth:`~repro.kernels.base.KernelBackend.enter_iteration`: a rollback
or a restart announces the iteration it resumes at, and re-reads that
iteration's scalars.

An ESR/ESRP solve under failures runs the reference trajectory only up
to its first recovery, which reads stored vector contents from some
iteration h on (:meth:`~repro.solvers.engine.ResilienceStrategy.replay_horizon`).
It is *fast-forwarded*: a :class:`ReplayBackend` given a ``resume``
point s ≤ h replays the bills up to iteration s, then, when the engine
announces s, copies a snapshot of the reference's state there (x, r, z,
p) into the engine's vectors and hands the cluster to a real backend,
which computes everything from s on.  The snapshots come from real
solves: :class:`SnapshotCapture` is ``vectorized`` plus a copy of the
state entering one chosen iteration.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..cluster.cost_model import BYTES_PER_FLOAT
from ..solvers.state import STATE_VECTOR_NAMES
from .base import KernelBackend
from .vectorized import VectorizedBackend

#: The state (x, r, z, p) entering one iteration, as flat arrays.
Snapshot = tuple[np.ndarray, ...]


class SnapshotCapture(VectorizedBackend):
    """``vectorized`` that hands a copy of the state entering ``at`` to ``keep``.

    Only the first arrival counts: a solve on the reference trajectory
    can only come back to ``at`` by a restart, which reaches the same
    state again.
    """

    def __init__(self, at: int, keep: Callable[[int, Snapshot], None]) -> None:
        self._at = at
        self._keep = keep

    def enter_iteration(self, j, state) -> None:
        if j == self._at and self._keep is not None:
            self._keep(j, tuple(
                state.vector(name).data.copy() for name in STATE_VECTOR_NAMES
            ))
            self._keep = None


class ReplayBackend(VectorizedBackend):
    """Bill-only ``vectorized`` answering reductions from a recording.

    ``resume=(s, snapshot, backend)`` fast-forwards: when the engine
    announces iteration s (s > 0), the backend loads ``snapshot`` into
    the state and installs ``backend`` on the cluster in its place.
    """

    def __init__(
        self,
        scalars: np.ndarray,
        resume: tuple[int, Snapshot, KernelBackend] | None = None,
    ) -> None:
        self.resume = resume
        #: Loop bodies replayed so far (one ``cg_update`` each).
        self.replayed = 0
        values = np.asarray(scalars, dtype=np.float64).tolist()
        self._bb = values[0]
        #: r·z at the start of iteration k (k = 0 .. C).
        self._rz = values[1:2] + values[3::3]
        #: p·Ap of iteration j, and r·r at its end (j = 0 .. C-1).
        self._pap = values[2::3]
        self._rr = values[4::3]
        self._j = 0
        self._state = None
        #: ASpMV stashes per redundancy cache (see :meth:`_stashes`).
        self._stash_cache: dict[int, list] = {}

    def enter_iteration(self, j, state) -> None:
        if self.resume is not None and j == self.resume[0]:
            _, snapshot, backend = self.resume
            for name, values in zip(STATE_VECTOR_NAMES, snapshot):
                state.vector(name).data[:] = values
            state.x.cluster.kernels = backend
            backend.enter_iteration(j, state)
            return
        self._j = j
        self._state = state

    # ------------------------------------------------------- vector arithmetic

    def axpy(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))

    def aypx(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))

    def scale(self, y, a) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))

    def subtract(self, y, a, b) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))

    def assign(self, y, x, charge) -> None:
        if charge:
            y.cluster.charge_memcpy(y.partition.charge_profile(BYTES_PER_FLOAT))

    def dot_many(self, x, others: Sequence) -> list[float]:
        cluster = x.cluster
        cluster.charge_compute(x.partition.charge_profile(2 * len(others)))
        cluster.allreduce(len(others) * BYTES_PER_FLOAT)
        # A replayed solve reduces three things outside ``cg_update``:
        # b·b (the one self-dot), p·Ap and r·z.
        state = self._state
        (other,) = others
        if other is x:
            return [self._bb]
        if x is state.p and other is state.rho:
            return [self._pap[self._j]]
        if x is state.r and other is state.z:
            return [self._rz[self._j]]
        raise RuntimeError("a replayed solve read a reduction the reference never recorded")

    # ------------------------------------------------------------ fused chains

    def cg_update(self, x, r, z, p, rho, alpha, rz_old, preconditioner):
        cluster = x.cluster
        profile2 = x.partition.charge_profile(2)
        cluster.charge_compute(profile2)
        cluster.charge_compute(profile2)
        preconditioner.apply(r, z)
        cluster.charge_compute(x.partition.charge_profile(4))
        cluster.allreduce(2 * BYTES_PER_FLOAT)
        j = self._j
        rz_new = self._rz[j + 1]
        beta = rz_new / rz_old if rz_old != 0.0 else 0.0
        cluster.charge_compute(profile2)
        self.replayed += 1
        return rz_new, self._rr[j], beta

    # ----------------------------------------------------------------- SpMV

    def spmv_local(self, executor, x, out) -> None:
        executor.cluster.charge_compute(executor.plan.flat_cache().local_flops)

    def _stashes(self, cache, values) -> list:
        # Every iteration stores the same recipients, owners and sizes,
        # and a replayed solve never reads a stash: build them once and
        # store the same dicts each time.
        stashes = self._stash_cache.get(id(cache))
        if stashes is None:
            stashes = super()._stashes(cache, values)
            self._stash_cache[id(cache)] = stashes
        return stashes

    # -------------------------------------------------------- preconditioners

    def precond_apply(self, precond, r, out) -> None:
        r.cluster.charge_compute(precond.charge_profile())
