"""Reusable solver sessions: set up once, solve many times.

The paper's evaluation (§5) runs the same matrix / preconditioner /
cluster constellation across dozens of strategy × T × ϕ cells.  A
:class:`SolverSession` owns that constellation:

* the :class:`~repro.cluster.communicator.VirtualCluster`, the
  :class:`~repro.distribution.partition.BlockRowPartition` and the
  :class:`~repro.distribution.matrix.DistributedMatrix` are built once
  (lazily, on first use) and reused by every solve;
* preconditioners are factorised once per (name, params) pair and
  cached;
* reference trajectories (t₀, C, x_ref of the non-resilient solver)
  are cached per (preconditioner, rtol), so repeated failure scenarios
  compare against a stored reference instead of recomputing it.

Between solves the session-owned cluster is :meth:`reset
<repro.cluster.communicator.VirtualCluster.reset>` (fresh clocks,
statistics, liveness and noise RNG), so each solve's report is
bit-identical to what a fresh one-shot :func:`repro.solve` with the
same seed would produce — the monolithic ``repro.solve()`` is in fact
a thin shim over a throwaway session.

Every expensive setup step increments :attr:`SolverSession.setup_events`
(a :class:`collections.Counter`), which tests and capacity planning can
inspect to verify that reuse actually reuses;
:attr:`SolverSession.setup_seconds` holds the host time the matrix,
preconditioner and reference stages took.

Replay
------

Some solves provably run the reference trajectory: the same iterates
and reductions, only more bills.  These are failure-free ``reference``,
``esr``, ``esrp`` and ``imcr`` solves, and ``imcr`` solves under
fail-stop failures (a rollback or a restart re-runs iterations of the
same trajectory).  The reference solve keeps the reductions it read
(:attr:`~repro.solvers.engine.PCGEngine.reductions`; they are spooled
with it).  A request is replayed when all of these hold:

* the built strategy's exact class is one of those four, so aliases
  (``cr``, ``pcg``) count and subclasses (``lossy_imcr``) do not;
* it has no ``x0``;
* it has no fault events, or it is ``imcr`` and all of them are plain
  ``node_failure`` events;
* the reference for its (preconditioner, rtol) is already cached here.
  ``with_reference=True`` caches it first, but a cold solve never
  computes one just to replay.

A cached reference has converged: a session solve that runs out of
budget raises :class:`~repro.exceptions.ConvergenceError`, so a
reference computed under a short ``maxiter`` is never cached.  A
replayed solve thus converges at the reference's iteration C and never
reads past it, whatever its own budget; one whose budget runs out
first raises the same error its real solve raises.

A replayed request runs the unchanged engine loop on a per-solve
:class:`~repro.kernels.replay.ReplayBackend`.  That twin of
``vectorized`` makes the same bills in the same order but skips the
arithmetic, and its reductions answer from the recording.  Clocks,
statistics, noise draws, events, residual history and iteration counts
are the real solve's.  The report's ``x`` is a private copy of the
reference's, ``backend`` still reads ``vectorized``, and
``result.replayed_iterations`` says how many loop bodies were
replayed.  Each request replays its bills in full; no report is
memoised.  A solve on any other backend runs for real, because a
plugin (a timing wrapper, say) must see the real kernels.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import pathlib
import tempfile
import time
from collections import Counter
from typing import Any, Iterable, Sequence

import numpy as np

from ..cluster.communicator import VirtualCluster
from ..cluster.cost_model import CostModel
from ..distribution.matrix import DistributedMatrix
from ..distribution.partition import BlockRowPartition
from ..exceptions import ConfigurationError
from ..kernels.base import REDUCTION_CHUNK, flat_dot
from ..kernels.replay import ReplayBackend
from ..kernels.vectorized import VectorizedBackend
from .registry import KERNELS
from .request import SolveReport, SolveRequest

#: Names the dot-product association in reference-spool fingerprints.
REDUCTION_TAG = f"flat_dot/{REDUCTION_CHUNK}"

#: Default spool directory for ``cache_dir=True`` (also the campaign
#: CLI's ``--cache-dir`` default).
DEFAULT_CACHE_DIR = "~/.cache/repro"


@dataclasses.dataclass(frozen=True)
class ReferenceTrajectory:
    """Cached outcome of the non-resilient reference solver."""

    #: Modeled runtime t₀ of the undisturbed solver (seconds).
    t0: float
    #: Iteration count C of the undisturbed trajectory.
    C: int
    #: The converged solution (exact-reconstruction comparisons).
    x: np.ndarray = dataclasses.field(repr=False, compare=False)
    #: The reductions of the solve, in call order: b·b, r₀·z₀, then
    #: (p·Ap, r·z, r·r) per iteration (:mod:`repro.kernels.replay`).
    scalars: np.ndarray = dataclasses.field(repr=False, compare=False)

    @property
    def x_norm(self) -> float:
        return math.sqrt(flat_dot(self.x, self.x))


class SolverSession:
    """Serve many resilient solves against one problem constellation."""

    def __init__(
        self,
        matrix,
        b: np.ndarray,
        *,
        n_nodes: int = 8,
        cost_model: CostModel | None = None,
        topology=None,
        seed: int | None = 0,
        cluster: VirtualCluster | None = None,
        backend: str | None = None,
        cache_dir: "str | os.PathLike | bool | None" = None,
        meta=None,
    ):
        """Bind a session to one (matrix, b) problem.

        Parameters
        ----------
        matrix, b:
            Square SPD matrix (anything scipy.sparse accepts) and its
            right-hand side.
        n_nodes, cost_model, topology, seed:
            Virtual-cluster construction knobs (ignored when
            ``cluster`` is given).
        cluster:
            Adopt an existing cluster instead of owning a fresh one.
            An adopted cluster is **not** reset between solves — its
            clock and statistics continue across calls, preserving the
            historical ``repro.solve(cluster=...)`` semantics.
        backend:
            Compute-kernel backend for this session's solves (any name
            in the :data:`~repro.api.registry.KERNELS` registry);
            ``None`` (default) picks the library default,
            ``"vectorized"``.  Individual requests may override it via
            ``SolveRequest(backend=...)``.
        cache_dir:
            Spool computed reference trajectories to this directory so
            concurrent workers (e.g. campaign processes) stop computing
            one copy each.  ``True`` uses ``~/.cache/repro``; ``None``
            (default) disables the disk cache.  Entries are keyed by a
            fingerprint of the problem, cluster model and request, so
            unrelated sessions never collide.
        meta:
            Optional problem metadata (attached by :meth:`from_problem`).
        """
        self.matrix_csr = matrix
        self.b = np.asarray(b, dtype=np.float64)
        self.meta = meta
        self._cost_model = cost_model
        self._topology = topology
        self._seed = seed
        self._owns_cluster = cluster is None
        self._cluster = cluster
        self._n_nodes = int(cluster.n_nodes if cluster is not None else n_nodes)
        if backend is None:
            from ..kernels.base import DEFAULT_BACKEND

            backend = DEFAULT_BACKEND
        self._backend = KERNELS.resolve(backend)
        if cache_dir is True:
            cache_dir = DEFAULT_CACHE_DIR
        self.cache_dir = (
            pathlib.Path(os.path.expanduser(os.fspath(cache_dir)))
            if cache_dir
            else None
        )
        self._partition: BlockRowPartition | None = None
        self._dist_matrix: DistributedMatrix | None = None
        self._preconditioners: dict[str, Any] = {}
        self._references: dict[tuple[str, float], ReferenceTrajectory] = {}
        self._problem_digest: str | None = None
        #: Final iterate of the most recent (non-reference) solve;
        #: served to requests with ``x0="previous"``.
        self._last_x: np.ndarray | None = None
        #: Counts of expensive setup work: ``"cluster"``, ``"matrix"``,
        #: ``"preconditioner"``, ``"reference"`` (computed) and
        #: ``"reference_disk"`` (loaded from the spool directory).
        self.setup_events: Counter[str] = Counter()
        #: Host seconds spent in the ``"matrix"``, ``"preconditioner"`` and
        #: ``"reference"`` stages, each exclusive of the others.  Wall
        #: time: in no digest and no stamped reply.
        self.setup_seconds: dict[str, float] = {
            "matrix": 0.0, "preconditioner": 0.0, "reference": 0.0
        }
        if cluster is not None:
            # Adopted clusters were built by the caller; no setup charged.
            self.setup_events["cluster"] += 0

    # ------------------------------------------------------------ construction

    @classmethod
    def from_problem(
        cls,
        name: str,
        scale: str = "small",
        *,
        n_nodes: int = 8,
        cost_model: CostModel | None = None,
        topology=None,
        seed: int | None = 0,
        problem_seed: int = 2020,
        backend: str | None = None,
        cache_dir: "str | os.PathLike | bool | None" = None,
    ) -> "SolverSession":
        """Build a session for a registered named problem.

        ``problem_seed`` feeds the matrix generator (and exact
        solution); ``seed`` feeds the cluster noise RNG.
        """
        from ..matrices import suite

        matrix, b, meta = suite.load(name, scale=scale, seed=problem_seed)
        return cls(
            matrix,
            b,
            n_nodes=n_nodes,
            cost_model=cost_model,
            topology=topology,
            seed=seed,
            backend=backend,
            cache_dir=cache_dir,
            meta=meta,
        )

    # ------------------------------------------------------------------ basics

    @property
    def n_nodes(self) -> int:
        return self._n_nodes

    @property
    def n(self) -> int:
        return int(self.matrix_csr.shape[0])

    @property
    def cluster(self) -> VirtualCluster:
        """The session cluster (built on first access)."""
        if self._cluster is None:
            self._cluster = VirtualCluster(
                self._n_nodes,
                cost_model=self._cost_model,
                topology=self._topology,
                seed=self._seed,
            )
            self.setup_events["cluster"] += 1
        return self._cluster

    @property
    def partition(self) -> BlockRowPartition:
        if self._partition is None:
            self._partition = BlockRowPartition.uniform(self.n, self._n_nodes)
        return self._partition

    @property
    def matrix(self) -> DistributedMatrix:
        """The distributed matrix (split + comm plan built on first access)."""
        if self._dist_matrix is None:
            start = time.perf_counter()
            self._dist_matrix = DistributedMatrix(
                self.cluster, self.partition, self.matrix_csr
            )
            self._record_setup("matrix", start)
        return self._dist_matrix

    def _record_setup(self, stage: str, start: float) -> None:
        """Count one ``stage`` set-up that began at ``perf_counter()`` ``start``."""
        self.setup_events[stage] += 1
        self.setup_seconds[stage] += time.perf_counter() - start

    @property
    def problem_digest(self) -> str:
        """Stable sha256 of the bound problem (matrix + rhs *content*).

        Identifies what this session actually solves — two sessions
        built from the same generator parameters digest identically,
        a perturbed matrix does not.  Shared by the reference-spool
        fingerprint and the serve layer's hash-stamped responses.
        """
        if self._problem_digest is None:
            import scipy.sparse as sp

            csr = sp.csr_matrix(self.matrix_csr)
            h = hashlib.sha256()
            h.update(str(csr.shape).encode())
            h.update(csr.indptr.tobytes())
            h.update(csr.indices.tobytes())
            h.update(csr.data.tobytes())
            h.update(self.b.tobytes())
            self._problem_digest = h.hexdigest()
        return self._problem_digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = self.meta.name if self.meta is not None else f"n={self.n}"
        return (
            f"SolverSession({label}, n_nodes={self._n_nodes}, "
            f"solves={self.setup_events.get('solve', 0)})"
        )

    # ------------------------------------------------------------- components

    def _preconditioner_for(self, request: SolveRequest):
        """Cached, already-factorised preconditioner for ``request``."""
        from ..preconditioners import make_preconditioner

        key = request.precond_key
        precond = self._preconditioners.get(key)
        if precond is None:
            matrix = self.matrix  # built (and timed) as its own stage
            start = time.perf_counter()
            precond = make_preconditioner(
                request.preconditioner, **request.precond_params
            )
            precond.setup(matrix)  # factorise once; engines reuse it
            self._preconditioners[key] = precond
            self._record_setup("preconditioner", start)
        return precond

    # ---------------------------------------------------------------- solving

    def _execute(self, request: SolveRequest, x0: np.ndarray | None = None):
        """Run one engine against the shared infrastructure.

        Returns the result and the reductions the engine read
        (:attr:`~repro.solvers.engine.PCGEngine.reductions`).  A solve
        that would run on ``vectorized`` runs on a :class:`ReplayBackend`
        instead when :meth:`_replay_source` finds its trajectory cached.
        The engine never leaves this method, so the state vectors a
        replay never computed are not handed out.
        """
        from ..core.strategies import make_strategy
        from ..solvers.engine import PCGEngine, SolveOptions

        request.validate_for(self._n_nodes)
        precond = self._preconditioner_for(request)
        restore_backend = None
        if request.backend is not None:
            if not self._owns_cluster:
                # A per-request override on an adopted cluster is
                # scoped to this solve; the caller's backend returns
                # afterwards.
                restore_backend = self.cluster.kernels
            self.cluster.kernels = request.backend
        elif self._owns_cluster:
            # Adopted clusters keep whatever backend the caller chose.
            self.cluster.kernels = self._backend
        if self._owns_cluster:
            seed = request.seed if request.seed is not None else self._seed
            self.cluster.reset(seed=seed)
        strategy = make_strategy(
            request.strategy,
            T=request.T,
            phi=request.phi,
            rule=request.rule,
            destinations=request.destinations,
            **request.strategy_params,
        )
        engine = PCGEngine(
            matrix=self.matrix,
            b=self.b,
            preconditioner=precond,
            strategy=strategy,
            options=SolveOptions(rtol=request.rtol, maxiter=request.maxiter),
            failures=request.schedule(),
        )
        self.setup_events["solve"] += 1
        source = None
        if type(self.cluster.kernels) is VectorizedBackend:
            source = self._replay_source(request, strategy, x0)
        if source is not None:
            if restore_backend is None:
                restore_backend = self.cluster.kernels
            self.cluster.kernels = ReplayBackend(source.scalars)
        try:
            result = engine.solve(x0=x0)
        finally:
            if restore_backend is not None:
                self.cluster.kernels = restore_backend
            # Unbind, so the engine and its state vectors are freed on
            # return rather than at the next cyclic collection, which a
            # replayed solve, allocating few objects, triggers rarely.
            strategy.engine = None
        if source is not None:
            # x was never computed: hand out a private copy of the
            # reference's bits.
            result.x = source.x.copy()
            result.replayed_iterations = result.executed_iterations
        return result, engine.reductions

    def _replay_source(
        self, request: SolveRequest, strategy, x0: np.ndarray | None
    ) -> ReferenceTrajectory | None:
        """The cached trajectory ``request`` provably runs, if any.

        See "Replay" in the module docstring.  ``strategy`` is the built
        one: its exact class decides, so aliases count and subclasses
        (``lossy_imcr``) do not.
        """
        from ..cluster.failures import FailureEvent
        from ..core.esr import ESRStrategy
        from ..core.esrp import ESRPStrategy
        from ..core.imcr import IMCRStrategy
        from ..solvers.engine import NoResilience

        kind = type(strategy)
        if x0 is not None or kind not in (
            NoResilience, ESRStrategy, ESRPStrategy, IMCRStrategy
        ):
            return None
        if request.failures and not (
            kind is IMCRStrategy
            and all(type(event) is FailureEvent for event in request.failures)
        ):
            return None
        return self._references.get((request.precond_key, request.rtol))

    def reference(
        self,
        preconditioner: str = "block_jacobi",
        rtol: float = 1e-8,
        precond_params: dict | None = None,
        maxiter: int | None = None,
    ) -> ReferenceTrajectory:
        """The cached (t₀, C, x_ref) reference trajectory.

        Computed with the non-resilient solver on its first request per
        (preconditioner, rtol) pair; every later call — and every
        ``solve(..., with_reference=True)`` — reuses the cache.
        """
        request = SolveRequest(
            strategy="reference",
            preconditioner=preconditioner,
            precond_params=precond_params or {},
            rtol=rtol,
            maxiter=maxiter,
            seed=self._seed,
        )
        return self._reference_for(request)

    def _reference_for(self, request: SolveRequest) -> ReferenceTrajectory:
        key = (request.precond_key, request.rtol)
        cached = self._references.get(key)
        if cached is not None:
            return cached
        trajectory = self._load_reference_from_disk(request)
        if trajectory is None:
            ref_request = SolveRequest(
                strategy="reference",
                preconditioner=request.preconditioner,
                precond_params=request.precond_params,
                rtol=request.rtol,
                maxiter=request.maxiter,
                seed=self._seed,
            )
            self._preconditioner_for(ref_request)  # its own stage, not the solve's
            start = time.perf_counter()
            result, reductions = self._execute(ref_request)
            trajectory = ReferenceTrajectory(
                t0=result.modeled_time,
                C=result.iterations,
                x=result.x,
                scalars=np.array(reductions),
            )
            self._record_setup("reference", start)
            self._store_reference_to_disk(request, trajectory)
        self._references[key] = trajectory
        return trajectory

    # ------------------------------------------------------ reference spooling

    def _fingerprint(self, request: SolveRequest) -> str:
        """Stable digest identifying one reference trajectory on disk.

        Covers everything the trajectory depends on: the matrix and
        right-hand side (content, not identity), the cluster model
        (node count, cost constants, topology, noise seed) and the
        reference request (preconditioner + params, rtol, maxiter) —
        and the reduction definition (:data:`REDUCTION_TAG`), so entries
        spooled under another dot-product association are recomputed,
        not mixed into new reports.  A kernel backend must reproduce
        the default's bits (:mod:`repro.kernels.base`), so the backend
        is deliberately *not* part of the key — a session running a
        timing plugin shares entries with one running the default.
        """
        cost_model = self._cost_model if self._cost_model is not None else CostModel()
        topology = self._topology
        # Type plus every instance attribute (n_nodes, radix, ... — all
        # small ints), so differently-wired topologies never collide.
        topology_tag = (
            f"{type(topology).__name__}:{sorted(vars(topology).items())}"
            if topology is not None
            else "default"
        )
        h = hashlib.sha256()
        h.update(self.problem_digest.encode())
        parts = (
            self._n_nodes,
            dataclasses.astuple(cost_model),
            topology_tag,
            self._seed,
            request.precond_key,
            request.rtol,
            request.maxiter,
            REDUCTION_TAG,
        )
        h.update(repr(parts).encode())
        return h.hexdigest()

    def _reference_path(self, request: SolveRequest) -> pathlib.Path:
        return self.cache_dir / f"reference-{self._fingerprint(request)[:40]}.npz"

    def _load_reference_from_disk(self, request: SolveRequest) -> ReferenceTrajectory | None:
        if self.cache_dir is None:
            return None
        path = self._reference_path(request)
        try:
            with np.load(path) as payload:
                trajectory = ReferenceTrajectory(
                    t0=float(payload["t0"]),
                    C=int(payload["C"]),
                    x=np.asarray(payload["x"], dtype=np.float64),
                    scalars=np.asarray(payload["scalars"], dtype=np.float64),
                )
        except (OSError, KeyError, ValueError):
            # Missing, corrupt or truncated spool entry, or one spooled
            # without its reductions: recompute (and rewrite it).
            return None
        if trajectory.scalars.shape != (2 + 3 * trajectory.C,):
            return None
        self.setup_events["reference_disk"] += 1
        return trajectory

    def _store_reference_to_disk(
        self, request: SolveRequest, trajectory: ReferenceTrajectory
    ) -> None:
        if self.cache_dir is None:
            return
        path = self._reference_path(request)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            # Atomic publish: concurrent campaign workers may race on
            # the same entry; each writes a private temp file and the
            # last rename wins (all contents are identical anyway).
            fd, tmp_name = tempfile.mkstemp(
                dir=self.cache_dir, prefix=path.stem, suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez(
                        handle,
                        t0=np.float64(trajectory.t0),
                        C=np.int64(trajectory.C),
                        x=trajectory.x,
                        scalars=trajectory.scalars,
                    )
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # The spool is an optimisation; an unwritable directory
            # must not fail the solve.
            pass

    def solve(
        self,
        request: SolveRequest | None = None,
        *,
        with_reference: bool = False,
        x0: np.ndarray | None = None,
        **kwargs,
    ) -> SolveReport:
        """Serve one :class:`SolveRequest` (or build one from kwargs).

        ``with_reference=True`` attaches the cached reference
        trajectory's overhead metrics (t₀, C, total/recovery overhead,
        solution error) to the report, computing the reference first if
        this (preconditioner, rtol) pair has never been solved.

        A request with ``x0="previous"`` warm-starts from the final
        iterate of this session's previous solve (reference solves do
        not count — they are baseline measurements, not state).
        """
        if request is None:
            request = SolveRequest(**kwargs)
        elif kwargs:
            raise ConfigurationError(
                "pass either a SolveRequest or keyword arguments, not both"
            )
        request.validate_for(self._n_nodes)
        if request.x0 == "previous":
            if x0 is not None:
                raise ConfigurationError(
                    "request asks for x0='previous' but an explicit x0 array "
                    "was also given"
                )
            if self._last_x is None:
                raise ConfigurationError(
                    "x0='previous' needs a previous solve in this session"
                )
            x0 = self._last_x

        reference = None
        if with_reference:
            reference = self._reference_for(request)
        result, _ = self._execute(request, x0=x0)
        self._last_x = result.x
        return self._report(request, result, reference)

    def solve_many(
        self,
        requests: Iterable[SolveRequest],
        *,
        with_reference: bool = False,
    ) -> list[SolveReport]:
        """Serve a batch of requests against the shared setup.

        All requests are validated against the session cluster before
        the first engine runs (a typo in request #7 should not cost the
        wall-time of requests #1–6).
        """
        batch: Sequence[SolveRequest] = list(requests)
        for request in batch:
            if not isinstance(request, SolveRequest):
                raise ConfigurationError(
                    f"solve_many expects SolveRequest items, got {type(request).__name__}"
                )
            request.validate_for(self._n_nodes)
        return [
            self.solve(request, with_reference=with_reference) for request in batch
        ]

    # --------------------------------------------------------------- reports

    def _report(
        self,
        request: SolveRequest,
        result,
        reference: ReferenceTrajectory | None,
    ) -> SolveReport:
        failure_iterations = tuple(event.iteration for event in request.failures)
        overhead = recovery = error = None
        if reference is not None:
            if reference.t0 > 0:
                overhead = (result.modeled_time - reference.t0) / reference.t0
                recovery = result.recovery_time / reference.t0
            x_norm = reference.x_norm
            if x_norm:
                diff = result.x - reference.x
                error = math.sqrt(flat_dot(diff, diff)) / x_norm
            else:
                error = 0.0
        return SolveReport(
            request=request,
            strategy=result.strategy,
            converged=result.converged,
            iterations=result.iterations,
            executed_iterations=result.executed_iterations,
            relative_residual=result.relative_residual,
            modeled_time=result.modeled_time,
            recovery_time=result.recovery_time,
            wall_time=result.wall_time,
            n_failures=len(request.failures),
            failure_iterations=failure_iterations,
            stats=dict(result.stats),
            backend=result.backend or None,
            reference_time=reference.t0 if reference is not None else None,
            reference_iterations=reference.C if reference is not None else None,
            total_overhead=overhead,
            recovery_overhead=recovery,
            solution_error=error,
            result=result,
        )


def solve_many(
    matrix,
    b: np.ndarray,
    requests: Iterable[SolveRequest],
    *,
    n_nodes: int = 8,
    cost_model: CostModel | None = None,
    seed: int | None = 0,
    with_reference: bool = False,
) -> list[SolveReport]:
    """One-shot batch convenience: a throwaway session serving a batch."""
    session = SolverSession(
        matrix, b, n_nodes=n_nodes, cost_model=cost_model, seed=seed
    )
    return session.solve_many(requests, with_reference=with_reference)
