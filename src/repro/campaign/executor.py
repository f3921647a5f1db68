"""Campaign execution: per-run worker plus serial/process-pool drivers.

Design notes
------------
* :func:`run_one` is a **module-level** function taking one picklable
  :class:`RunSpec`, so it crosses ``ProcessPoolExecutor`` boundaries
  under both fork and spawn start methods.
* Each worker process keeps a memoised
  :class:`~repro.api.session.SolverSession` per problem configuration
  (``functools.lru_cache``): the matrix, cluster, partition,
  distributed matrix, factorised preconditioners and the reference
  trajectory are set up once per worker and reused by every run
  against the same configuration.
* All randomness is derived from seeds carried by the ``RunSpec``
  (cluster noise and stochastic scenarios from ``run.seed``, matrix
  generation from ``run.problem_seed``), so pool execution is
  result-for-result identical to serial execution regardless of
  worker count or scheduling order.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import functools
import os
from typing import Callable, Sequence

from ..api.registry import STRATEGIES
from ..api.request import SolveRequest
from ..exceptions import ConfigurationError
from ..solvers.residual_replacement import drift_from_result
from .results import CampaignResult, CampaignRunRecord
from .scenarios import ScenarioContext, generate_schedule
from .spec import CampaignSpec, RunSpec, expand_spec

#: Callback signature: (finished_count, total, record).
ProgressFn = Callable[[int, int, CampaignRunRecord], None]


#: Environment variable through which the campaign driver hands the
#: reference-trajectory spool directory to its pool workers (set before
#: the pool starts, so both fork and spawn children inherit it).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


@contextlib.contextmanager
def cache_dir_env(cache_dir):
    """Export ``CACHE_DIR_ENV`` for a scope, restoring the old value.

    The shared save/set/restore dance of every campaign entry point
    (pool driver here, queue workers in :mod:`repro.queue.worker`);
    ``None`` leaves the environment untouched.
    """
    if cache_dir is None:
        yield
        return
    previous = os.environ.get(CACHE_DIR_ENV)
    os.environ[CACHE_DIR_ENV] = os.fspath(cache_dir)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(CACHE_DIR_ENV, None)
        else:
            os.environ[CACHE_DIR_ENV] = previous


@functools.lru_cache(maxsize=8)
def _session_for(
    problem: str,
    scale: str,
    n_nodes: int,
    problem_seed: int,
    cache_dir: str | None,
):
    """Per-worker-process session cache (one per problem configuration).

    When a spool directory is given (via ``REPRO_CACHE_DIR``), each
    session additionally spools computed reference trajectories there,
    so N pool workers compute one copy between them instead of N.  The
    directory is part of the memoisation key, so campaigns with
    different (or no) spool directories never share a session.
    """
    from ..api.session import SolverSession
    from ..cluster.cost_model import BENCH_COST_MODEL

    return SolverSession.from_problem(
        problem,
        scale=scale,
        n_nodes=n_nodes,
        cost_model=BENCH_COST_MODEL,
        seed=problem_seed,
        problem_seed=problem_seed,
        cache_dir=cache_dir,
    )


def run_one(run: RunSpec) -> CampaignRunRecord:
    """Execute one fully-resolved run and flatten it into a record."""
    session = _session_for(
        run.problem,
        run.scale,
        run.n_nodes,
        run.problem_seed,
        os.environ.get(CACHE_DIR_ENV) or None,
    )
    reference = session.reference(preconditioner=run.preconditioner, rtol=run.rtol)

    if run.strategy == "reference":
        failures = ()
    else:
        ctx = ScenarioContext(
            n_nodes=run.n_nodes,
            phi=run.phi,
            strategy=run.strategy,
            T=run.T,
            reference_iterations=reference.C,
            seed=run.seed,
        )
        failures = generate_schedule(run.scenario, ctx)

    # The lossy regime's error-model parameters ride on the scenario;
    # only ``lossy_imcr`` takes them, so the same scenario A/Bs cleanly
    # against exact baselines.
    strategy_params: dict = {}
    lossy = STRATEGIES.resolve(run.strategy) == "lossy_imcr"
    if run.scenario.kind == "lossy" and lossy:
        params = dict(run.scenario.params)
        strategy_params = {
            "error_bound": params.get("error_bound", 1e-4),
            "ratio": params.get("ratio", 4.0),
            "seed": run.seed,
        }

    request = SolveRequest(
        strategy=run.strategy,
        T=run.T,
        phi=run.phi,
        preconditioner=run.preconditioner,
        rtol=run.rtol,
        failures=failures,
        strategy_params=strategy_params,
        seed=run.seed,
        n_nodes=run.n_nodes,
        backend=run.backend,
        label=run.run_id,
    )
    report = session.solve(request, with_reference=True)

    return CampaignRunRecord(
        run_id=run.run_id,
        problem=run.problem,
        scale=run.scale,
        n_nodes=run.n_nodes,
        preconditioner=run.preconditioner,
        strategy=run.strategy,
        T=run.T,
        phi=run.phi,
        scenario_kind=run.scenario.kind,
        scenario_params=dict(run.scenario.params),
        repetition=run.repetition,
        seed=run.seed,
        converged=report.converged,
        iterations=report.iterations,
        executed_iterations=report.executed_iterations,
        relative_residual=report.relative_residual,
        modeled_time=report.modeled_time,
        recovery_time=report.recovery_time,
        reference_time=report.reference_time,
        reference_iterations=report.reference_iterations,
        total_overhead=report.total_overhead,
        recovery_overhead=report.recovery_overhead,
        n_failures=report.n_failures,
        failure_iterations=report.failure_iterations,
        solution_error=report.solution_error,
        stats=dict(report.stats),
        residual_drift=drift_from_result(session.matrix_csr, session.b, report.result),
    )


def default_workers(n_runs: int) -> int:
    """Pool size heuristic: one worker per run, capped by the host."""
    return max(1, min(n_runs, os.cpu_count() or 1, 8))


def execute_runs(
    runs: Sequence[RunSpec],
    workers: int = 0,
    progress: ProgressFn | None = None,
) -> list[CampaignRunRecord]:
    """Execute runs; ``workers <= 1`` is serial, otherwise a process pool.

    The returned list is always in the order of ``runs``, independent
    of pool scheduling.
    """
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    records: list[CampaignRunRecord] = []
    if workers <= 1:
        for index, run in enumerate(runs):
            record = run_one(run)
            records.append(record)
            if progress is not None:
                progress(index + 1, len(runs), record)
        return records
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        for index, record in enumerate(pool.map(run_one, runs, chunksize=1)):
            records.append(record)
            if progress is not None:
                progress(index + 1, len(runs), record)
    return records


def _queue_worker_entry(queue_dir: str) -> dict:
    """Module-level (picklable) pool target: drain the queue fully.

    ``wait=True`` so a resumed queue that still carries an orphaned
    (unexpired) lease from a killed driver is polled until the lease
    times out and the task is reclaimed, instead of being abandoned.
    """
    from ..queue.worker import run_worker

    summary = run_worker(queue_dir, wait=True)
    return {"done": summary.done, "failed": summary.failed}


def execute_queued(
    spec: CampaignSpec,
    queue_dir,
    workers: int,
    max_attempts: int | None = None,
) -> CampaignResult:
    """Run a campaign through an on-disk queue with a local worker pool.

    The durable-queue analogue of :func:`execute_runs`: the spec is
    submitted as a task store under ``queue_dir``, ``workers``
    independent worker processes drain it, and the spool shards are
    collected into the canonical result — byte-identical to a serial
    run, but resumable: if this process dies, re-running against the
    same ``queue_dir`` (or pointing ``repro campaign worker`` at it,
    from any host sharing the filesystem) picks up where it left off.

    ``max_attempts`` is the queue's retry bound for *failing* (raising)
    tasks; when resuming an existing queue the policy recorded at
    submit time is authoritative and the argument is ignored.
    """
    from ..queue.collect import collect
    from ..queue.store import DEFAULT_MAX_ATTEMPTS, QueueStore
    from ..queue.worker import run_worker

    store = QueueStore(queue_dir)
    if store.spec_path.exists():
        # Resuming an existing queue: the spec on disk is authoritative
        # (and must be the same sweep).
        if store.spec_dict != spec.to_dict():
            raise ConfigurationError(
                f"{queue_dir} holds a different campaign "
                f"({store.spec.name!r}); refusing to mix sweeps"
            )
    else:
        store = QueueStore.submit(
            spec, queue_dir,
            max_attempts=(
                DEFAULT_MAX_ATTEMPTS if max_attempts is None else max_attempts
            ),
        )
    if workers <= 1:
        run_worker(queue_dir, wait=True)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_queue_worker_entry, os.fspath(queue_dir))
                for _ in range(workers)
            ]
            for future in futures:
                future.result()  # surface worker-process crashes
    return collect(queue_dir)


def execute_campaign(
    spec: CampaignSpec,
    workers: int | None = None,
    progress: ProgressFn | None = None,
    cache_dir: str | None = None,
    queue_dir=None,
    max_attempts: int | None = None,
) -> CampaignResult:
    """Expand a campaign spec and execute every run.

    ``workers=None`` picks :func:`default_workers`; pass ``0``/``1``
    to force serial execution (e.g. inside tests comparing the two).
    ``cache_dir`` names a directory where workers spool reference
    trajectories to disk (exported as ``REPRO_CACHE_DIR`` for the
    duration of the campaign, so every worker — fork or spawn — shares
    one copy per configuration instead of computing its own; the
    previous value is restored afterwards).

    ``queue_dir`` switches to the durable-queue execution mode
    (:mod:`repro.queue`): tasks are materialised on disk, ``workers``
    queue workers drain them, and the result is collected from the
    spool shards — same records, but crash-resumable and joinable by
    external ``repro campaign worker`` processes, with failing tasks
    retried up to ``max_attempts`` times before dead-lettering.
    Per-run ``progress`` callbacks are not available in this mode
    (workers stream to disk, not to the driver); use ``repro campaign
    status`` for observation.
    """
    runs = expand_spec(spec)
    if not runs:
        raise ConfigurationError(f"campaign {spec.name!r} expands to zero runs")
    if workers is None:
        workers = default_workers(len(runs))
    with cache_dir_env(cache_dir):
        if queue_dir is not None:
            return execute_queued(
                spec, queue_dir, workers=workers, max_attempts=max_attempts
            )
        records = execute_runs(runs, workers=workers, progress=progress)
    return CampaignResult(spec=spec.to_dict(), records=records)
