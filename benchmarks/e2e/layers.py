"""Per-layer measurements of the traced run.

Everything here drives a layer's *public* calls step by step, from the
outside: the set-up stages one at a time, the kernels on a live
``PCGEngine.initialize_state()`` state and again in situ through a
timing kernel-backend plugin, the ``QueueStore`` protocol call by call,
and the serve request/response helpers.  Differences between adjacent
rungs (layer *self* times) are computed in ``ladder.py`` from the spans;
ROADMAP item 2's telemetry is meant to replace both.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import statistics
import subprocess
import sys
from time import perf_counter

from repro.api import SolverSession, register_backend
from repro.campaign import CampaignSpec
from repro.core.strategies import make_strategy
from repro.distribution.spmv import SpMVExecutor
from repro.harness.calibration import BENCH_COST_MODEL
from repro.kernels import KernelBackend, resolve_backend
from repro.matrices import suite
from repro.preconditioners import make_preconditioner
from repro.queue import DEFAULT_COMPACT_EVERY, QueueStore, collect
from repro.serve import ServeRequest, canonical_report, stamp_response
from repro.solvers.engine import PCGEngine

#: Calls per kernel in the micro-measurement (the median is reported).
KERNEL_CALLS = 300


def seconds(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


# -------------------------------------------------------------------- set-up


def setup_stages(spec: CampaignSpec) -> dict[str, float]:
    """One cold set-up of every config group, stage by stage (seconds).

    ``api.reference_s`` is ``session.reference()`` minus the
    preconditioner set-up it contains (measured on the same matrix just
    before), so the four stages add up to what ``setup_s`` times.
    """
    stages: collections.Counter = collections.Counter()
    for problem, scale in spec.problems:
        start = perf_counter()
        matrix, b, meta = suite.load(problem, scale=scale, seed=spec.seed)
        stages["matrices.load_s"] += perf_counter() - start
        session = SolverSession(
            matrix, b, n_nodes=spec.n_nodes, cost_model=BENCH_COST_MODEL,
            seed=spec.seed, meta=meta,
        )
        stages["distribution.build_s"] += seconds(lambda: session.matrix)
        for name in spec.preconditioners:
            factorise = seconds(
                lambda: make_preconditioner(name).setup(session.matrix)
            )
            reference = seconds(
                lambda: session.reference(preconditioner=name, rtol=spec.rtol)
            )
            stages["preconditioners.setup_s"] += factorise
            stages["api.reference_s"] += reference - factorise
    return dict(stages)


# ------------------------------------------------------------------- kernels


def kernel_costs(session: SolverSession, preconditioner: str) -> dict[str, float]:
    """Median µs per kernel call on a live PCG state, plus computed traffic.

    The kernels are called in turn, ``KERNEL_CALLS`` rounds of all of
    them, the way an iteration alternates between them: the same call
    repeated back to back runs on caches no solve ever sees.
    ``computed_mem_bytes_per_iter`` is computed from array sizes (it
    ignores caches; see the README for the formula), not measured.
    """
    session.cluster.reset(seed=0)
    precond = make_preconditioner(preconditioner)
    precond.setup(session.matrix)
    engine = PCGEngine(session.matrix, session.b, precond, make_strategy("reference"))
    state = engine.initialize_state()
    executor = SpMVExecutor(session.matrix)
    kernels = session.cluster.kernels
    calls = {
        "kernels.spmv_us": lambda: executor.multiply(state.p, out=state.rho),
        "kernels.dot_us": lambda: state.p.dot(state.rho),
        # alpha = 0 keeps x and r fixed, so 300 calls cannot overflow.
        "kernels.cg_update_us": lambda: kernels.cg_update(
            state.x, state.r, state.z, state.p, state.rho, 0.0, state.rz, precond
        ),
        "kernels.halo_us": lambda: executor.exchange_halo(state.p),
        "kernels.precond_us": lambda: precond.apply(state.r, state.z),
        "kernels.dot2_us": lambda: state.r.dot_many([state.z, state.r]),
        "kernels.axpy_us": lambda: state.x.axpy(0.0, state.p),
    }
    samples = collections.defaultdict(list)
    for _ in range(KERNEL_CALLS):
        for name, call in calls.items():
            samples[name].append(seconds(call))
    costs = {name: statistics.median(values) * 1e6 for name, values in samples.items()}
    costs["kernels.iter_us"] = (
        costs["kernels.spmv_us"] + costs["kernels.dot_us"] + costs["kernels.cg_update_us"]
    )
    csr, n = session.matrix_csr, session.n
    entry = 8 + csr.indices.itemsize
    ghosts = session.matrix.plan.flat_cache().total_ghosts
    precond_flops = sum(flops for _rank, flops in precond.charge_profile())
    mem_bytes = (
        csr.nnz * entry + (n + 1) * csr.indptr.itemsize + 8 * (2 * n + ghosts)  # SpMV
        + entry * precond_flops / 2 + 16 * n                                   # z = P r
        + 104 * n                                                              # dots, axpys
    )
    costs["kernels.computed_mem_bytes_per_iter"] = float(mem_bytes)
    costs["kernels.flops_per_mem_byte"] = (
        (2 * csr.nnz + precond_flops + 12 * n) / mem_bytes
    )
    return costs


# ---------------------------------------------------------- kernels, in situ

#: The backend calls of a reference PCG iteration — what ``kernel_costs``
#: times one by one (``spmv_us`` covers ``halo_exchange`` + ``spmv_local``).
ITERATION_CALLS = ("halo_exchange", "spmv_local", "dot_many", "cg_update")
TIMED_BACKEND = "bench_timed"


def _timed(method: str):
    def call(self, *args):
        target = getattr(self.inner, method)
        if self.busy:  # e.g. cg_update's axpys, coming back through cluster.kernels
            return target(*args)
        self.busy = True
        start = perf_counter()
        try:
            return target(*args)
        finally:
            self.seconds[method] += perf_counter() - start
            self.calls[method] += 1
            self.busy = False

    return call


class TimedBackend(KernelBackend):
    """A kernel-backend plugin that times the engine's and the strategies'
    outermost calls into the real backend, per method.  It reaches the
    engine the way any plugin does (``register_backend`` and
    ``SolveRequest.backend``); the program is not patched."""

    def __init__(self, inner: KernelBackend):
        self.inner, self.name, self.busy = inner, inner.name, False
        self.seconds: collections.Counter = collections.Counter()
        self.calls: collections.Counter = collections.Counter()

    def __getattr__(self, name):  # backend-specific attributes the executors read
        return getattr(self.inner, name)

    axpy, aypx, scale = _timed("axpy"), _timed("aypx"), _timed("scale")
    subtract, assign, dot_many = _timed("subtract"), _timed("assign"), _timed("dot_many")
    halo_exchange, spmv_local = _timed("halo_exchange"), _timed("spmv_local")
    aspmv, precond_apply = _timed("aspmv"), _timed("precond_apply")
    cg_update = _timed("cg_update")


def engine_in_situ(ops, kernel_us: dict[str, dict]) -> dict[str, dict[str, float]]:
    """Every op solved once more through :class:`TimedBackend`; per run
    id, in seconds:

    ``engine_self``         ``wall_time`` minus all time inside the backend
                            (engine loop, strategy Python, event log, gather)
    ``resilience_kernels``  backend time outside ``ITERATION_CALLS``
                            (augmented SpMV, checkpoint copies, recovery)
    ``kernels_in_situ``     backend time inside ``ITERATION_CALLS``
    ``kernels_micro``       the same calls, counted in situ and priced with
                            the micro-measurements of :func:`kernel_costs`
                            (``kernel_us``, by ``RunSpec.config_key``)

    Only ``kernels_micro`` depends on ``kernel_us``, so the ladder closes
    only if the micro-measured kernels cost in the engine what they cost
    alone.
    """
    timed = TimedBackend(resolve_backend(None))
    register_backend(TIMED_BACKEND, overwrite=True)(lambda: timed)
    rows = {}
    for run, session, request in ops:
        timed.seconds.clear()
        timed.calls.clear()
        report = session.solve(
            dataclasses.replace(request, backend=TIMED_BACKEND), with_reference=True)
        in_situ = sum(timed.seconds[name] for name in ITERATION_CALLS)
        micro = kernel_us[run.config_key]
        rows[run.run_id] = {
            "engine_self": report.wall_time - sum(timed.seconds.values()),
            "resilience_kernels": sum(timed.seconds.values()) - in_situ,
            "kernels_in_situ": in_situ,
            "kernels_micro": 1e-6 * (
                timed.calls["spmv_local"] * micro["kernels.spmv_us"]
                + timed.calls["dot_many"] * micro["kernels.dot_us"]
                + timed.calls["cg_update"] * micro["kernels.cg_update_us"]
            ),
        }
    return rows


# --------------------------------------------------------------------- queue

WORKER = "bench-steps"


def queue_steps(spec: CampaignSpec, queue_dir, records: dict):
    """Drive the ``QueueStore`` protocol call by call (no solves).

    ``records`` maps run id to the campaign rung's record, so the drain
    costs only what the queue layer itself costs.  Returns the median
    milliseconds of each step and the collected result.
    """
    samples = collections.defaultdict(list)

    def timed(name, fn, per=1):
        start = perf_counter()
        value = fn()
        samples[name].append((perf_counter() - start) * 1e3 / per)
        return value

    store = timed("queue.submit_ms_per_task", lambda: QueueStore.submit(
        spec, queue_dir), per=len(records))
    done = 0
    for index, task_id in enumerate(store.task_ids()):
        if index % 32 == 0:
            timed("queue.scan_ms", store.scan)
        task = timed("queue.claim_ms", lambda: store.try_claim_task(task_id, WORKER))
        shard = timed("queue.spool_append_ms", lambda: store.append_record(
            WORKER, records[task.run_id]))
        timed("queue.complete_ms", lambda: store.complete(task, WORKER, shard))
        done += 1
        if done % DEFAULT_COMPACT_EVERY == 0:
            timed("queue.compact_ms_per_record",
                  lambda: store.compact_shard(WORKER), per=DEFAULT_COMPACT_EVERY)
    if done % DEFAULT_COMPACT_EVERY:  # the tail, so small sweeps report it too
        timed("queue.compact_ms_per_record",
              lambda: store.compact_shard(WORKER), per=done % DEFAULT_COMPACT_EVERY)
    result = timed("queue.collect_ms_per_task", lambda: collect(queue_dir), per=done)
    return {name: statistics.median(values) for name, values in samples.items()}, result


def drain_two_workers(spec: CampaignSpec, queue_dir, env: dict):
    """tasks/s with two ``repro campaign worker`` processes (cold starts
    included); ``None`` on a host that cannot run two at once."""
    if (os.cpu_count() or 1) < 2:
        return None, None
    store = QueueStore.submit(spec, queue_dir)
    command = [sys.executable, "-m", "repro", "campaign", "worker",
               "--queue", os.fspath(queue_dir), "--wait", "--quiet"]
    start = perf_counter()
    workers = [
        subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL) for _ in range(2)
    ]
    try:
        codes = [worker.wait() for worker in workers]
    finally:  # an interrupted run leaves no worker behind
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
                worker.wait()
    wall = perf_counter() - start
    if any(codes):
        raise RuntimeError(f"campaign worker exited with {codes}")
    return store.n_tasks / wall, collect(queue_dir)


# --------------------------------------------------------------------- serve


def serve_steps(payloads: list[dict], direct: dict, served: dict) -> dict[str, float]:
    """Median ms of request parsing and of report canonicalising + stamping."""
    parse = [seconds(lambda: ServeRequest.from_dict(payload)) for payload in payloads]
    stamp = [
        seconds(lambda: stamp_response(
            served[run_id]["problem_digest"], served[run_id]["request_fingerprint"],
            canonical_report(report),
        ))
        for run_id, report in direct.items()
    ]
    return {
        "serve.parse_ms": statistics.median(parse) * 1e3,
        "serve.stamp_ms": statistics.median(stamp) * 1e3,
    }
