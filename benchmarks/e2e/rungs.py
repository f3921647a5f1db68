"""The rungs of the ladder: one workload, pushed through every layer.

Each rung takes the same expanded ``RunSpec``s and drives them through
one public entry point of the program, timing only that call:

``session``   ``SolverSession.solve(request, with_reference=True)``
``campaign``  ``execute_campaign(spec, workers=1)``
``queue``     ``QueueStore.submit`` -> in-process ``run_worker(wait=True)`` -> ``collect``
``serve``     closed-loop ``POST /solve`` against a ``python -m repro serve`` child
``cli``       ``python -m repro solve ...`` subprocesses, interpreter start included

Checking is kept out of the timed regions: rungs return what the
program answered and :class:`Checks` judges it afterwards.  The rungs
that can stop between two ops (session, campaign, one-client serve) call
``tick()`` there — the ladder's host-speed probe — and leave the time it
takes out of the wall time they return.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import subprocess
import sys
import threading
import time
from time import perf_counter

from repro.api import SolveRequest, SolverSession
from repro.campaign import (
    CampaignSpec,
    RunSpec,
    ScenarioContext,
    execute_campaign,
    generate_schedule,
)
from repro.exceptions import ConfigurationError
from repro.harness.calibration import BENCH_COST_MODEL
from repro.queue import QueueStore, collect, run_worker
from repro.serve import get_json, post_json, verify_response

from spans import Tracer

#: ``solution_error`` ceiling for the exact strategies (esr, esrp, imcr).
MAX_SOLUTION_ERROR = 1e-6

#: The simulated/exact part of one run's outcome, as every rung reports it.
SIM_FIELDS = (
    "converged", "iterations", "executed_iterations", "relative_residual",
    "modeled_time", "recovery_time", "total_overhead", "recovery_overhead",
    "solution_error", "stats",
)


@dataclasses.dataclass
class Checks:
    """Ops attempted/failed, plus every correctness problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    def solved(self, where: str, run_id: str, outcome: dict) -> None:
        """One solve as an op: converged, and exact to ``MAX_SOLUTION_ERROR``."""
        error = outcome.get("solution_error")
        self.op(
            bool(outcome.get("converged"))
            and error is not None and error <= MAX_SOLUTION_ERROR,
            f"{where}: {run_id} converged={outcome.get('converged')} "
            f"solution_error={error}",
        )


def sim_digest(outcomes: dict[str, dict]) -> str:
    """sha256 of the canonical simulated records, keyed by run id."""
    rows = sorted(
        (run_id, {field: outcome[field] for field in SIM_FIELDS})
        for run_id, outcome in outcomes.items()
    )
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ------------------------------------------------------------------- session


def cold_setup(spec: CampaignSpec) -> dict[tuple[str, str], SolverSession]:
    """What ``setup_s`` times: every config group of ``spec``, from nothing.

    Built exactly like the campaign executor's per-process sessions, so
    the session rung and the campaign rung simulate the same cluster.
    """
    sessions = {}
    for problem, scale in spec.problems:
        session = SolverSession.from_problem(
            problem, scale=scale, n_nodes=spec.n_nodes,
            cost_model=BENCH_COST_MODEL, seed=spec.seed, problem_seed=spec.seed,
        )
        for preconditioner in spec.preconditioners:
            session.reference(preconditioner=preconditioner, rtol=spec.rtol)
        sessions[problem, scale] = session
    return sessions


def solve_request(run: RunSpec, reference_iterations: int) -> SolveRequest:
    """The request ``campaign.run_one`` would build for ``run``."""
    ctx = ScenarioContext(
        n_nodes=run.n_nodes, phi=run.phi, strategy=run.strategy, T=run.T,
        reference_iterations=reference_iterations, seed=run.seed,
    )
    return SolveRequest(
        strategy=run.strategy, T=run.T, phi=run.phi,
        preconditioner=run.preconditioner, rtol=run.rtol,
        failures=generate_schedule(run.scenario, ctx), seed=run.seed,
        n_nodes=run.n_nodes, backend=run.backend, label=run.run_id,
    )


def session_ops(runs, sessions) -> list[tuple[RunSpec, SolverSession, SolveRequest]]:
    ops = []
    for run in runs:
        session = sessions[run.problem, run.scale]
        reference = session.reference(preconditioner=run.preconditioner, rtol=run.rtol)
        ops.append((run, session, solve_request(run, reference.C)))
    return ops


def rung_session(ops, tracer: Tracer, tick):
    reports, wall = [], 0.0
    for run, session, request in ops:
        start = perf_counter()
        with tracer.span("api.session_solve", run.run_id):
            reports.append(session.solve(request, with_reference=True))
        wall += perf_counter() - start
        tick()
    return wall, reports


# ------------------------------------------------------------------ campaign


def _span_per_callback(tracer: Tracer, name: str):
    """A progress hook turning consecutive callbacks into per-run spans."""
    if not tracer.enabled:
        return None
    last = [perf_counter()]

    def progress(*args):
        record = args[-1]
        now = perf_counter()
        tracer.add(name, last[0], now, record.run_id if record is not None else None)
        last[0] = now

    return progress


def rung_campaign(spec: CampaignSpec, tracer: Tracer, tick):
    paused, last = 0.0, perf_counter()

    def progress(_done, _total, record):  # consecutive callbacks bound one run_one
        nonlocal paused, last
        now = perf_counter()
        tracer.add("campaign.run_one", last, now, record.run_id if record is not None else None)
        tick()
        last = perf_counter()
        paused += last - now

    start = perf_counter()
    with tracer.span("campaign.execute"):
        result = execute_campaign(spec, workers=1, progress=progress)
    return perf_counter() - start - paused, result


# --------------------------------------------------------------------- queue


def rung_queue(spec: CampaignSpec, queue_dir, tracer: Tracer):
    """submit + one in-process worker drain + collect; returns the parts too.

    No ``tick``: a worker with a progress callback also computes a queue
    status per task, which an untraced drain must not pay for."""
    progress = _span_per_callback(tracer, "queue.task")
    start = perf_counter()
    with tracer.span("queue.submit"):
        QueueStore.submit(spec, queue_dir)
    drain_start = perf_counter()
    with tracer.span("queue.drain"):
        summary = run_worker(queue_dir, wait=True, progress=progress)
    drain_wall = perf_counter() - drain_start
    with tracer.span("queue.collect"):
        try:
            result = collect(queue_dir)
        except ConfigurationError:  # dead-lettered tasks: counted as failed ops
            result = collect(queue_dir, allow_partial=True)
    return perf_counter() - start, drain_wall, summary, result


# --------------------------------------------------------------------- serve


class ServeChild:
    """``python -m repro serve`` as a child process on a free port."""

    def __init__(self, pool_size: int, env: dict, log_path):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        self.url = f"http://127.0.0.1:{port}"
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", str(port),
             "--pool-size", str(pool_size), "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=self._log,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve child exited with {self.proc.returncode}")
            try:
                if get_json(self.url + "/health", timeout=2.0).get("status") == "ok":
                    return
            except (OSError, ValueError):
                time.sleep(0.05)
        raise RuntimeError("serve child did not become healthy")

    def stop(self) -> None:
        # Not SIGINT: a benchmark started as a background job inherits an
        # ignored SIGINT, and the child would sit out the whole timeout.
        # Every request has been answered by now, so nothing is lost.
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def serve_payload(run: RunSpec, request: SolveRequest) -> dict:
    return {
        "problem": run.problem, "scale": run.scale, "n_nodes": run.n_nodes,
        "with_reference": True, "request": request.to_dict(),
    }


def rung_serve(url: str, payloads: list[dict], clients: int, tracer: Tracer, tick=None):
    """Closed loop: a client sends its next request when its reply arrived.

    ``tick`` is for a single client, whose loop can stop between requests."""
    paused = 0.0
    latencies = [0.0] * len(payloads)
    replies: list = [None] * len(payloads)
    cursor = iter(range(len(payloads)))
    lock = threading.Lock()

    def client() -> None:
        nonlocal paused
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            payload = payloads[index]
            started = perf_counter()
            with tracer.span("serve.request", payload["request"]["label"]):
                try:
                    replies[index] = post_json(url + "/solve", payload)
                except (OSError, ValueError) as exc:
                    replies[index] = (0, {"error": repr(exc)})
            latencies[index] = perf_counter() - started
            if tick is not None:
                tick()
                paused += perf_counter() - started - latencies[index]

    start = perf_counter()
    threads = [threading.Thread(target=client) for _ in range(clients - 1)]
    for thread in threads:
        thread.start()
    client()
    for thread in threads:
        thread.join()
    return perf_counter() - start - paused, latencies, replies


def direct_reports(ops) -> dict:
    """What the service must answer, by run id: a direct solve on a
    session built the way ``SolverService`` builds its own (default cost
    model; its problem seed is the specs' 2020)."""
    sessions: dict = {}
    expected = {}
    for run, _session, request in ops:
        key = (run.problem, run.scale, run.n_nodes)
        if key not in sessions:
            sessions[key] = SolverSession.from_problem(
                run.problem, run.scale, n_nodes=run.n_nodes,
                problem_seed=run.problem_seed,
            )
        expected[run.run_id] = sessions[key].solve(request, with_reference=True)
    return expected


def check_replies(checks: Checks, where: str, payloads, replies, expected, digests) -> dict:
    """Judge one serve pass; returns the served reports by run id."""
    served = {}
    for payload, (status, body) in zip(payloads, replies):
        run_id = payload["request"]["label"]
        if status != 200:
            checks.op(False, f"{where}: {run_id} replied {status}: {body.get('error')}")
            continue
        checks.solved(where, run_id, body["report"])
        checks.require(verify_response(body), f"{where}: {run_id} fails verify_response")
        fingerprint, digest = body["request_fingerprint"], body["response_digest"]
        checks.require(
            digests.setdefault(fingerprint, digest) == digest,
            f"{where}: {run_id} equal fingerprints, different digests",
        )
        checks.require(
            body["report"] == expected[run_id],
            f"{where}: {run_id} served report != direct SolverSession.solve",
        )
        served[run_id] = body
    return served


# ----------------------------------------------------------------------- cli


def rung_cli(run: RunSpec, env: dict, tracer: Tracer):
    """Wall seconds of one one-shot ``repro solve`` process, and the process."""
    command = [
        sys.executable, "-m", "repro", "solve", "--problem", run.problem,
        "--scale", run.scale, "--nodes", str(run.n_nodes), "--strategy", "esrp",
        "-T", "20", "--phi", "1", "--preconditioner", run.preconditioner,
    ]
    started = perf_counter()
    with tracer.span("cli.solve"):
        done = subprocess.run(command, env=env, capture_output=True, text=True)
    return perf_counter() - started, done
