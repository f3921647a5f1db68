"""Seeded chaos/property harness for the durable work queue.

One *schedule* is a randomized — but fully seeded and reproducible —
adversarial scenario driven against real worker subprocesses:

* **SIGKILL** — workers are killed at random points mid-sweep;
* **injected task failures** — a deterministic *fail-N-times* hook:
  selected runs raise on their first N execution attempts, where the
  attempt number is read from the store's retry ledger, so the failure
  pattern is exact regardless of which worker (or how many, or after
  how many crashes) executes the task;
* **lease expiry** — "ghost" claims that never heartbeat strand tasks
  behind soon-to-expire leases that survivors must reclaim;
* **mid-compaction kills** — workers compact aggressively with a
  widened publish→truncate window, so kills land inside compaction.

After every schedule the rescuer drains the queue and the harness
asserts the subsystem's whole contract at once:

* the collect is **byte-identical** to a serial run of the same spec
  (minus exactly the dead-lettered runs, when the schedule injects
  unrecoverable failures) — no record lost, none duplicated;
* the retry ledger holds **exactly** ``min(N, max_attempts)`` entries
  per injected run — crashes never masquerade as failures — and every
  entry carries the injected error;
* dead-letter markers exist for precisely the runs whose injected
  failure count reaches ``max_attempts``, with full provenance, and
  ``status`` reports them (never silently drops them).
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import random
import signal
import subprocess
import sys
import threading
import time

from repro.campaign.results import CampaignResult
from repro.campaign.spec import CampaignSpec, expand_spec
from repro.queue import QueueStore, collect, run_worker

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: Queue-wide retry bound used by every schedule (small enough that
#: seeded fail-counts regularly reach it and dead-letter).
MAX_ATTEMPTS = 2


class ChaosInjectedError(RuntimeError):
    """The deterministic failure raised by the fail-N-times hook."""


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """One seeded adversarial schedule."""

    seed: int
    n_workers: int
    #: Per worker: seconds after spawn to SIGKILL it (None = let live).
    kill_after: tuple[float | None, ...]
    #: Seconds each worker sleeps per task (widens the kill window).
    task_delay: float
    ttl: float
    #: Worker compaction cadence (None = no compaction this schedule).
    compact_every: int | None
    #: Seconds to stall between segment publish and shard truncate.
    compact_pause: float
    #: run_id -> fail the first N execution attempts.
    injected: dict[str, int]
    #: Tasks pre-claimed by ghosts whose leases must expire + reclaim.
    ghost_leases: int
    affine: bool
    #: Max tasks per task segment; small values force multiple
    #: shards per configuration group, exercising shard-wise claiming.
    shard_size: int = 1024

    @property
    def dead_runs(self) -> frozenset[str]:
        """Runs whose injected failures exhaust the retry budget."""
        return frozenset(
            run_id for run_id, n in self.injected.items() if n >= MAX_ATTEMPTS
        )


def make_plan(seed: int, spec: CampaignSpec) -> ChaosPlan:
    """Derive one schedule from a seed (pure function of the inputs)."""
    rng = random.Random(seed)
    run_ids = [run.run_id for run in expand_spec(spec)]
    n_workers = rng.choice((1, 2, 2, 3))
    kill_after = tuple(
        rng.uniform(0.2, 1.2) if rng.random() < 0.6 else None
        for _ in range(n_workers)
    )
    injected_ids = rng.sample(run_ids, k=rng.randint(0, min(3, len(run_ids))))
    injected = {
        run_id: rng.randint(1, MAX_ATTEMPTS) for run_id in injected_ids
    }
    compacting = rng.random() < 0.7
    return ChaosPlan(
        seed=seed,
        n_workers=n_workers,
        kill_after=kill_after,
        task_delay=rng.uniform(0.03, 0.1),
        ttl=rng.uniform(0.8, 1.5),
        compact_every=rng.choice((2, 3, 5)) if compacting else None,
        compact_pause=rng.uniform(0.01, 0.05) if compacting else 0.0,
        injected=injected,
        ghost_leases=rng.randint(0, 2),
        affine=rng.random() < 0.7,
        shard_size=rng.choice((3, 5, 1024)),
    )


def install_chaos_hooks(queue_dir, plan: ChaosPlan, task_delay: float):
    """Wrap the campaign executor with the schedule's failure injection.

    The fail-N-times hook is **ledger-driven**: a selected run raises
    while the store's retry ledger for its task holds fewer than N
    entries.  Attempts that never reach a ledger write (SIGKILLed
    mid-task) don't count — exactly like the retry protocol itself —
    so the end state is deterministic: the ledger ends with exactly
    ``min(N, max_attempts)`` injected failures no matter the schedule.

    Returns the original ``run_one`` so callers can restore it.
    """
    import repro.campaign.executor as executor_module

    store = QueueStore(queue_dir)
    task_by_run = {task.run_id: task.task_id for task in store.iter_tasks()}
    real_run_one = executor_module.run_one

    def chaotic_run_one(run):
        if task_delay:
            time.sleep(task_delay)
        budget = plan.injected.get(run.run_id, 0)
        if budget:
            attempts = len(store.read_retries(task_by_run[run.run_id]))
            if attempts < budget:
                raise ChaosInjectedError(
                    f"chaos-injected failure #{attempts + 1} for {run.run_id}"
                )
        return real_run_one(run)

    executor_module.run_one = chaotic_run_one
    if plan.compact_pause:
        QueueStore._compact_pause = plan.compact_pause
    return real_run_one


def restore_hooks(real_run_one) -> None:
    import repro.campaign.executor as executor_module

    executor_module.run_one = real_run_one
    QueueStore._compact_pause = 0.0


_CHILD_TEMPLATE = """
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {root!r})
from tests.queue.chaos import ChaosPlan, install_chaos_hooks
import json
plan = ChaosPlan(**json.loads({plan_json!r}))
install_chaos_hooks({queue!r}, plan, task_delay=plan.task_delay)
from repro.queue import run_worker
run_worker(
    {queue!r},
    worker_id={worker_id!r},
    ttl=plan.ttl,
    affine=plan.affine,
    compact_every=plan.compact_every,
)
"""


def _plan_json(plan: ChaosPlan) -> str:
    import json

    payload = dataclasses.asdict(plan)
    payload["kill_after"] = list(plan.kill_after)
    return json.dumps(payload)


def _spawn_chaos_worker(queue_dir, plan: ChaosPlan, index: int) -> subprocess.Popen:
    code = _CHILD_TEMPLATE.format(
        src=str(SRC),
        root=str(REPO_ROOT),
        plan_json=_plan_json(plan),
        queue=str(queue_dir),
        worker_id=f"chaos{index}",
    )
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def run_schedule(
    tmp_path: pathlib.Path,
    spec: CampaignSpec,
    serial: CampaignResult,
    plan: ChaosPlan,
) -> None:
    """Execute one schedule end to end and assert the queue contract."""
    queue_dir = tmp_path / f"chaos-{plan.seed}"
    store = QueueStore.submit(
        spec, queue_dir, max_attempts=MAX_ATTEMPTS, shard_size=plan.shard_size,
    )

    # Lease expiry: ghosts claim tasks and vanish without heartbeating.
    for index in range(plan.ghost_leases):
        store.claim(f"ghost{index}", ttl=min(plan.ttl, 1.0))

    # The storm: N real worker subprocesses, some SIGKILLed mid-sweep.
    procs = [
        _spawn_chaos_worker(queue_dir, plan, index)
        for index in range(plan.n_workers)
    ]
    started = time.monotonic()
    kills = sorted(
        (delay, index)
        for index, delay in enumerate(plan.kill_after)
        if delay is not None
    )
    for delay, index in kills:
        remaining = started + delay - time.monotonic()
        if remaining > 0:
            time.sleep(remaining)
        if procs[index].poll() is None:
            os.kill(procs[index].pid, signal.SIGKILL)
    for index, proc in enumerate(procs):
        _, stderr = proc.communicate(timeout=180)
        if plan.kill_after[index] is None:
            assert proc.returncode == 0, stderr.decode()

    # Recovery: a clean rescuer (still honouring the injection plan —
    # the fail-N budget is global, not per-worker) drains what's left,
    # waiting out stranded leases.
    real = install_chaos_hooks(queue_dir, plan, task_delay=0.0)
    try:
        run_worker(
            queue_dir,
            worker_id="rescuer",
            ttl=plan.ttl,
            wait=True,
            affine=plan.affine,
            compact_every=plan.compact_every,
        )
    finally:
        restore_hooks(real)

    _assert_contract(tmp_path, store, spec, serial, plan)


def legacy_heartbeat(store: QueueStore, task_id: str, worker_id: str) -> bool:
    """The pre-fix renewal: read the lease, then *rewrite the path*.

    Kept as the regression foil for the resurrection schedule below —
    between its ownership check and its ``_atomic_write_json`` a
    reclaimer can tombstone the lease and claim the task, after which
    this replace recreates the stalled worker's lease over the
    reclaimer's: the exact race :meth:`QueueStore.heartbeat` now
    prevents.
    """
    from repro.queue.store import _atomic_write_json

    lease = store.read_lease(task_id)
    if lease is None or lease.worker_id != worker_id:
        return False
    if store._heartbeat_pause:
        time.sleep(store._heartbeat_pause)
    _atomic_write_json(
        store.lease_path(task_id), lease.renewed(time.time()).to_dict()
    )
    return True


def run_resurrection_schedule(tmp_path, spec: CampaignSpec, renew) -> dict:
    """Deterministic heartbeat-vs-reclaim interleaving (the resurrection race).

    A "stalled" worker claims a task with a tiny TTL and goes silent
    past expiry.  Its renewal then runs with the store's
    ``_heartbeat_pause`` test hook widening the window between the
    renewal's ownership check and the renewal itself; mid-pause, a
    reclaimer tombstones the expired lease and claims the task.  The
    schedule reports what happened so callers can assert either
    direction:

    * ``renew=QueueStore.heartbeat`` (post-fix) — the renewal must
      return ``False`` and the reclaimer's lease must survive;
    * ``renew=legacy_heartbeat`` (pre-fix foil) — the renewal
      resurrects the stalled worker's lease over the reclaimer's,
      demonstrating the schedule really does reproduce the race.
    """
    queue_dir = tmp_path / "resurrection"
    store = QueueStore.submit(spec, queue_dir, max_attempts=MAX_ATTEMPTS)
    ttl = 0.2
    task = store.claim("stalled", ttl=ttl)
    assert task is not None
    time.sleep(ttl * 1.5)  # the stalled worker sleeps past its TTL

    outcome: dict = {}
    QueueStore._heartbeat_pause = 0.5
    try:
        renewal = threading.Thread(
            target=lambda: outcome.update(
                renewed=renew(store, task.task_id, "stalled")
            )
        )
        renewal.start()
        # Let the renewal pass its ownership check and enter the pause,
        # then reclaim + re-claim from a fresh handle (another process,
        # as far as the store is concerned).
        time.sleep(0.25)
        claimed = QueueStore(queue_dir).try_claim_task(
            task.task_id, "reclaimer", ttl=60
        )
        renewal.join(timeout=30)
    finally:
        QueueStore._heartbeat_pause = 0.0
    final = store.read_lease(task.task_id)
    return {
        "renewed": outcome.get("renewed"),
        "reclaimer_got_task": claimed is not None,
        "final_holder": final.worker_id if final is not None else None,
        "final_lease_live": final is not None and not final.expired(time.time()),
    }


def _assert_contract(tmp_path, store, spec, serial, plan: ChaosPlan) -> None:
    status = store.status()
    assert status.drained, f"schedule {plan.seed}: {status.render()}"

    # --- retry / dead-letter accounting matches the injection exactly.
    task_by_run = {task.run_id: task.task_id for task in store.iter_tasks()}
    dead_runs = plan.dead_runs
    failed_markers = {o.run_id: o for o in store.failed_outcomes()}
    assert set(failed_markers) == set(dead_runs), (
        f"schedule {plan.seed}: dead-letter set mismatch "
        f"({sorted(failed_markers)} != {sorted(dead_runs)})"
    )
    for run_id, budget in plan.injected.items():
        ledger = store.read_retries(task_by_run[run_id])
        expected = min(budget, MAX_ATTEMPTS)
        assert len(ledger) == expected, (
            f"schedule {plan.seed}: run {run_id} has {len(ledger)} ledger "
            f"entries, expected {expected}"
        )
        assert all("chaos-injected" in e["error"] for e in ledger)
        assert [e["attempt"] for e in ledger] == list(range(1, expected + 1))
    for run_id, task_id in task_by_run.items():
        if run_id not in plan.injected:
            # Crashes must never masquerade as failures.
            assert store.read_retries(task_id) == []
    assert status.retried == len(plan.injected)
    assert status.failed == len(dead_runs)
    for run_id, outcome in failed_markers.items():
        assert outcome.attempts == MAX_ATTEMPTS
        assert len(outcome.failure_log) == MAX_ATTEMPTS

    # --- the collect is byte-identical to serial (minus dead runs):
    # nothing lost, nothing duplicated, dedupe verified by equality.
    if dead_runs:
        merged = collect(store.queue_dir, allow_partial=True)
        expected_result = CampaignResult(
            spec=spec.to_dict(),
            records=[r for r in serial.records if r.run_id not in dead_runs],
        )
    else:
        merged = collect(store.queue_dir)
        expected_result = serial
    a = expected_result.to_json(tmp_path / f"expected-{plan.seed}.json")
    b = merged.to_json(tmp_path / f"collected-{plan.seed}.json")
    assert a.read_bytes() == b.read_bytes(), (
        f"schedule {plan.seed}: collect is not byte-identical to serial"
    )

    # --- compaction actually participated when the plan asked for it.
    # A killed worker may die before any cadence boundary, but the
    # rescuer is never killed: once *it* completed a full cadence of
    # records, its segments must exist.
    if plan.compact_every is not None:
        rescuer_done = sum(
            1 for o in store.outcomes()
            if o.status == "done" and o.worker_id == "rescuer"
        )
        if rescuer_done >= plan.compact_every:
            assert store.segment_paths("rescuer"), (
                f"schedule {plan.seed}: rescuer completed {rescuer_done} "
                "records but published no compacted segment"
            )
