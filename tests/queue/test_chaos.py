"""Chaos/property suite: randomized seeded schedules against the queue.

Each test case runs one :class:`~tests.queue.chaos.ChaosPlan` — a
seeded random composition of worker SIGKILLs, deterministic
fail-N-times task failures, never-heartbeating ghost leases and
aggressive (pause-widened) compaction — and asserts the queue's whole
contract afterwards: byte-identical collects, exact retry/dead-letter
accounting, no record lost or duplicated.  See
:mod:`tests.queue.chaos` for the harness.

The ``smoke`` subset is what CI's dedicated chaos step runs
(``pytest tests/queue/test_chaos.py -q -m smoke``); the full sweep
(25 schedules) runs in the regular tier-1 suite.
"""

import pytest

from repro.campaign import execute_campaign
from repro.queue import QueueStore

from .chaos import (
    legacy_heartbeat,
    make_plan,
    run_resurrection_schedule,
    run_schedule,
)
from .conftest import queue_spec

pytestmark = [pytest.mark.campaign, pytest.mark.integration, pytest.mark.slow]

#: The sweep every schedule is driven against: two configuration
#: groups (affine chunks matter), 16 tasks (2 strategies x 2 scenarios
#: x 2 preconditioners x 2 repetitions — enough mid-sweep surface for
#: kills), all tiny (fast solves; the injected per-task delay is what
#: widens the kill window).
CHAOS_SPEC = queue_spec(
    name="chaos",
    preconditioners=("block_jacobi", "jacobi"),
    repetitions=2,
)

#: Seeds whose schedules run in the CI smoke step.
SMOKE_SEEDS = tuple(range(3))
#: The remaining schedules of the >= 25 required locally.
FULL_SEEDS = tuple(range(3, 25))


@pytest.fixture(scope="module")
def serial_result():
    return execute_campaign(CHAOS_SPEC, workers=0)


@pytest.mark.smoke
@pytest.mark.parametrize("seed", SMOKE_SEEDS)
def test_chaos_schedule_smoke(seed, serial_result, tmp_path):
    run_schedule(tmp_path, CHAOS_SPEC, serial_result, make_plan(seed, CHAOS_SPEC))


@pytest.mark.parametrize("seed", FULL_SEEDS)
def test_chaos_schedule(seed, serial_result, tmp_path):
    run_schedule(tmp_path, CHAOS_SPEC, serial_result, make_plan(seed, CHAOS_SPEC))


@pytest.mark.smoke
def test_heartbeat_cannot_resurrect_a_reclaimed_lease(tmp_path):
    # The pause-widened heartbeat-vs-reclaim interleaving: the stalled
    # worker's renewal lands strictly after a reclaimer tombstoned its
    # expired lease and claimed the task.  The renewal must report the
    # lease lost and leave the reclaimer's claim untouched.
    def renew(store, task_id, worker_id):
        return store.heartbeat(task_id, worker_id)

    outcome = run_resurrection_schedule(tmp_path, CHAOS_SPEC, renew)
    assert outcome["reclaimer_got_task"]
    assert outcome["renewed"] is False
    assert outcome["final_holder"] == "reclaimer"
    assert outcome["final_lease_live"]


@pytest.mark.smoke
def test_resurrection_schedule_catches_the_legacy_heartbeat(tmp_path):
    # The same schedule driven through the pre-fix read-then-replace
    # renewal must reproduce the race: the stalled worker resurrects
    # its lease over the reclaimer's.  This pins the schedule itself —
    # if it stops being able to demonstrate the bug, it is no longer
    # guarding the fix.
    outcome = run_resurrection_schedule(tmp_path, CHAOS_SPEC, legacy_heartbeat)
    assert outcome["reclaimer_got_task"]
    assert outcome["renewed"] is True
    assert outcome["final_holder"] == "stalled"
