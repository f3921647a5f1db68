"""QueueStore: layout, lease protocol, claim races, status accounting."""

import concurrent.futures
import json
import threading

import pytest

from repro.campaign.spec import expand_spec
from repro.exceptions import ConfigurationError
from repro.queue import QueueStore, task_id_for

from .conftest import queue_spec

pytestmark = pytest.mark.campaign


@pytest.fixture
def store(spec, tmp_path) -> QueueStore:
    return QueueStore.submit(spec, tmp_path / "queue")


class TestSubmit:
    def test_one_task_file_per_run_in_expansion_order(self, spec, store):
        runs = expand_spec(spec)
        task_ids = store.task_ids()
        assert len(task_ids) == len(runs) == store.n_tasks
        assert task_ids == [task_id_for(i, run) for i, run in enumerate(runs)]
        assert [store.load_task(t).run for t in task_ids] == runs

    def test_spec_round_trips(self, spec, store):
        assert store.spec == spec
        assert store.spec_dict == spec.to_dict()

    def test_resubmit_refused(self, spec, store):
        with pytest.raises(ConfigurationError, match="already exists"):
            QueueStore.submit(spec, store.queue_dir)

    def test_unsubmitted_directory_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not a submitted queue"):
            QueueStore(tmp_path).task_ids()

    def test_unknown_layout_refused(self, store):
        payload = json.loads(store.spec_path.read_text())
        payload["version"] = 999
        store.spec_path.write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="layout version"):
            QueueStore(store.queue_dir).task_ids()


class TestShardedLayout:
    """Layout v3: per-shard task segments + the spec.json manifest."""

    def test_manifest_matches_segments_and_bounds(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "q", shard_size=3)
        shards = store.shards()
        assert all(shard.count <= 3 for shard in shards)
        assert sum(shard.count for shard in shards) == store.n_tasks
        # Shards tile the expansion order exactly, in order.
        next_index = 0
        for shard in shards:
            assert shard.first_index == next_index
            next_index = shard.end_index
        # One segment file per manifest entry, and nothing per-task.
        stems = sorted(p.stem for p in (tmp_path / "q" / "tasks").glob("*.seg"))
        assert stems == sorted(shard.key for shard in shards)
        assert not list((tmp_path / "q" / "tasks").glob("*.json"))

    def test_shards_are_configuration_pure(self, spec, tmp_path):
        from repro.queue import task_config

        store = QueueStore.submit(spec, tmp_path / "q", shard_size=2)
        for shard in store.shards():
            assert {
                task_config(task_id)
                for task_id in store.shard_task_ids(shard)
            } == {shard.config}

    def test_random_access_load_matches_streaming(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "q", shard_size=2)
        streamed = {task.task_id: task for task in store.iter_tasks()}
        assert set(streamed) == set(store.task_ids())
        # A fresh handle per lookup: load_task must not depend on any
        # state warmed by iter_tasks.
        for task_id, task in streamed.items():
            assert QueueStore(store.queue_dir).load_task(task_id) == task

    def test_unknown_task_rejected(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "q")
        with pytest.raises(ConfigurationError, match="unknown task"):
            store.load_task("999999-abcdef-0123456789")
        with pytest.raises(ConfigurationError, match="unknown task"):
            store.load_task("not-a-task")

    def test_shard_for_task_and_terminal_counts(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "q", shard_size=2)
        ids = store.task_ids()
        for task_id in ids:
            shard = store.shard_for_task(task_id)
            assert shard is not None
            assert task_id in store.shard_task_ids(shard)
        assert store.shard_for_task("999999-abcdef-0123456789") is None
        # Boundaries on a multi-shard store: each shard's first index
        # and end_index - 1 land in it; the last shard's end_index and
        # a malformed id land nowhere.
        shards = store.shards()
        assert len(shards) > 1
        for shard in shards:
            for index in (shard.first_index, shard.end_index - 1):
                probe = f"{index:06d}-{shard.config}-0123456789"
                assert store.shard_for_task(probe) == shard
        assert store.shard_for_task(
            f"{shards[-1].end_index:06d}-abcdef-0123456789"
        ) is None
        assert store.shard_for_task("not-a-task-id") is None
        counts = store.shard_terminal_counts(frozenset(ids[:3]))
        assert sum(counts.values()) == 3

    def test_manifest_footer_mismatch_detected(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "q", shard_size=2)
        payload = json.loads(store.spec_path.read_text())
        payload["shards"][0]["count"] += 1
        store.spec_path.write_text(json.dumps(payload))
        fresh = QueueStore(store.queue_dir)
        with pytest.raises(ConfigurationError, match="disagrees with the shard manifest"):
            fresh.shard_task_ids(fresh.shards()[0])

    def test_shard_size_validated(self, spec, tmp_path):
        with pytest.raises(ConfigurationError, match="shard_size"):
            QueueStore.submit(spec, tmp_path / "q", shard_size=0)


class TestClaim:
    def test_claims_follow_task_order(self, store):
        first = store.claim("w1", ttl=60)
        second = store.claim("w2", ttl=60)
        ids = store.task_ids()
        assert first.task_id == ids[0]
        assert second.task_id == ids[1]

    def test_drained_queue_claims_none(self, store):
        for _ in range(store.n_tasks):
            task = store.claim("w1", ttl=60)
            store.complete(task, "w1", store.append_record("w1", _record(task)))
        assert store.claim("w1", ttl=60) is None

    def test_live_lease_blocks_reclaim(self, store):
        task = store.claim("w1", ttl=60)
        others = {store.claim("w2", ttl=60).task_id for _ in range(store.n_tasks - 1)}
        assert task.task_id not in others
        assert store.claim("w2", ttl=60) is None  # everything is leased

    def test_expired_lease_is_reclaimed_on_claim(self, store):
        task = store.claim("w1", ttl=0.05)
        _wait_past(store, task.task_id)
        reclaimed_ids = [
            store.claim("w2", ttl=60).task_id for _ in range(store.n_tasks)
        ]
        assert task.task_id in reclaimed_ids  # w2 took over the dead claim
        lease = store.read_lease(task.task_id)
        assert lease is not None and lease.worker_id == "w2"
        tombstones = list((store.queue_dir / "reclaimed").iterdir())
        assert len(tombstones) == 1

    def test_two_workers_never_double_claim(self, spec, tmp_path):
        # Hammer one small store from many threads; every task must be
        # handed out exactly once (O_EXCL is the only arbiter).
        store = QueueStore.submit(
            queue_spec(name="race", repetitions=3), tmp_path / "race-queue"
        )
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(worker_id):
            own = QueueStore(store.queue_dir)  # independent handle
            while True:
                task = own.claim(worker_id, ttl=60)
                if task is None:
                    return
                with lock:
                    claimed.append(task.task_id)

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(drain, [f"w{i}" for i in range(8)]))
        assert sorted(claimed) == store.task_ids()  # no dupes, no gaps

    def test_racing_reclaim_of_one_expired_lease_has_one_winner(self, store):
        task = store.claim("dead", ttl=0.05)
        _wait_past(store, task.task_id)
        results = []

        def reclaim(worker_id):
            own = QueueStore(store.queue_dir)
            lease = own.read_lease(task.task_id)
            if lease is not None:
                results.append((worker_id, own._reclaim(task.task_id, lease, worker_id)))

        threads = [
            threading.Thread(target=reclaim, args=(f"w{i}",)) for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sum(1 for _, won in results if won) == 1


class TestHeartbeat:
    def test_heartbeat_renews_own_lease(self, store):
        task = store.claim("w1", ttl=60)
        before = store.read_lease(task.task_id)
        assert store.heartbeat(task.task_id, "w1")
        after = store.read_lease(task.task_id)
        assert after.heartbeat_at >= before.heartbeat_at
        assert after.claimed_at == before.claimed_at

    def test_heartbeat_reports_lost_lease(self, store):
        task = store.claim("w1", ttl=0.05)
        _wait_past(store, task.task_id)
        assert store.try_claim_task(task.task_id, "w2", ttl=60) is not None
        assert not store.heartbeat(task.task_id, "w1")

    def test_heartbeat_refuses_foreign_lease(self, store):
        task = store.claim("w1", ttl=60)
        assert not store.heartbeat(task.task_id, "w2")

    def test_release_refuses_foreign_lease(self, store):
        task = store.claim("w1", ttl=60)
        store.release(task.task_id, "w2")
        assert store.read_lease(task.task_id).worker_id == "w1"


class TestOutcomes:
    def test_complete_records_shard_and_releases(self, store):
        task = store.claim("w1", ttl=60)
        shard = store.append_record("w1", _record(task))
        outcome = store.complete(task, "w1", shard)
        assert outcome.status == "done" and outcome.shard == shard
        assert store.read_lease(task.task_id) is None
        assert store.is_terminal(task.task_id)
        assert store.read_outcome(task.task_id) == outcome

    def test_fail_records_error(self, store):
        task = store.claim("w1", ttl=60)
        outcome = store.fail(task, "w1", "ZeroDivisionError: boom")
        assert outcome.status == "failed" and "boom" in outcome.error
        assert store.is_terminal(task.task_id)

    def test_completed_task_is_never_reclaimed(self, store):
        task = store.claim("w1", ttl=60)
        shard = store.append_record("w1", _record(task))
        store.complete(task, "w1", shard)
        remaining = {store.claim("w2", ttl=60).task_id for _ in range(store.n_tasks - 1)}
        assert task.task_id not in remaining


class TestStatus:
    def test_counters_track_transitions(self, store):
        total = store.n_tasks
        assert store.status().to_dict() == {
            "total": total, "pending": total, "claimed": 0, "expired": 0,
            "done": 0, "failed": 0, "retried": 0, "workers": {},
        }
        task = store.claim("w1", ttl=60)
        assert store.status().claimed == 1
        shard = store.append_record("w1", _record(task))
        store.complete(task, "w1", shard)
        status = store.status(with_workers=True)
        assert (status.done, status.claimed, status.pending) == (1, 0, total - 1)
        assert status.workers == {"w1": 1}

    def test_expired_lease_counted_separately(self, store):
        store.claim("w1", ttl=0.05)
        _wait_any_expired(store)
        status = store.status()
        assert status.expired == 1 and status.claimed == 0
        assert status.pending == store.n_tasks - 1


def _record(task):
    """A cheap fake record for store-level tests (no solve needed)."""
    from repro.campaign.results import CampaignRunRecord

    run = task.run
    return CampaignRunRecord(
        run_id=run.run_id, problem=run.problem, scale=run.scale,
        n_nodes=run.n_nodes, preconditioner=run.preconditioner,
        strategy=run.strategy, T=run.T, phi=run.phi,
        scenario_kind=run.scenario.kind,
        scenario_params=dict(run.scenario.params),
        repetition=run.repetition, seed=run.seed, converged=True,
        iterations=5, executed_iterations=5, relative_residual=1e-9,
        modeled_time=1.0, recovery_time=0.0, reference_time=1.0,
        reference_iterations=5, total_overhead=0.0, recovery_overhead=0.0,
        n_failures=0, failure_iterations=(), solution_error=0.0,
    )


def _wait_past(store, task_id, timeout=5.0):
    """Busy-wait until the task's lease is expired."""
    import time

    deadline = time.time() + timeout
    while time.time() < deadline:
        lease = store.read_lease(task_id)
        if lease is None or lease.expired(time.time()):
            return
        time.sleep(0.01)
    raise AssertionError("lease never expired")


def _wait_any_expired(store, timeout=5.0):
    import time

    deadline = time.time() + timeout
    while time.time() < deadline:
        if store.status().expired:
            return
        time.sleep(0.01)
    raise AssertionError("no lease expired in time")
