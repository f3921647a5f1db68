"""Queue hardening: configuration-affine claiming, spool compaction,
retry ledger mechanics, and the adversarial-filesystem gate."""

import json

import pytest

from repro.campaign import StrategySpec, execute_campaign
from repro.campaign.spec import expand_spec
from repro.exceptions import ConfigurationError
from repro.queue import (
    QueueStore,
    QueueWorker,
    UNSAFE_LINK_ENV,
    collect,
    config_digest,
    iter_segment_records,
    run_worker,
    task_config,
    task_id_for,
)
from repro.queue.segment import read_footer

from .conftest import fake_record, queue_spec

pytestmark = pytest.mark.campaign


def multi_config_spec(**overrides):
    """Two preconditioners -> two configuration groups (8 tasks)."""
    return queue_spec(
        name="affine-unit",
        preconditioners=("block_jacobi", "jacobi"),
        **overrides,
    )


@pytest.fixture
def multi_store(tmp_path) -> QueueStore:
    return QueueStore.submit(multi_config_spec(), tmp_path / "queue")


class TestTaskIdConfigDigest:
    def test_task_ids_embed_the_config_digest(self, multi_store):
        for task in multi_store.iter_tasks():
            assert task_config(task.task_id) == config_digest(task.run.config_key)

    def test_shards_are_contiguous_and_complete(self, multi_store):
        # At the default shard size each configuration is one shard.
        shards = multi_store.shards()
        assert len({shard.config for shard in shards}) == len(shards) == 2
        flattened = [
            t for shard in shards for t in multi_store.shard_task_ids(shard)
        ]
        assert flattened == [  # contiguous spans, in expansion order
            task_id_for(index, run)
            for index, run in enumerate(expand_spec(multi_config_spec()))
        ]
        for shard in shards:
            assert {
                task_config(t) for t in multi_store.shard_task_ids(shard)
            } == {shard.config}

    def test_malformed_task_id_rejected(self):
        with pytest.raises(ConfigurationError, match="malformed task id"):
            task_config("000001-deadbeef")


class TestAffineClaiming:
    def test_single_worker_drains_configuration_contiguously(self, multi_store):
        worker = QueueWorker(multi_store, worker_id="w1", ttl=60)
        claimed = []
        while True:
            task = worker._next_task()
            if task is None:
                break
            claimed.append(task.task_id)
            shard = multi_store.append_record("w1", fake_record(task))
            multi_store.complete(task, "w1", shard)
        assert sorted(claimed) == multi_store.task_ids()
        configs = [task_config(t) for t in claimed]
        # Never returns to an earlier configuration: contiguous chunks.
        seen, order = set(), []
        for config in configs:
            if config not in seen:
                seen.add(config)
                order.append(config)
        assert len(order) == 2
        assert configs == sorted(configs, key=order.index)

    def test_second_worker_avoids_foreign_active_configuration(self, multi_store):
        first = QueueWorker(multi_store, worker_id="w1", ttl=60)
        task_a = first._next_task()  # leases the first task of group 1
        second = QueueWorker(multi_store, worker_id="w2", ttl=60)
        task_b = second._next_task()
        assert task_a is not None and task_b is not None
        assert task_config(task_b.task_id) != task_config(task_a.task_id)

    def test_tail_stealing_when_every_group_is_foreign_active(self, tmp_path):
        # One configuration left, another worker active in it: an
        # affine worker must steal rather than idle.
        store = QueueStore.submit(queue_spec(), tmp_path / "queue")
        first = QueueWorker(store, worker_id="w1", ttl=60)
        assert first._next_task() is not None  # w1 active in the only group
        second = QueueWorker(store, worker_id="w2", ttl=60)
        stolen = second._next_task()
        assert stolen is not None  # stole from the foreign-active group

    def test_non_affine_mode_claims_in_scan_order(self, multi_store):
        worker = QueueWorker(multi_store, worker_id="w1", ttl=60, affine=False)
        task = worker._next_task()
        assert task.task_id == multi_store.task_ids()[0]

    def test_affine_and_scan_order_collects_are_byte_identical(self, tmp_path):
        spec = multi_config_spec()
        serial = execute_campaign(spec, workers=0)
        paths = {}
        for mode, affine in (("affine", True), ("scan", False)):
            queue_dir = tmp_path / f"queue-{mode}"
            QueueStore.submit(spec, queue_dir)
            run_worker(queue_dir, worker_id="w1", affine=affine)
            paths[mode] = collect(queue_dir).to_json(tmp_path / f"{mode}.json")
        expected = serial.to_json(tmp_path / "serial.json").read_bytes()
        assert paths["affine"].read_bytes() == expected
        assert paths["scan"].read_bytes() == expected


def affinity_spec(repetitions):
    """2 problems x 2 preconditioners -> 4 configuration groups, 8 tasks
    per repetition (failure-free + worst-case per group)."""
    return queue_spec(
        name="queue-affinity",
        problems=(("emilia_923_like", "tiny"), ("poisson3d", "tiny")),
        n_nodes=8,
        preconditioners=("block_jacobi", "jacobi"),
        strategies=(StrategySpec("esr"),),
        repetitions=repetitions,
    )


def config_spread(store: QueueStore) -> int:
    """Total (worker, configuration) warm-ups paid during the drain."""
    per_worker: dict[str, set[str]] = {}
    for outcome in store.outcomes():
        if outcome.status == "done":
            per_worker.setdefault(outcome.worker_id, set()).add(
                task_config(outcome.task_id)
            )
    return sum(len(configs) for configs in per_worker.values())


class TestAffinitySpread:
    @staticmethod
    def alternating_drain(store, affine):
        """Two workers in strict turns; each holds its lease across the
        other's turn, then completes it and claims the next task."""
        workers = [
            QueueWorker(store, worker_id=f"w{i}", ttl=600, affine=affine)
            for i in (1, 2)
        ]
        held = [None, None]
        while True:
            for turn, worker in enumerate(workers):
                if held[turn] is not None:
                    task = held[turn]
                    shard = store.append_record(
                        worker.worker_id, fake_record(task)
                    )
                    store.complete(task, worker.worker_id, shard)
                held[turn] = worker._next_task()
            if held == [None, None]:
                break
        assert store.status().drained
        return config_spread(store)

    def test_two_workers_warm_each_configuration_once(self, tmp_path):
        spec = affinity_spec(1)
        n_configs = len({run.config_key for run in expand_spec(spec)})
        assert (n_configs, len(expand_spec(spec))) == (4, 8)
        spreads = {
            mode: self.alternating_drain(
                QueueStore.submit(spec, tmp_path / mode), affine
            )
            for mode, affine in (("affine", True), ("scan", False))
        }
        # Exact pins, not the bound n_configs + 2 * (workers - 1) = 6:
        # a drain without foreign-config avoidance can read 5.
        assert spreads == {"affine": n_configs, "scan": 2 * n_configs}


class TestClaimScanCost:
    @pytest.mark.parametrize("n_tasks, n_shards", [(1000, 4), (5000, 8)])
    def test_claims_read_one_shard_footer(
        self, tmp_path, monkeypatch, n_tasks, n_shards
    ):
        queue_dir = tmp_path / "queue"
        QueueStore.submit(affinity_spec(n_tasks // 8), queue_dir)
        calls = {"_shard_footer": 0, "shard_task_ids": 0}
        for name in calls:
            original = getattr(QueueStore, name)

            def counting(self, shard, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, shard)

            monkeypatch.setattr(QueueStore, name, counting)
        store = QueueStore(queue_dir)
        assert (store.n_tasks, len(store.shards())) == (n_tasks, n_shards)
        worker = QueueWorker(store, worker_id="probe", ttl=600)
        claimed = [worker._next_task() for _ in range(64)]
        assert all(task is not None for task in claimed)
        # O(shards) selection: only the chosen shard's ids are loaded.
        assert calls == {"_shard_footer": 1, "shard_task_ids": 1}


class TestScanReuse:
    def test_progress_scans_are_pinned_to_chunk_boundaries(self, multi_store):
        # The progress/ETA snapshot must reuse the chunk claim's
        # directory scan: one scan per chunk selection (2 groups + the
        # final nothing-left probe), never one per task.
        scans = 0
        real_status = multi_store.status

        def counting_status(*args, **kwargs):
            nonlocal scans
            scans += 1
            return real_status(*args, **kwargs)

        multi_store.status = counting_status
        seen = []
        worker = QueueWorker(
            multi_store, worker_id="w1", status_interval=3600.0,
            progress=lambda summary, status, record: seen.append(status.done),
        )

        import repro.campaign.executor as executor_module
        real_run_one = executor_module.run_one
        try:
            executor_module.run_one = lambda run: fake_record(
                multi_store.load_task(
                    next(
                        t for t in multi_store.task_ids()
                        if multi_store.load_task(t).run_id == run.run_id
                    )
                )
            )
            worker.run()
        finally:
            executor_module.run_one = real_run_one
        assert scans == len(multi_store.shards()) + 1
        assert seen == list(range(1, multi_store.n_tasks + 1))


class TestCompaction:
    def test_worker_compacts_and_collect_streams_segments(self, spec, tmp_path):
        serial = execute_campaign(spec, workers=0)
        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(spec, queue_dir)
        run_worker(queue_dir, worker_id="w1", compact_every=2)
        segments = store.segment_paths()
        assert len(segments) == store.n_tasks // 2
        # The shard holds only the residual tail (< compact_every).
        residual = store.shard_path("w1").read_text().splitlines()
        assert len(residual) < 2
        merged = collect(queue_dir)
        a = serial.to_json(tmp_path / "serial.json")
        b = merged.to_json(tmp_path / "queued.json")
        assert a.read_bytes() == b.read_bytes()

    def test_segment_layout_round_trips(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue")
        tasks = list(store.iter_tasks())
        records = {}
        for task in tasks:
            store.append_record("w1", fake_record(task))
            records[task.run_id] = fake_record(task)
        path = store.compact_shard("w1")
        footer = read_footer(path)
        assert footer["count"] == len(tasks)
        assert footer["worker_id"] == "w1"
        loaded = list(iter_segment_records(path))
        assert [r.run_id for r in loaded] == sorted(records)  # sorted by run id
        assert all(records[r.run_id] == r for r in loaded)
        assert store.shard_path("w1").stat().st_size == 0  # truncated

    def test_empty_shard_compacts_to_nothing(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue")
        assert store.compact_shard("w1") is None
        store.shard_path("w1").write_bytes(b'{"torn": "frag')  # only a torn tail
        assert store.compact_shard("w1") is None

    def test_crash_between_segment_publish_and_truncate_is_deduped(
        self, spec, tmp_path
    ):
        # The mid-compaction crash window: the segment is published but
        # the shard survives untruncated -> every record exists twice.
        serial = execute_campaign(spec, workers=0)
        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(spec, queue_dir)
        run_worker(queue_dir, worker_id="w1")
        shard_bytes = store.shard_path("w1").read_bytes()
        store.compact_shard("w1")
        store.shard_path("w1").write_bytes(shard_bytes)  # "crash" undid truncate
        merged = collect(queue_dir)
        a = serial.to_json(tmp_path / "serial.json")
        b = merged.to_json(tmp_path / "merged.json")
        assert a.read_bytes() == b.read_bytes()

    def test_corrupt_segment_trailer_is_rejected(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue")
        task = next(store.iter_tasks())
        store.append_record("w1", fake_record(task))
        path = store.compact_shard("w1")
        path.write_bytes(path.read_bytes()[:-2])  # clip the magic
        with pytest.raises(ConfigurationError, match="segment trailer"):
            list(iter_segment_records(path))

    def test_conflicting_duplicate_across_segment_and_shard_rejected(
        self, spec, tmp_path
    ):
        store = QueueStore.submit(spec, tmp_path / "queue")
        task = next(store.iter_tasks())
        store.append_record("w1", fake_record(task))
        store.compact_shard("w1")
        import dataclasses

        mutated = dataclasses.replace(fake_record(task), iterations=99)
        store.append_record("w2", mutated)
        with pytest.raises(ConfigurationError, match="conflicting duplicate"):
            collect(tmp_path / "queue", allow_partial=True)


class TestRetryLedger:
    def test_record_failure_requeues_until_the_bound(self, spec, tmp_path):
        # retry_backoff=0 so the re-claims below need not sleep the
        # backoff window out (it has its own tests).
        store = QueueStore.submit(
            spec, tmp_path / "queue", max_attempts=3, retry_backoff=0.0
        )
        task = store.claim("w1", ttl=60)
        assert store.record_failure(task, "w1", "boom #1") is None
        assert store.read_lease(task.task_id) is None  # released, claimable
        assert not store.is_terminal(task.task_id)
        task2 = store.try_claim_task(task.task_id, "w2", ttl=60)
        assert task2 is not None
        assert store.record_failure(task2, "w2", "boom #2") is None
        task3 = store.try_claim_task(task.task_id, "w3", ttl=60)
        outcome = store.record_failure(task3, "w3", "boom #3")
        assert outcome is not None and outcome.status == "failed"
        assert outcome.attempts == 3
        assert [e["worker_id"] for e in outcome.failure_log] == ["w1", "w2", "w3"]
        assert store.is_terminal(task.task_id)
        # Dead tasks are never claimable again.
        assert store.try_claim_task(task.task_id, "w4", ttl=60) is None

    def test_interrupted_dead_letter_is_finalised_on_claim(self, spec, tmp_path):
        # A worker can die between the final ledger write and the
        # dead-letter marker; the next claimer must finalise the
        # dead-letter instead of burning an extra attempt.
        from repro.queue.store import _atomic_write_json

        store = QueueStore.submit(spec, tmp_path / "queue", max_attempts=2)
        task = store.claim("w1", ttl=60)
        store.release(task.task_id, "w1")
        attempts = [
            {"attempt": 1, "worker_id": "w1", "error": "boom #1", "at": 0.0},
            {"attempt": 2, "worker_id": "w2", "error": "boom #2", "at": 0.0},
        ]
        _atomic_write_json(
            store.retries_path(task.task_id),
            {"task_id": task.task_id, "run_id": task.run_id, "attempts": attempts},
        )
        assert store.try_claim_task(task.task_id, "w3", ttl=60) is None
        outcome = store.read_outcome(task.task_id)
        assert outcome is not None and outcome.status == "failed"
        assert outcome.attempts == 2
        assert "boom #2" in outcome.error

    def test_max_attempts_one_dead_letters_immediately(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue", max_attempts=1)
        task = store.claim("w1", ttl=60)
        outcome = store.record_failure(task, "w1", "boom")
        assert outcome is not None and outcome.attempts == 1

    def test_submit_rejects_non_positive_max_attempts(self, spec, tmp_path):
        with pytest.raises(ConfigurationError, match="max_attempts"):
            QueueStore.submit(spec, tmp_path / "queue", max_attempts=0)

    def test_max_attempts_round_trips_through_spec_json(self, spec, tmp_path):
        QueueStore.submit(spec, tmp_path / "queue", max_attempts=5)
        assert QueueStore(tmp_path / "queue").max_attempts == 5


class TestUnsafeLinkGate:
    def test_declared_adversarial_filesystem_refuses_claims(
        self, spec, tmp_path, monkeypatch
    ):
        store = QueueStore.submit(spec, tmp_path / "queue")
        monkeypatch.setenv(UNSAFE_LINK_ENV, "1")
        with pytest.raises(ConfigurationError, match="NFSv2"):
            store.claim("w1", ttl=60)
        monkeypatch.setenv(UNSAFE_LINK_ENV, "0")
        assert store.claim("w1", ttl=60) is not None


class TestStatusGoldenShape:
    def test_status_json_shape_with_retry_counters(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        import repro.campaign.executor as executor_module

        spec = queue_spec()
        queue_dir = tmp_path / "queue"
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec.to_dict()))
        assert main([
            "campaign", "submit", "--queue", str(queue_dir),
            "--spec", str(spec_file), "--max-attempts", "2",
        ]) == 0
        store = QueueStore(queue_dir)
        assert store.max_attempts == 2
        poisoned_run = store.load_task(store.task_ids()[0]).run_id
        real_run_one = executor_module.run_one

        def exploding(run):
            if run.run_id == poisoned_run:
                raise ZeroDivisionError("injected fault")
            return real_run_one(run)

        monkeypatch.setattr(executor_module, "run_one", exploding)
        capsys.readouterr()
        assert main([
            "campaign", "worker", "--queue", str(queue_dir), "--id", "w1",
            "--quiet",
        ]) == 1  # dead-lettered task -> non-zero exit
        capsys.readouterr()
        assert main(["campaign", "status", "--queue", str(queue_dir), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        # The golden machine-readable shape (retry counters included).
        assert sorted(payload) == [
            "claimed", "done", "expired", "failed", "pending",
            "retried", "total", "workers",
        ]
        assert payload["failed"] == 1      # dead-lettered
        assert payload["retried"] == 1     # the ledger saw the task
        assert payload["done"] == store.n_tasks - 1
        assert payload["workers"] == {"w1": store.n_tasks - 1}

    def test_partial_collect_round_trips_through_merge(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.campaign import CampaignResult
        from repro.cli import main
        import repro.campaign.executor as executor_module

        spec = queue_spec()
        serial = execute_campaign(spec, workers=0)
        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(spec, queue_dir, max_attempts=2)
        poisoned_run = store.load_task(store.task_ids()[1]).run_id
        real_run_one = executor_module.run_one

        def exploding(run):
            if run.run_id == poisoned_run:
                raise ZeroDivisionError("injected fault")
            return real_run_one(run)

        monkeypatch.setattr(executor_module, "run_one", exploding)
        run_worker(queue_dir, worker_id="w1")
        out = tmp_path / "partial.json"
        assert main([
            "campaign", "collect", "--queue", str(queue_dir),
            "--out", str(out), "--allow-partial", "--quiet",
        ]) == 0
        stdout = capsys.readouterr().out
        assert "DEAD-LETTERED after 2 attempt(s)" in stdout
        assert poisoned_run in stdout

        partial = CampaignResult.from_json(out)
        assert len(partial.records) == store.n_tasks - 1
        assert all(r.run_id != poisoned_run for r in partial.records)
        # Round-trip: merging the partial records with a serial run of
        # the same spec reproduces the full result byte-for-byte (the
        # overlap deduplicates by verified equality).
        merged = CampaignResult.merge(
            spec=spec.to_dict(), parts=[partial.records, serial.records]
        )
        a = serial.to_json(tmp_path / "serial.json")
        b = merged.to_json(tmp_path / "merged.json")
        assert a.read_bytes() == b.read_bytes()


class TestRunSpecConfigKey:
    def test_config_key_is_the_session_defining_prefix(self):
        runs = expand_spec(multi_config_spec())
        for run in runs:
            assert run.run_id.startswith(run.config_key + ":")
            assert run.config_key == (
                f"{run.problem}:{run.scale}:n{run.n_nodes}:{run.preconditioner}"
            )
        assert len({run.config_key for run in runs}) == 2


class TestRetryBackoff:
    def test_failed_attempt_records_retry_after_and_blocks_claims(
        self, spec, tmp_path
    ):
        import time

        store = QueueStore.submit(
            spec, tmp_path / "queue", max_attempts=3, retry_backoff=0.2
        )
        task = store.claim("w1", ttl=60)
        before = time.time()
        assert store.record_failure(task, "w1", "boom") is None
        (entry,) = store.read_retries(task.task_id)
        # Jittered exponential: base * 2**0 * uniform(1, 2).
        assert before + 0.2 <= entry["retry_after"] <= time.time() + 0.4
        # Inside the window the task is pending but not claimable...
        assert store.try_claim_task(task.task_id, "w2", ttl=60) is None
        assert store.read_lease(task.task_id) is None  # ...and released
        # ...and claimable again once the window passes.
        time.sleep(max(0.0, entry["retry_after"] - time.time()) + 0.01)
        assert store.try_claim_task(task.task_id, "w2", ttl=60) is not None

    def test_zero_backoff_requeues_immediately(self, spec, tmp_path):
        store = QueueStore.submit(
            spec, tmp_path / "queue", max_attempts=3, retry_backoff=0.0
        )
        task = store.claim("w1", ttl=60)
        assert store.record_failure(task, "w1", "boom") is None
        assert store.try_claim_task(task.task_id, "w2", ttl=60) is not None

    def test_backoff_round_trips_through_spec_json(self, spec, tmp_path):
        QueueStore.submit(spec, tmp_path / "queue", retry_backoff=0.75)
        assert QueueStore(tmp_path / "queue").retry_backoff == 0.75

    def test_submit_rejects_negative_backoff(self, spec, tmp_path):
        with pytest.raises(ConfigurationError, match="retry_backoff"):
            QueueStore.submit(spec, tmp_path / "queue", retry_backoff=-0.1)

    def test_worker_polls_through_the_backoff_window(
        self, spec, tmp_path, monkeypatch
    ):
        # A wait=False worker must not abandon a non-drained queue just
        # because its only remaining task is sitting out a backoff.
        import repro.campaign.executor as executor_module

        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(spec, queue_dir, max_attempts=2)
        flaky_run = store.load_task(store.task_ids()[0]).run_id
        real_run_one = executor_module.run_one

        def flaky(run):
            if (
                run.run_id == flaky_run
                and not store.read_retries(store.task_ids()[0])
            ):
                raise ZeroDivisionError("transient fault")
            return real_run_one(run)

        monkeypatch.setattr(executor_module, "run_one", flaky)
        summary = run_worker(queue_dir, worker_id="w1")
        assert summary.retried == 1 and summary.failed == 0
        assert summary.done == store.n_tasks
        assert store.status().drained


class TestRetryDeadLetters:
    def test_resurrection_preserves_provenance_and_requeues(
        self, spec, tmp_path
    ):
        store = QueueStore.submit(spec, tmp_path / "queue", max_attempts=1)
        task = store.claim("w1", ttl=60)
        assert store.record_failure(task, "w1", "boom") is not None
        assert store.is_terminal(task.task_id)

        resurrected = store.retry_dead_letters(requeued_by="operator")
        assert [o.task_id for o in resurrected] == [task.task_id]
        # Claimable again, with a fresh attempt budget.
        assert not store.is_terminal(task.task_id)
        assert store.read_retries(task.task_id) == []
        assert store.try_claim_task(task.task_id, "w2", ttl=60) is not None
        # Full provenance survives as an audit manifest.
        manifest = json.loads(
            (store.manifests_dir() / f"{task.task_id}.00.json").read_text()
        )
        assert manifest["requeued_by"] == "operator"
        assert manifest["outcome"]["status"] == "failed"
        assert manifest["outcome"]["error"] == "boom"
        assert [e["error"] for e in manifest["ledger"]] == ["boom"]

    def test_repeated_resurrections_get_sequenced_manifests(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue", max_attempts=1)
        for round_no in range(2):
            task = store.try_claim_task(store.task_ids()[0], "w1", ttl=60)
            assert store.record_failure(task, "w1", f"boom #{round_no}") is not None
            assert len(store.retry_dead_letters()) == 1
        names = sorted(p.name for p in store.manifests_dir().glob("*.json"))
        task_id = store.task_ids()[0]
        assert names == [f"{task_id}.00.json", f"{task_id}.01.json"]

    def test_gapped_manifest_sequence_never_clobbers(self, spec, tmp_path):
        # Regression: the next manifest sequence number must be
        # max-existing + 1, never the file *count*.  With task.00 and
        # task.02 on disk (an operator pruned task.01), counting would
        # allocate "02" and silently overwrite the surviving manifest.
        store = QueueStore.submit(spec, tmp_path / "queue", max_attempts=1)
        task = store.try_claim_task(store.task_ids()[0], "w1", ttl=60)
        assert store.record_failure(task, "w1", "boom") is not None
        preexisting = {
            f"{task.task_id}.00.json": '{"marker": "zero"}\n',
            f"{task.task_id}.02.json": '{"marker": "two"}\n',
        }
        for name, body in preexisting.items():
            (store.manifests_dir() / name).write_text(body)

        assert len(store.retry_dead_letters()) == 1

        names = sorted(p.name for p in store.manifests_dir().glob("*.json"))
        assert names == sorted(preexisting) + [f"{task.task_id}.03.json"]
        for name, body in preexisting.items():
            assert (store.manifests_dir() / name).read_text() == body

    def test_no_dead_letters_is_a_no_op(self, spec, tmp_path):
        store = QueueStore.submit(spec, tmp_path / "queue")
        assert store.retry_dead_letters() == []

    def test_end_to_end_fix_retry_collect(self, tmp_path, monkeypatch):
        # Dead-letter under a bug, "fix" it, resurrect, drain, collect:
        # the final result must match the serial run exactly.
        import repro.campaign.executor as executor_module

        spec = queue_spec()
        serial = execute_campaign(spec, workers=0)
        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(queue_dir=queue_dir, spec=spec, max_attempts=1)
        poisoned_run = store.load_task(store.task_ids()[0]).run_id
        real_run_one = executor_module.run_one

        def exploding(run):
            if run.run_id == poisoned_run:
                raise ZeroDivisionError("injected fault")
            return real_run_one(run)

        monkeypatch.setattr(executor_module, "run_one", exploding)
        run_worker(queue_dir, worker_id="w1")
        assert len(store.failed_outcomes()) == 1

        monkeypatch.setattr(executor_module, "run_one", real_run_one)  # the fix
        assert len(store.retry_dead_letters()) == 1
        run_worker(queue_dir, worker_id="w1b")
        assert store.status().drained and not store.failed_outcomes()
        merged = collect(queue_dir)
        a = serial.to_json(tmp_path / "serial.json").read_bytes()
        b = merged.to_json(tmp_path / "merged.json").read_bytes()
        assert a == b

    def test_cli_campaign_retry(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main
        import repro.campaign.executor as executor_module

        spec = queue_spec()
        queue_dir = tmp_path / "queue"
        store = QueueStore.submit(spec, queue_dir, max_attempts=1)
        poisoned_run = store.load_task(store.task_ids()[0]).run_id
        real_run_one = executor_module.run_one

        def exploding(run):
            if run.run_id == poisoned_run:
                raise ZeroDivisionError("injected fault")
            return real_run_one(run)

        monkeypatch.setattr(executor_module, "run_one", exploding)
        main(["campaign", "worker", "--queue", str(queue_dir), "--quiet"])
        capsys.readouterr()
        assert main(["campaign", "retry", "--queue", str(queue_dir)]) == 0
        out = capsys.readouterr().out
        assert "1 task(s)" in out and poisoned_run in out
        assert not store.failed_outcomes()
        # Nothing to do the second time around.
        assert main(["campaign", "retry", "--queue", str(queue_dir)]) == 0
        assert "no dead-lettered tasks" in capsys.readouterr().out


class TestAtomicWriteConcurrency:
    def test_same_pid_threads_never_collide_on_temp_names(self, tmp_path):
        # Pre-fix temp names were .{name}.tmp.{pid}: a heartbeat thread
        # and its worker's main thread replacing the same target raced
        # each other's temp file (FileNotFoundError from os.replace).
        import threading

        from repro.queue.store import _atomic_write_json

        target = tmp_path / "shared.json"
        errors = []

        def hammer(thread_no):
            try:
                for i in range(200):
                    _atomic_write_json(target, {"thread": thread_no, "i": i})
            except OSError as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(n,)) for n in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        payload = json.loads(target.read_text())
        assert set(payload) == {"thread", "i"}  # some complete write won
        assert list(tmp_path.glob(".*tmp*")) == []  # no temp litter


class TestWorkerSummaryEta:
    def test_abandoned_attempts_count_toward_seconds_per_task(self):
        from repro.queue import WorkerSummary

        summary = WorkerSummary(
            worker_id="w1", done=2, abandoned=2, busy_seconds=8.0
        )
        assert summary.seconds_per_task == 2.0

    def test_no_attempts_means_no_estimate(self):
        from repro.queue import WorkerSummary

        assert WorkerSummary(worker_id="w1").seconds_per_task is None


class TestHeartbeatThreadRobustness:
    def test_invalid_lease_json_does_not_kill_the_heartbeat(
        self, spec, tmp_path, caplog
    ):
        # A transiently corrupt lease read surfaces as
        # ConfigurationError; the heartbeat thread must log once,
        # keep ticking, and resume renewing once the lease is
        # readable again.
        import logging
        import time

        from repro.queue.worker import _HeartbeatThread

        store = QueueStore.submit(spec, tmp_path / "queue")
        task = store.claim("w1", ttl=60)
        lease_path = store.lease_path(task.task_id)
        good = lease_path.read_text()
        lease_path.write_text("{half a lease")

        thread = _HeartbeatThread(store, task.task_id, "w1", every=0.02)
        with caplog.at_level(logging.WARNING, logger="repro.queue.worker"):
            thread.start()
            time.sleep(0.2)
            assert thread.is_alive() and not thread.lost
            lease_path.write_text(good)
            time.sleep(0.1)
            thread.stop()
        assert not thread.lost
        warnings = [
            r for r in caplog.records if "ConfigurationError" in r.getMessage()
        ]
        assert len(warnings) == 1  # logged once, not once per tick
