"""Layout-2 queues: refused on open, converted once by ``migrate``.

The checked-in fixture queue (``tests/queue/fixtures/v2-queue``) was
created by the layout-2 ``submit`` (one JSON file per task) and is never
regenerated: it pins that a queue submitted by an older build converts
to task segments byte-identical to a fresh submit of the same spec,
keeps every mutable directory, and then drains byte-identical to a
serial run.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import time

import pytest

import repro.queue.store as store_module
from repro.campaign import execute_campaign
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.queue import QueueStore, QueueWorker, collect

from .conftest import queue_spec

pytestmark = [pytest.mark.campaign, pytest.mark.integration]

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "v2-queue"

#: What ``migrate`` rewrites; everything else in a queue is mutable
#: state it must leave byte-identical.
TASK_STORE = ("spec.json", "tasks")


@pytest.fixture
def v2_queue(tmp_path) -> pathlib.Path:
    """A writable copy of the frozen v2 fixture queue."""
    queue_dir = tmp_path / "v2-queue"
    shutil.copytree(FIXTURE, queue_dir)
    return queue_dir


def snapshot(root: pathlib.Path, task_store: bool) -> dict[str, bytes]:
    """Every file's bytes, restricted to (or excluding) the task store."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
        and (path.relative_to(root).parts[0] in TASK_STORE) == task_store
    }


def fresh_task_store(migrated: pathlib.Path, tmp_path) -> dict[str, bytes]:
    """The task store a fresh submit of the migrated spec writes, with
    the fixture's retry policy."""
    retry = json.loads((FIXTURE / "spec.json").read_text())["retry"]
    fresh = QueueStore.submit(
        QueueStore(migrated).spec, tmp_path / "fresh",
        max_attempts=retry["max_attempts"], retry_backoff=retry["backoff"],
    )
    return snapshot(fresh.queue_dir, task_store=True)


def plant_expired_lease(queue_dir: pathlib.Path) -> None:
    """A lease left behind by a dead worker (expired, so not blocking)."""
    task_id = sorted((FIXTURE / "tasks").glob("*.json"))[0].stem
    assert QueueStore(queue_dir)._try_claim(task_id, "dead", ttl=1e-3)
    time.sleep(0.01)


class TestV2Fixture:
    def test_fixture_really_is_layout_v2(self):
        # Guards the fixture itself: regenerating it with a current
        # submit would silently stop testing the migration.
        payload = json.loads((FIXTURE / "spec.json").read_text())
        assert payload["version"] == 2
        assert "shards" not in payload
        task_files = sorted((FIXTURE / "tasks").glob("*.json"))
        assert len(task_files) == payload["n_tasks"] == 4
        assert not list((FIXTURE / "tasks").glob("*.seg"))

    def test_unmigrated_store_refused_naming_the_command(self, v2_queue):
        command = f"repro campaign migrate --queue {v2_queue}"
        with pytest.raises(ConfigurationError, match=re.escape(command)):
            QueueStore(v2_queue).task_ids()


class TestMigrate:
    def test_task_store_byte_identical_to_fresh_submit(self, v2_queue, tmp_path):
        assert QueueStore.migrate(v2_queue) == 4
        assert not list((v2_queue / "tasks").glob("*.json"))
        assert snapshot(v2_queue, task_store=True) == fresh_task_store(
            v2_queue, tmp_path
        )

    def test_every_other_directory_untouched(self, v2_queue):
        plant_expired_lease(v2_queue)
        for name, content in [
            ("done/x.json", "{}\n"), ("retries/x.json", "{}\n"),
            ("spool/w.jsonl", "{}\n"), ("segments/w-000000.seg", "RQS1"),
            ("reclaimed/x.json", "{}\n"), ("retried-manifests/x.00.json", "{}\n"),
        ]:
            (v2_queue / name).write_text(content)
        before = snapshot(v2_queue, task_store=False)
        assert QueueStore.migrate(v2_queue) == 4
        assert snapshot(v2_queue, task_store=False) == before

    def test_migrated_queue_drains_byte_identical_to_serial(self, v2_queue, tmp_path):
        QueueStore.migrate(v2_queue)
        store = QueueStore(v2_queue)
        serial = execute_campaign(store.spec, workers=0)
        summary = QueueWorker(store, worker_id="w1").run()
        assert summary.done == store.n_tasks
        a = serial.to_json(tmp_path / "serial.json")
        b = collect(v2_queue).to_json(tmp_path / "collected.json")
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("crash", ["before_commit", "after_commit"])
    def test_rerun_after_crash_converges(self, crash, v2_queue, tmp_path, monkeypatch):
        class Crash(Exception):
            pass

        real_write = store_module._atomic_write_json

        def crashing_write(path, payload):
            if path.name == "spec.json":
                if crash == "after_commit":
                    real_write(path, payload)
                raise Crash
            real_write(path, payload)

        monkeypatch.setattr(store_module, "_atomic_write_json", crashing_write)
        with pytest.raises(Crash):
            QueueStore.migrate(v2_queue)
        monkeypatch.undo()

        version = json.loads((v2_queue / "spec.json").read_text())["version"]
        assert version == (2 if crash == "before_commit" else 3)
        assert len(list((v2_queue / "tasks").glob("*.json"))) == 4
        assert QueueStore.migrate(v2_queue) == (4 if crash == "before_commit" else 0)
        assert snapshot(v2_queue, task_store=True) == fresh_task_store(
            v2_queue, tmp_path
        )

    def test_refuses_while_a_lease_is_live(self, v2_queue):
        task_id = sorted((v2_queue / "tasks").glob("*.json"))[0].stem
        assert QueueStore(v2_queue)._try_claim(task_id, "oldbuild", ttl=60.0)
        before = snapshot(v2_queue, task_store=True)
        with pytest.raises(ConfigurationError, match="live lease"):
            QueueStore.migrate(v2_queue)
        assert snapshot(v2_queue, task_store=True) == before

    def test_noop_on_current_layout(self, tmp_path):
        store = QueueStore.submit(queue_spec(), tmp_path / "q")
        before = snapshot(store.queue_dir, task_store=True)
        assert QueueStore.migrate(store.queue_dir) == 0
        assert snapshot(store.queue_dir, task_store=True) == before

    def test_rejects_unknown_version_and_unsubmitted_directory(self, v2_queue, tmp_path):
        payload = json.loads((v2_queue / "spec.json").read_text())
        payload["version"] = 999
        (v2_queue / "spec.json").write_text(json.dumps(payload))
        with pytest.raises(ConfigurationError, match="layout version 999"):
            QueueStore.migrate(v2_queue)
        with pytest.raises(ConfigurationError, match="not a submitted queue"):
            QueueStore.migrate(tmp_path)


def test_migrate_cli_end_to_end(v2_queue, capsys):
    assert main(["campaign", "migrate", "--queue", str(v2_queue)]) == 0
    assert "migrated 4 task(s)" in capsys.readouterr().out
    assert main(["campaign", "status", "--queue", str(v2_queue)]) == 0
    assert "4 pending" in capsys.readouterr().out
    assert main(["campaign", "migrate", "--queue", str(v2_queue)]) == 0
    assert "already up to date" in capsys.readouterr().out
    assert main([
        "campaign", "worker", "--queue", str(v2_queue), "--id", "w1", "--quiet",
    ]) == 0
    out = v2_queue.parent / "campaign.json"
    assert main([
        "campaign", "collect", "--queue", str(v2_queue), "--out", str(out),
        "--quiet",
    ]) == 0
    assert "wrote 4 records" in capsys.readouterr().out
