"""Layout compatibility: the one task-store layout, reached two ways.

A queue is either submitted by the current ``submit`` (task segments,
spec.json version 3) or converted from the frozen layout-2 fixture
(``tests/queue/fixtures/v2-queue``, one JSON file per task) by
``migrate``. Both must expose the same tasks, grouped into shards of a
single config each.
"""

from __future__ import annotations

import json
import pathlib
import shutil

import pytest

from repro.cli import main
from repro.queue import QueueStore
from repro.queue.store import DEFAULT_SHARD_SIZE, task_config

pytestmark = [pytest.mark.campaign, pytest.mark.integration]

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "v2-queue"


@pytest.fixture
def v2_queue(tmp_path) -> pathlib.Path:
    """A writable copy of the frozen v2 fixture queue."""
    queue_dir = tmp_path / "v2-queue"
    shutil.copytree(FIXTURE, queue_dir)
    return queue_dir


class TestLayoutEquivalence:
    def test_both_layouts_expose_identical_tasks(self, v2_queue, tmp_path):
        # The per-task JSON files of the layout-2 fixture are the tasks
        # the migrated store and a fresh submit of its spec both serve.
        v2_tasks = [
            json.loads(path.read_text())
            for path in sorted((FIXTURE / "tasks").glob("*.json"))
        ]
        QueueStore.migrate(v2_queue)
        migrated = QueueStore(v2_queue)
        fresh = QueueStore.submit(migrated.spec, tmp_path / "v3", shard_size=3)
        ids = [task["task_id"] for task in v2_tasks]
        assert migrated.task_ids() == fresh.task_ids() == ids
        for task_id in ids:
            assert migrated.load_task(task_id) == fresh.load_task(task_id)
        assert [t.to_dict() for t in migrated.iter_tasks()] == v2_tasks
        assert [t.to_dict() for t in fresh.iter_tasks()] == v2_tasks


class TestSubmitLayoutFlag:
    def _submit(self, queue_dir, *extra):
        argv = [
            "campaign", "submit", "--queue", str(queue_dir),
            "--scale", "tiny", *extra,
        ]
        assert main(argv) == 0

    def test_default_submit_is_sharded_v3(self, tmp_path, capsys):
        self._submit(tmp_path / "q")
        assert "shard(s)" in capsys.readouterr().out
        payload = json.loads((tmp_path / "q" / "spec.json").read_text())
        assert payload["version"] == 3
        assert list((tmp_path / "q" / "tasks").glob("*.seg"))
        assert not list((tmp_path / "q" / "tasks").glob("*.json"))

    def test_shard_size_default_is_documented_value(self, tmp_path):
        self._submit(tmp_path / "q")
        payload = json.loads((tmp_path / "q" / "spec.json").read_text())
        assert payload["shard_size"] == DEFAULT_SHARD_SIZE


def test_v2_task_config_matches_shard_config(v2_queue):
    QueueStore.migrate(v2_queue)
    store = QueueStore(v2_queue)
    shards = store.shards()
    assert sum(shard.count for shard in shards) == store.n_tasks
    for shard in shards:
        assert all(
            task_config(task_id) == shard.config
            for task_id in store.shard_task_ids(shard)
        )
