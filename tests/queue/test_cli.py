"""CLI surface of the queue: submit → worker → status → collect."""

import json

import pytest

from repro.campaign import CampaignResult
from repro.cli import main
from repro.queue import QueueStore
from repro.queue.store import DEFAULT_SHARD_SIZE

from .conftest import queue_spec

pytestmark = [pytest.mark.campaign, pytest.mark.integration]


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(queue_spec().to_dict()))
    return path


def test_full_queue_lifecycle_via_cli(tmp_path, spec_file, capsys):
    queue = str(tmp_path / "sweep.queue")
    out = tmp_path / "campaign.json"
    csv = tmp_path / "campaign.csv"

    assert main(["campaign", "submit", "--queue", queue, "--spec", str(spec_file)]) == 0
    submitted = capsys.readouterr().out
    assert "4 tasks submitted" in submitted

    assert main(["campaign", "status", "--queue", queue]) == 0
    assert "4 pending" in capsys.readouterr().out

    assert main(["campaign", "worker", "--queue", queue, "--id", "cli-w1"]) == 0
    worker_out = capsys.readouterr().out
    assert "cli-w1" in worker_out
    assert "4 done, 0 retried, 0 dead-lettered" in worker_out
    assert "s/task" in worker_out  # the progress/ETA line rendered

    assert main(["campaign", "status", "--queue", queue, "--json"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["done"] == 4 and status["workers"] == {"cli-w1": 4}

    assert main([
        "campaign", "collect", "--queue", queue,
        "--out", str(out), "--csv", str(csv), "--quiet",
    ]) == 0
    capsys.readouterr()
    result = CampaignResult.from_json(out)
    assert len(result.records) == 4
    assert len(CampaignResult.from_csv(csv).records) == 4


def test_run_with_queue_dir_mode(tmp_path, spec_file, capsys):
    queue = str(tmp_path / "run.queue")
    out = tmp_path / "campaign.json"
    assert main([
        "campaign", "run", "--spec", str(spec_file),
        "--queue-dir", queue, "--workers", "1", "--out", str(out),
    ]) == 0
    assert "queue worker(s)" in capsys.readouterr().out
    assert len(CampaignResult.from_json(out).records) == 4


def test_worker_on_unsubmitted_queue_fails_cleanly(tmp_path, capsys):
    code = main(["campaign", "worker", "--queue", str(tmp_path / "nope")])
    assert code == 2
    assert "not a submitted queue" in capsys.readouterr().err


def test_submit_writes_task_segments(tmp_path, capsys):
    queue = tmp_path / "q"
    assert main(["campaign", "submit", "--queue", str(queue), "--scale", "tiny"]) == 0
    assert "shard(s)" in capsys.readouterr().out
    payload = json.loads((queue / "spec.json").read_text())
    assert payload["version"] == 3
    assert payload["shard_size"] == DEFAULT_SHARD_SIZE
    assert list((queue / "tasks").glob("*.seg"))
    assert not list((queue / "tasks").glob("*.json"))


def test_submit_shard_size_flag_bounds_segments(tmp_path):
    queue = tmp_path / "q"
    assert main([
        "campaign", "submit", "--queue", str(queue), "--scale", "tiny",
        "--shard-size", "2",
    ]) == 0
    store = QueueStore(queue)
    assert all(shard.count <= 2 for shard in store.shards())
    assert json.loads(store.spec_path.read_text())["shard_size"] == 2
