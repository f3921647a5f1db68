"""Collecting a drained queue into one canonical :class:`CampaignResult`.

The collector merges every compacted segment and every residual
per-worker spool shard into one record stream, deduplicating by run id
(crash recovery can legitimately execute a task twice — determinism
makes the duplicate records byte-equal, which is verified), checks
completeness against the task store, and hands the records to
:class:`~repro.campaign.results.CampaignResult`, whose canonical
ordering makes the serialised output independent of which worker
finished what in which order — byte-identical to a serial
:func:`~repro.campaign.executor.execute_campaign` of the same spec.

The merge itself runs in bounded memory: compacted segments are sorted
by run id and streamed record by record, residual shards are bounded
by the workers' compaction cadence, and the duplicate check is a
peek-at-the-previous-record comparison inside a ``heapq.merge`` of the
sorted streams — never an all-records-by-id dictionary and never a
whole shard slurped as text.  The collected
:class:`~repro.campaign.results.CampaignResult` still materialises the
(deduplicated) record list — that is its contract — so end-to-end
collect memory is one record object per run, not one per spooled copy.
"""

from __future__ import annotations

import heapq
import json
import pathlib
from typing import Iterator

from ..campaign.results import CampaignResult, CampaignRunRecord
from ..exceptions import ConfigurationError
from .segment import iter_payloads
from .store import QueueStore


def iter_shard_records(shard: pathlib.Path) -> Iterator[CampaignRunRecord]:
    """Parse one JSONL spool shard, ignoring a torn trailing line.

    A worker killed mid-append can leave a final partial line; every
    *complete* line was fsynced before its task's done marker, so a
    torn tail always belongs to a task that is still claimable and
    will be re-executed — skipping it loses nothing.  Lines are
    streamed, not slurped, so a shard never has to fit in memory
    twice.
    """
    try:
        handle = shard.open("rb")
    except FileNotFoundError:
        return
    with handle:
        for lineno, raw in enumerate(handle, start=1):
            terminated = raw.endswith(b"\n")
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if not terminated:
                    continue  # torn final append of a killed worker
                raise ConfigurationError(
                    f"{shard}:{lineno} holds invalid record JSON"
                ) from None
            yield CampaignRunRecord.from_dict(payload)


def iter_segment_records(path: pathlib.Path) -> Iterator[CampaignRunRecord]:
    """Stream one compacted segment's records (sorted by run id).

    Records are length-prefixed, so the reader never holds more than
    one record in memory; the footer index is validated first, and the
    record region must end exactly where the footer begins (all
    enforced by :func:`repro.queue.segment.iter_payloads`).
    """
    for payload in iter_payloads(path):
        yield CampaignRunRecord.from_dict(json.loads(payload))


def _sorted_shard_records(shard: pathlib.Path) -> list[CampaignRunRecord]:
    """Residual (uncompacted) shard records, sorted for the k-way merge.

    Residuals are bounded by each worker's compaction cadence, so this
    in-memory sort is the small tail, not the sweep.
    """
    records = list(iter_shard_records(shard))
    records.sort(key=lambda record: record.run_id)
    return records


def iter_queue_records(store: QueueStore) -> Iterator[CampaignRunRecord]:
    """Merged, deduplicated record stream of a queue's segments + shards.

    A ``heapq.merge`` over the per-file sorted streams; duplicates
    (crash-induced re-executions, or a compaction interrupted between
    segment publication and shard truncate) are adjacent in the merged
    order, verified equal, and folded into one.
    """
    streams: list[Iterator[CampaignRunRecord]] = [
        iter_segment_records(path) for path in store.segment_paths()
    ]
    streams.extend(
        iter(_sorted_shard_records(shard))
        for shard in sorted(store._dir("spool").glob("*.jsonl"))
    )
    previous: CampaignRunRecord | None = None
    for record in heapq.merge(*streams, key=lambda r: r.run_id):
        if previous is not None and previous.run_id == record.run_id:
            if previous != record:
                raise ConfigurationError(
                    f"conflicting duplicate records for run {record.run_id!r} "
                    "(two spool sources disagree; campaign runs are expected "
                    "to be deterministic)"
                )
            continue
        previous = record
        yield record


def collect(queue_dir, allow_partial: bool = False) -> CampaignResult:
    """Merge a queue's spooled records into one canonical campaign result.

    Raises :class:`~repro.exceptions.ConfigurationError` if tasks are
    missing or dead-lettered, unless ``allow_partial`` (which returns
    whatever completed — useful for inspecting a half-drained sweep, or
    for salvaging a sweep whose dead-lettered tasks are being triaged).
    """
    store = QueueStore(queue_dir)
    result = CampaignResult(spec=store.spec_dict, records=iter_queue_records(store))

    collected = {record.run_id for record in result.records}
    expected: dict[str, str] = {}  # task_id -> run_id
    for task in store.iter_tasks():
        expected[task.task_id] = task.run_id
    failures = store.failed_outcomes()
    missing = sorted(set(expected.values()) - collected)
    if not allow_partial:
        if failures:
            detail = "; ".join(
                f"{o.run_id} after {o.attempts} attempt(s) "
                f"({(o.error or '').strip().splitlines()[-1] if o.error else 'unknown error'})"
                for o in failures[:5]
            )
            raise ConfigurationError(
                f"queue {store.queue_dir} has {len(failures)} dead-lettered "
                f"task(s): {detail}{' ...' if len(failures) > 5 else ''} "
                "(use allow_partial / --allow-partial to collect the rest)"
            )
        if missing:
            raise ConfigurationError(
                f"queue {store.queue_dir} is not drained: "
                f"{len(missing)}/{len(expected)} run(s) lack records "
                f"(first missing: {missing[0]}); run more workers or pass "
                "allow_partial / --allow-partial"
            )
    # Spool records for runs the task store does not know would mean a
    # stale shard from a different sweep leaked into this directory —
    # never acceptable, partial collection or not.
    stray = sorted(collected - set(expected.values()))
    if stray:
        raise ConfigurationError(
            f"spool shards contain {len(stray)} record(s) not in the task "
            f"store (first: {stray[0]}); the queue directory is corrupt"
        )
    return result
