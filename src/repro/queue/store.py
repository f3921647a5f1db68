"""The file-backed job store: submit, claim, heartbeat, complete, reclaim.

All mutations are either an ``os.link`` of a fully-written,
worker-unique temp lease onto ``leases/<task_id>.json`` (claims — the
link fails with ``FileExistsError`` for all but one caller, even across
hosts sharing a POSIX filesystem), an ``os.replace`` of a
same-directory temp file (every payload write — readers never observe
partial JSON), or an ``os.rename`` to a unique tombstone (reclaims — at
most one renamer succeeds).  See the :mod:`repro.queue` package
docstring for the on-disk layout and the full lease protocol.
"""

from __future__ import annotations

import bisect
import dataclasses
import hashlib
import itertools
import json
import os
import pathlib
import random
import re
import threading
import time
from typing import Any, Iterator, Mapping

from ..campaign.spec import CampaignSpec, RunSpec, expand_spec
from ..exceptions import ConfigurationError
from .segment import (
    SEGMENT_MAGIC,
    iter_payloads,
    read_footer,
    read_payload_at,
    write_segment,
)
from .state import Lease, QueueStatus, QueueTask, TaskOutcome

#: Store layout version stamped into ``spec.json``: task ids embed the
#: configuration digest (affine chunk claiming), ``spec.json`` records
#: the retry policy and a shard manifest, and tasks live in per-shard
#: ``RQS1`` segments (one file per shard instead of one JSON file per
#: task), so submit cost, claim-scan cost and inode count are
#: O(shards), not O(tasks).  Layout-2 queues (one ``tasks/<id>.json``
#: per task) are converted once by :meth:`QueueStore.migrate`.
LAYOUT_VERSION = 3

#: Default upper bound on tasks per task segment.  Shards are
#: configuration-contiguous spans capped at this size, so a sweep with
#: one huge configuration group still claims and scans in O(shards):
#: chunk selection touches shard manifests, not task listings.
DEFAULT_SHARD_SIZE = 1024

#: Default lease time-to-live (seconds without a heartbeat before any
#: worker may reclaim an in-flight task).
DEFAULT_TTL = 60.0

#: Default bound on execution attempts before a task that keeps
#: *failing* (raising — crashes are handled by the lease protocol and
#: don't count) is dead-lettered with a permanent ``failed/`` marker.
DEFAULT_MAX_ATTEMPTS = 3

#: Default base (seconds) of the jittered exponential retry backoff:
#: after its n-th failed attempt a task stays unclaimable for
#: ``backoff * 2**(n-1) * uniform(1, 2)`` seconds.  Deliberately small
#: — solver failures are more often deterministic than transient — but
#: every attempt's ledger entry records the resulting ``retry_after``
#: timestamp, so operators can read exactly when a task requeued.
DEFAULT_RETRY_BACKOFF = 0.05

#: Setting this environment variable to a non-empty value other than
#: ``"0"`` declares the queue's filesystem unable to provide atomic
#: ``O_EXCL``-equivalent ``os.link`` semantics (classic NFSv2).  Claims
#: then refuse to run instead of silently risking double execution.
UNSAFE_LINK_ENV = "REPRO_QUEUE_LINK_UNSAFE"

_SUBDIRS = ("tasks", "leases", "reclaimed", "done", "failed", "retries",
            "retried-manifests", "spool", "segments")

#: Process-global nonce for :func:`_atomic_write_json` temp names.
_TMP_COUNTER = itertools.count()


def _atomic_write_json(path: pathlib.Path, payload: Mapping[str, Any]) -> None:
    """Write JSON so that readers see the old file or the new, never half.

    The temp name carries the pid, the thread id *and* a process-global
    nonce: concurrent writers — other processes, or threads within one
    process (a heartbeat thread next to its worker's main loop) — can
    never collide on the same temp file, so no writer can replace the
    target with another writer's half-written temp or unlink it from
    under them.
    """
    tmp = path.with_name(
        f".{path.name}.tmp.{os.getpid()}"
        f".{threading.get_ident()}.{next(_TMP_COUNTER)}"
    )
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _read_json(path: pathlib.Path) -> dict[str, Any] | None:
    """Read a JSON payload, tolerating concurrent removal (``None``)."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path} holds invalid queue JSON: {exc}") from exc


def config_digest(config_key: str) -> str:
    """Short stable digest of a run's session-defining configuration."""
    return hashlib.sha256(config_key.encode()).hexdigest()[:6]


def task_id_for(index: int, run: RunSpec) -> str:
    """Stable task id: ``{index:06d}-{config digest}-{run-key digest}``.

    The expansion-index prefix keeps lexicographic directory order
    equal to expansion order; the middle component is the digest of the
    run's :attr:`~repro.campaign.spec.RunSpec.config_key`, so workers
    can group tasks into configuration-affine chunks from the directory
    listing alone (no task JSON reads); the run-key digest suffix
    guards against a stale store being reused with a different spec.
    """
    digest = hashlib.sha256(run.run_id.encode()).hexdigest()[:10]
    return f"{index:06d}-{config_digest(run.config_key)}-{digest}"


def task_config(task_id: str) -> str:
    """The configuration digest embedded in a task id."""
    parts = task_id.split("-")
    if len(parts) != 3:
        raise ConfigurationError(f"malformed task id {task_id!r}")
    return parts[1]


def task_index(task_id: str) -> int:
    """The expansion-index prefix embedded in a task id."""
    prefix = task_id.split("-", 1)[0]
    try:
        return int(prefix)
    except ValueError:
        raise ConfigurationError(f"malformed task id {task_id!r}") from None


@dataclasses.dataclass(frozen=True)
class TaskShard:
    """One configuration-contiguous span of the task namespace.

    Each shard is one ``RQS1`` task segment under ``tasks/`` at
    ``path``; ``key`` is unique within a store and doubles as the
    segment file stem.
    """

    key: str
    config: str
    first_index: int
    count: int
    path: pathlib.Path

    @property
    def end_index(self) -> int:
        """One past the expansion index of the shard's last task."""
        return self.first_index + self.count


@dataclasses.dataclass(frozen=True)
class QueueScan:
    """One consistent-ish snapshot of a store's mutable directories.

    Everything a worker needs to pick its next configuration chunk —
    and everything :meth:`QueueStore.status` needs to summarise the
    queue — from a single pass over the marker/lease/ledger listings,
    so chunk selection and progress reporting share one scan instead
    of re-walking the task directory per task.
    """

    done_ids: frozenset[str]
    failed_ids: frozenset[str]
    #: Live *and* expired leases by task id (terminal tasks excluded).
    leases: dict[str, Lease]
    #: Task ids with at least one recorded failed attempt.
    retried_ids: frozenset[str]
    #: POSIX timestamp the scan was taken at (lease-expiry reference).
    now: float

    @property
    def terminal_ids(self) -> frozenset[str]:
        return self.done_ids | self.failed_ids


#: Worker ids become lease payload fields *and* file-name components
#: (spool shards, claim temp files), so they must be flat, portable
#: path atoms — in particular no separators that would escape the
#: queue directory.
_WORKER_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]{0,99}\Z")


def validate_worker_id(worker_id: str) -> str:
    if not _WORKER_ID_RE.match(worker_id or ""):
        raise ConfigurationError(
            f"invalid worker id {worker_id!r}: use 1-100 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return worker_id


class QueueStore:
    """One durable campaign queue rooted at ``queue_dir``.

    The store object itself is stateless beyond the directory path
    (plus a lazily-loaded spec), so any number of processes on any
    number of hosts may open the same directory concurrently; all
    coordination happens through the atomic filesystem operations
    described in the :mod:`repro.queue` docstring.
    """

    #: Test hook: seconds to sleep between publishing a compacted
    #: segment and truncating the source shard (widens the
    #: mid-compaction crash window for the chaos harness).
    _compact_pause = 0.0

    #: Test hook: seconds to sleep inside :meth:`heartbeat` between the
    #: ownership check and the renewal itself (widens the
    #: heartbeat-vs-reclaim window for the chaos harness's
    #: lease-resurrection schedule).
    _heartbeat_pause = 0.0

    def __init__(self, queue_dir):
        self.queue_dir = pathlib.Path(queue_dir)
        self._spec_payload: dict[str, Any] | None = None
        self._task_ids: list[str] | None = None
        #: Immutable shard metadata (from the ``spec.json`` manifest)
        #: and the shards' ``first_index`` list, built once beside it
        #: so :meth:`shard_for_task` is one bisect.
        self._shards: list[TaskShard] | None = None
        self._shard_starts: list[int] = []
        #: Per-shard task-id lists, loaded lazily (one footer read per
        #: shard, ever) — chunk selection only pays for the shards it
        #: actually claims from.
        self._shard_ids: dict[str, list[str]] = {}
        #: Per-shard ``task_id -> byte offset`` indexes for the
        #: random-access ``load_task`` path.
        self._shard_offsets: dict[str, dict[str, int]] = {}
        #: Claim-scan cursor: tasks before it were terminal or leased
        #: when last visited, so the next scan starts where the last
        #: one left off (and wraps), keeping a drain O(tasks) overall
        #: instead of O(tasks²).  Purely a per-handle optimisation —
        #: correctness never depends on it.
        self._cursor = 0

    # ------------------------------------------------------------------ paths

    @property
    def spec_path(self) -> pathlib.Path:
        return self.queue_dir / "spec.json"

    def _dir(self, name: str) -> pathlib.Path:
        return self.queue_dir / name

    def lease_path(self, task_id: str) -> pathlib.Path:
        return self._dir("leases") / f"{task_id}.json"

    def outcome_path(self, task_id: str, status: str) -> pathlib.Path:
        return self._dir(status) / f"{task_id}.json"

    def shard_path(self, worker_id: str) -> pathlib.Path:
        return self._dir("spool") / f"{worker_id}.jsonl"

    def retries_path(self, task_id: str) -> pathlib.Path:
        return self._dir("retries") / f"{task_id}.json"

    def manifests_dir(self) -> pathlib.Path:
        """Audit trail of resurrected dead-letters (see :meth:`retry_dead_letters`)."""
        return self._dir("retried-manifests")

    # ----------------------------------------------------------------- submit

    @classmethod
    def submit(
        cls,
        spec: CampaignSpec,
        queue_dir,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        shard_size: int = DEFAULT_SHARD_SIZE,
    ) -> "QueueStore":
        """Materialise a campaign spec as an on-disk task store.

        Refuses to overwrite an existing queue (``spec.json`` present):
        a queue directory is append-only state shared with possibly
        live workers; start a fresh sweep in a fresh directory.

        ``max_attempts`` and ``retry_backoff`` are the queue-wide retry
        policy: how many times a task may *fail* (raise) before it is
        dead-lettered, and the base of the jittered exponential backoff
        a failed task sits out before it is claimable again.  Both are
        stored in ``spec.json`` so every worker — any host, any start
        time — applies the same bound.  Tasks are batched into
        configuration-contiguous ``RQS1`` segments of at most
        ``shard_size`` tasks each.
        """
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        if retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if shard_size < 1:
            raise ConfigurationError(
                f"shard_size must be >= 1, got {shard_size}"
            )
        store = cls(queue_dir)
        if store.spec_path.exists():
            raise ConfigurationError(
                f"{store.spec_path} already exists; refusing to resubmit "
                "over a live queue (collect it or choose a fresh directory)"
            )
        runs = expand_spec(spec)
        if not runs:
            raise ConfigurationError(f"campaign {spec.name!r} expands to zero runs")
        store.queue_dir.mkdir(parents=True, exist_ok=True)
        for name in _SUBDIRS:
            store._dir(name).mkdir(exist_ok=True)
        store._publish(
            spec.to_dict(),
            [
                QueueTask(task_id=task_id_for(index, run), run=run)
                for index, run in enumerate(runs)
            ],
            {"max_attempts": max_attempts, "backoff": retry_backoff},
            shard_size,
        )
        return store

    @classmethod
    def migrate(cls, queue_dir) -> int:
        """Convert a layout-2 queue (one ``tasks/<task_id>.json`` per
        task) to task segments in place: ``repro campaign migrate``.

        Task ids are kept (markers, leases and ledgers name them) and
        every mutable directory is left untouched.  The ``spec.json``
        replace is the commit point and the task JSON files are
        unlinked only after it, so a re-run after a crash converges.
        Refuses while any lease is live: an older-build worker may
        still be reading ``tasks/*.json``.  Returns the number of tasks
        converted (0: already current).
        """
        store = cls(queue_dir)
        payload = _read_json(store.spec_path)
        converted = 0
        if payload is not None and payload.get("version") == 2:
            now = time.time()
            for path in store._dir("leases").glob("*.json"):
                lease = store.read_lease(path.stem)
                if lease is not None and not lease.expired(now):
                    raise ConfigurationError(
                        f"{path} is a live lease: stop every worker on "
                        f"{store.queue_dir} before migrating it"
                    )
            tasks = [
                QueueTask.from_dict(_read_json(path))
                for path in sorted(store._dir("tasks").glob("*.json"))
            ]
            if [task_index(t.task_id) for t in tasks] != list(
                range(int(payload["n_tasks"]))
            ):
                raise ConfigurationError(f"{store.queue_dir} has missing tasks")
            store._publish(
                CampaignSpec.from_dict(payload["spec"]).to_dict(),
                tasks,
                dict(payload["retry"]),
                DEFAULT_SHARD_SIZE,
            )
            converted = len(tasks)
        else:
            store._payload()  # current layout, or an unsubmitted/unknown store
        for path in store._dir("tasks").glob("*.json"):
            path.unlink(missing_ok=True)
        return converted

    def _publish(
        self,
        spec_dict: dict[str, Any],
        tasks: list[QueueTask],
        retry: dict[str, Any],
        shard_size: int,
    ) -> None:
        """Write the task segments, then ``spec.json`` (the commit point).

        The spec file is written last: its presence marks the store
        complete and claimable, so workers polling a half-submitted
        directory see zero tasks rather than a partial sweep.
        """
        shards = self._write_task_segments(tasks, shard_size)
        _atomic_write_json(self.spec_path, {
            "version": LAYOUT_VERSION,
            "spec": spec_dict,
            "n_tasks": len(tasks),
            "retry": retry,
            "shard_size": shard_size,
            "shards": shards,
        })

    def _write_task_segments(
        self, tasks: list[QueueTask], shard_size: int
    ) -> list[dict[str, Any]]:
        """Write the task segments; returns the shard manifest.

        Each shard is the longest configuration-contiguous run of tasks
        no larger than ``shard_size``, published as one ``RQS1`` segment
        ``tasks/{first_index:06d}-{config}.seg`` whose footer carries
        the shard's task ids and per-record byte offsets (random-access
        ``load_task`` is a seek-and-read).  Expansion keeps each
        configuration one contiguous span, so shard boundaries never
        split a task away from its configuration neighbours except at
        the size cap.
        """
        manifest: list[dict[str, Any]] = []
        start = 0
        while start < len(tasks):
            config = task_config(tasks[start].task_id)
            end = start + 1
            while (
                end < len(tasks)
                and end - start < shard_size
                and task_config(tasks[end].task_id) == config
            ):
                end += 1
            chunk = tasks[start:end]
            key = f"{start:06d}-{config}"
            write_segment(
                self._dir("tasks") / f"{key}.seg",
                [
                    json.dumps(task.to_dict(), sort_keys=True).encode()
                    for task in chunk
                ],
                {
                    "version": 1,
                    "kind": "tasks",
                    "config": config,
                    "first_index": start,
                    "task_ids": [task.task_id for task in chunk],
                },
                record_offsets=True,
            )
            manifest.append({
                "key": key,
                "config": config,
                "first_index": start,
                "count": len(chunk),
            })
            start = end
        return manifest

    # ------------------------------------------------------------------- spec

    def _payload(self) -> dict[str, Any]:
        if self._spec_payload is None:
            payload = _read_json(self.spec_path)
            if payload is None:
                raise ConfigurationError(
                    f"{self.queue_dir} is not a submitted queue "
                    "(no spec.json; run 'repro campaign submit' first)"
                )
            version = payload.get("version")
            if version != LAYOUT_VERSION:
                raise ConfigurationError(
                    f"queue layout version {version} in {self.spec_path} is "
                    f"not supported (this build reads layout {LAYOUT_VERSION}; "
                    "convert a layout-2 queue once with 'repro campaign "
                    f"migrate --queue {self.queue_dir}')"
                )
            self._spec_payload = payload
        return self._spec_payload

    @property
    def spec_dict(self) -> dict[str, Any]:
        """The spec in canonical form (older queues stored retired keys)."""
        return self.spec.to_dict()

    @property
    def spec(self) -> CampaignSpec:
        return CampaignSpec.from_dict(self._payload()["spec"])

    @property
    def n_tasks(self) -> int:
        return int(self._payload()["n_tasks"])

    @property
    def max_attempts(self) -> int:
        """The queue-wide retry bound recorded at submit time."""
        retry = self._payload().get("retry") or {}
        return int(retry.get("max_attempts", DEFAULT_MAX_ATTEMPTS))

    @property
    def retry_backoff(self) -> float:
        """The queue-wide retry-backoff base recorded at submit time."""
        retry = self._payload().get("retry") or {}
        return float(retry.get("backoff", DEFAULT_RETRY_BACKOFF))

    # ------------------------------------------------------------------ tasks

    def shards(self) -> list[TaskShard]:
        """The store's task shards, in expansion order.

        Read straight from the ``spec.json`` shard manifest — O(shards)
        metadata with no directory listing and no segment reads.
        """
        if self._shards is None:
            self._shards = [
                TaskShard(
                    key=str(entry["key"]),
                    config=str(entry["config"]),
                    first_index=int(entry["first_index"]),
                    count=int(entry["count"]),
                    path=self._dir("tasks") / f"{entry['key']}.seg",
                )
                for entry in self._payload()["shards"]
            ]
            self._shard_starts = [shard.first_index for shard in self._shards]
        return self._shards

    def _shard_footer(self, shard: TaskShard) -> dict[str, Any]:
        """Load (and cache) one shard's footer index."""
        footer = read_footer(shard.path)
        task_ids = [str(task_id) for task_id in footer["task_ids"]]
        offsets = [int(offset) for offset in footer["offsets"]]
        if len(task_ids) != shard.count or len(offsets) != shard.count:
            raise ConfigurationError(
                f"{shard.path} footer disagrees with the shard manifest "
                f"({len(task_ids)} task ids vs {shard.count} manifested)"
            )
        self._shard_ids[shard.key] = task_ids
        self._shard_offsets[shard.key] = dict(zip(task_ids, offsets))
        return footer

    def shard_task_ids(self, shard: TaskShard) -> list[str]:
        """The shard's task ids, in expansion order (footer-cached)."""
        if shard.key not in self._shard_ids:
            self._shard_footer(shard)
        return self._shard_ids[shard.key]

    def shard_for_task(self, task_id: str) -> TaskShard | None:
        """The shard covering ``task_id``'s expansion index, if any."""
        shards = self.shards()
        try:
            index = task_index(task_id)
        except ConfigurationError:
            return None
        position = bisect.bisect_right(self._shard_starts, index)
        if position == 0:
            return None
        shard = shards[position - 1]
        return shard if index < shard.end_index else None

    def shard_terminal_counts(
        self, terminal_ids: frozenset[str] | set[str]
    ) -> dict[str, int]:
        """How many of ``terminal_ids`` land in each shard (by key).

        Buckets by the expansion-index prefix alone — O(terminal ·
        log shards), no task ids loaded — so chunk selection can skip
        fully-drained shards without ever reading their segments.
        """
        counts: dict[str, int] = {}
        for task_id in terminal_ids:
            shard = self.shard_for_task(task_id)
            if shard is not None:
                counts[shard.key] = counts.get(shard.key, 0) + 1
        return counts

    def task_ids(self) -> list[str]:
        """All task ids, in deterministic (= expansion) order.

        Cached per handle: the task set is immutable once ``spec.json``
        exists (submit writes it last), so one footer read per shard
        serves every later use.
        """
        if self._task_ids is None:
            self._task_ids = [
                task_id
                for shard in self.shards()
                for task_id in self.shard_task_ids(shard)
            ]
        return self._task_ids

    def load_task(self, task_id: str) -> QueueTask:
        """Load one task payload (a footer-indexed seek-and-read)."""
        shard = self.shard_for_task(task_id)
        if shard is not None and shard.key not in self._shard_offsets:
            self._shard_footer(shard)
        offset = (
            self._shard_offsets[shard.key].get(task_id)
            if shard is not None else None
        )
        if offset is None:
            raise ConfigurationError(
                f"unknown task {task_id!r} in {self.queue_dir}"
            )
        return QueueTask.from_dict(
            json.loads(read_payload_at(shard.path, offset))
        )

    def iter_tasks(self) -> Iterator[QueueTask]:
        """Stream every task in expansion order (sequential segment
        reads, never one seek per task)."""
        for shard in self.shards():
            for payload in iter_payloads(shard.path):
                yield QueueTask.from_dict(json.loads(payload))

    def is_terminal(self, task_id: str) -> bool:
        return (
            self.outcome_path(task_id, "done").exists()
            or self.outcome_path(task_id, "failed").exists()
        )

    # ------------------------------------------------------------------ leases

    def read_lease(self, task_id: str) -> Lease | None:
        """The task's current lease, or ``None`` if it is unclaimed.

        A lease file's *content* is immutable after the claim; renewals
        touch the file's **mtime** instead (see :meth:`heartbeat`).
        The effective ``heartbeat_at`` is therefore the later of the
        stored timestamp and the mtime, read from one file descriptor
        so content and mtime always describe the same inode even while
        a reclaim renames the file away.
        """
        path = self.lease_path(task_id)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
                mtime = os.fstat(handle.fileno()).st_mtime
        except FileNotFoundError:
            return None
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path} holds invalid queue JSON: {exc}"
            ) from exc
        lease = Lease.from_dict(payload)
        return lease.renewed(mtime) if mtime > lease.heartbeat_at else lease

    def _try_claim(self, task_id: str, worker_id: str, ttl: float) -> Lease | None:
        """Atomically publish a fully-written lease; loser gets ``None``.

        The lease content is written to a worker-unique temp file
        first and published with ``os.link`` — link creation fails
        with ``FileExistsError`` for all but exactly one caller (the
        ``O_EXCL`` exclusivity semantics), and unlike a bare ``O_EXCL``
        create-then-write, concurrent readers can never observe an
        empty or half-written lease.
        """
        now = time.time()
        lease = Lease(
            task_id=task_id,
            worker_id=worker_id,
            claimed_at=now,
            heartbeat_at=now,
            ttl=ttl,
        )
        path = self.lease_path(task_id)
        tmp = path.with_name(f".{task_id}.claim.{worker_id}.{os.getpid()}")
        tmp.write_text(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
        try:
            os.link(tmp, path)
        except FileExistsError:
            return None
        finally:
            os.unlink(tmp)
        return lease

    def _reclaim(self, task_id: str, lease: Lease, reclaimer: str) -> bool:
        """Tombstone an expired lease; exactly one caller wins the rename."""
        tombstone = self._dir("reclaimed") / (
            f"{task_id}.{int(lease.heartbeat_at * 1e3)}.{reclaimer}.{os.getpid()}.json"
        )
        try:
            os.rename(self.lease_path(task_id), tombstone)
        except FileNotFoundError:
            return False  # someone else reclaimed (or released) it first
        return True

    @staticmethod
    def _check_link_safety() -> None:
        """The documented adversarial-filesystem gate.

        Mutual exclusion rests entirely on atomic
        (``O_EXCL``-equivalent) ``os.link``, which classic NFSv2 does
        not guarantee.
        Exporting :data:`UNSAFE_LINK_ENV` declares the filesystem
        adversarial and makes every claim refuse loudly instead of
        silently risking double execution.
        """
        flag = os.environ.get(UNSAFE_LINK_ENV, "")
        if flag and flag != "0":
            raise ConfigurationError(
                f"{UNSAFE_LINK_ENV} is set: this filesystem was declared "
                "unable to provide atomic O_EXCL/os.link semantics (classic "
                "NFSv2), so lease claims cannot guarantee single execution; "
                "host the queue directory on a local disk or an NFSv3+ mount"
            )

    def try_claim_task(
        self, task_id: str, worker_id: str, ttl: float = DEFAULT_TTL
    ) -> QueueTask | None:
        """Attempt to claim one specific task (``None`` = unavailable).

        Terminal tasks are never claimed; an existing live lease loses
        the claim, an expired one is tombstoned (rename — single
        winner) and the claim retried.  This is the single-task
        primitive under both :meth:`claim` (scan order) and the
        configuration-affine chunk loop of
        :class:`~repro.queue.worker.QueueWorker`.
        """
        self._check_link_safety()
        if self.is_terminal(task_id):
            return None
        lease = self._try_claim(task_id, worker_id, ttl)
        if lease is None:
            current = self.read_lease(task_id)
            if current is None or not current.expired(time.time()):
                return None  # live claim (or just released+finished)
            if not self._reclaim(task_id, current, worker_id):
                return None  # lost the reclaim race
            lease = self._try_claim(task_id, worker_id, ttl)
            if lease is None:
                return None  # a third worker claimed between our two steps
        if self.is_terminal(task_id):
            # Completed between our terminal check and the claim
            # (complete() removes the lease *after* the marker, so
            # the marker check here is authoritative).
            self.release(task_id, worker_id)
            return None
        attempts = self.read_retries(task_id)
        if len(attempts) >= self.max_attempts:
            # The previous holder recorded the final failed attempt but
            # died before publishing the dead-letter marker.  Finalise
            # it here (we hold the lease — single writer) instead of
            # burning another attempt on an exhausted task.
            self.fail(
                self.load_task(task_id), worker_id,
                str(attempts[-1].get("error") or "unknown error"),
                attempts=len(attempts), failure_log=tuple(attempts),
            )
            return None
        if attempts and time.time() < float(attempts[-1].get("retry_after") or 0.0):
            # Still inside the post-failure backoff window recorded by
            # the last failed attempt: back off instead of re-running
            # the task hot.
            self.release(task_id, worker_id)
            return None
        return self.load_task(task_id)

    def claim(self, worker_id: str, ttl: float = DEFAULT_TTL) -> QueueTask | None:
        """Atomically claim the first available task (``None`` = drained/busy).

        Walks the deterministic task order via :meth:`try_claim_task`,
        starting from the per-handle cursor.
        """
        if ttl <= 0:
            raise ConfigurationError(f"lease ttl must be > 0, got {ttl}")
        validate_worker_id(worker_id)
        ids = self.task_ids()
        for step in range(len(ids)):
            index = (self._cursor + step) % len(ids)
            task = self.try_claim_task(ids[index], worker_id, ttl)
            if task is not None:
                self._cursor = (index + 1) % len(ids)
                return task
        return None

    def heartbeat(self, task_id: str, worker_id: str) -> bool:
        """Renew ``worker_id``'s lease; ``False`` means the lease was lost.

        Renewal is atomic against reclaim.  Ownership is verified and
        the renewal applied on one open file descriptor — the lease
        *inode* — never by a path-addressed rewrite: the renewal is an
        ``os.utime`` touch (the mtime is the authoritative heartbeat
        timestamp, see :meth:`read_lease`), so a renewal can *never*
        create a lease file or overwrite another worker's claim.  If a
        reclaimer renamed the lease to a tombstone between our open
        and the touch, the touch lands on the tombstone (harmless
        audit-file freshening) and the final same-inode check reports
        the lease lost instead of resurrecting it.

        A worker whose heartbeat returns ``False`` (its lease expired
        and was reclaimed — e.g. the process was stopped for longer
        than the TTL) must treat the task as no longer its own and
        must not write a terminal marker for it.
        """
        path = self.lease_path(task_id)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return False
        with handle:
            try:
                payload = json.loads(handle.read())
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path} holds invalid queue JSON: {exc}"
                ) from exc
            if Lease.from_dict(payload).worker_id != worker_id:
                return False
            if self._heartbeat_pause:
                time.sleep(self._heartbeat_pause)
            if os.utime in os.supports_fd:
                os.utime(handle.fileno())
            else:  # pragma: no cover - non-futimens platforms
                # Path-addressed touch: may freshen a reclaimer's new
                # lease (harmless — it is fresh anyway); the inode
                # check below still reports ours lost.
                os.utime(path)
            try:
                published = os.stat(path)
            except FileNotFoundError:
                return False  # reclaimed (or released) mid-renewal
            renewed = os.fstat(handle.fileno())
            if (published.st_ino, published.st_dev) != (
                renewed.st_ino, renewed.st_dev
            ):
                return False  # reclaimed + re-claimed mid-renewal
        return True

    def release(self, task_id: str, worker_id: str) -> None:
        """Drop ``worker_id``'s lease (no-op if it is not the holder)."""
        lease = self.read_lease(task_id)
        if lease is not None and lease.worker_id == worker_id:
            try:
                os.unlink(self.lease_path(task_id))
            except FileNotFoundError:
                pass

    # -------------------------------------------------------------- outcomes

    def append_record(self, worker_id: str, record) -> str:
        """Durably append one record to the worker's spool shard.

        The line is flushed and fsynced before the caller writes the
        ``done`` marker, so a completed task's record is on disk
        strictly before the task stops being re-claimable.

        If a previous incarnation of this worker id was killed
        mid-append, the shard may end in a torn (newline-less) line;
        it is truncated away first.  That is always safe: the done
        marker of a task is written only after its fully-terminated
        line was fsynced, so a torn tail can never belong to a
        completed task — its task is still claimable and will be
        re-executed.
        """
        shard = self.shard_path(validate_worker_id(worker_id))
        line = json.dumps(record.to_dict(), sort_keys=True)
        with shard.open("a+b") as handle:
            self._truncate_torn_tail(handle)
            handle.write(line.encode() + b"\n")
            handle.flush()
            os.fsync(handle.fileno())
        return shard.name

    @staticmethod
    def _truncate_torn_tail(handle) -> None:
        """Drop a trailing newline-less fragment left by a killed writer."""
        size = handle.seek(0, os.SEEK_END)
        if size == 0:
            return
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        # Walk back to the last completed line (chunked, so a long torn
        # record does not force a byte-at-a-time scan).
        pos = size - 1
        while pos > 0:
            start = max(0, pos - 4096)
            handle.seek(start)
            chunk = handle.read(pos - start)
            cut = chunk.rfind(b"\n")
            if cut != -1:
                handle.truncate(start + cut + 1)
                handle.seek(0, os.SEEK_END)
                return
            pos = start
        handle.truncate(0)

    # -------------------------------------------------------------- compaction

    def segment_paths(self, worker_id: str | None = None) -> list[pathlib.Path]:
        """Compacted segments, sorted (= publication order per worker)."""
        pattern = f"{worker_id}-*.seg" if worker_id else "*.seg"
        return sorted(self._dir("segments").glob(pattern))

    def compact_shard(self, worker_id: str) -> pathlib.Path | None:
        """Fold the worker's JSONL shard into one compacted segment.

        The shard's complete lines are sorted by run id and published
        as a length-prefixed binary segment with a JSON footer index
        (layout below), after which the shard is truncated to empty.
        Publication is atomic (temp file + fsync + ``os.replace``) and
        ordered *before* the truncate, so a crash anywhere inside
        compaction leaves every record readable — at worst both the
        segment and the shard hold a copy, which the collector's
        dedupe-and-verify merge folds back into one.

        Segment layout (all integers little-endian)::

            record*   :=  length:u32  payload (canonical record JSON)
            footer    :=  JSON {"version", "worker_id", "count",
                                "first_run_id", "last_run_id"}
            trailer   :=  footer_length:u32  b"RQS1"

        Only the shard's owner may call this (same single-incarnation
        contract as :meth:`append_record`).  Returns the segment path,
        or ``None`` if the shard had no complete records.
        """
        validate_worker_id(worker_id)
        shard = self.shard_path(worker_id)
        entries: list[tuple[str, bytes]] = []
        try:
            with shard.open("rb") as handle:
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        break  # torn tail of a killed predecessor
                    line = raw.strip()
                    if line:
                        entries.append((json.loads(line)["run_id"], line))
        except FileNotFoundError:
            return None
        if not entries:
            return None
        entries.sort(key=lambda pair: pair[0])

        existing = self.segment_paths(worker_id)
        seq = (
            int(existing[-1].stem.rsplit("-", 1)[1]) + 1 if existing else 0
        )
        # write_segment publishes atomically and fsyncs both the file
        # and the directory entry before returning: without the latter
        # a power loss could make the (fsynced) shard truncate durable
        # while the segment's rename is not — destroying both copies of
        # the batch.  Process death alone can't produce that ordering
        # (the page cache survives), which is exactly why the SIGKILL
        # chaos harness cannot substitute for that fsync.
        path = write_segment(
            self._dir("segments") / f"{worker_id}-{seq:06d}.seg",
            [payload for _, payload in entries],
            {
                "version": 1,
                "worker_id": worker_id,
                "first_run_id": entries[0][0],
                "last_run_id": entries[-1][0],
            },
        )
        if self._compact_pause:
            time.sleep(self._compact_pause)
        with shard.open("r+b") as handle:
            handle.truncate(0)
            handle.flush()
            os.fsync(handle.fileno())
        return path

    # ------------------------------------------------------------- retry ledger

    def read_retries(self, task_id: str) -> list[dict[str, Any]]:
        """The task's failed-attempt ledger (oldest first; [] if clean)."""
        payload = _read_json(self.retries_path(task_id))
        if payload is None:
            return []
        return [dict(entry) for entry in payload.get("attempts") or ()]

    def record_failure(
        self, task: QueueTask, worker_id: str, error: str
    ) -> TaskOutcome | None:
        """Record one failed attempt; dead-letter after ``max_attempts``.

        Appends the failure to the task's retry ledger (only the lease
        holder executes a task, so ledger writes are single-writer and
        the atomic replace suffices).  While attempts remain, the lease
        is released and the task requeues — ``None`` is returned — but
        claims honour a small jittered exponential backoff first: the
        entry records ``retry_after`` (``backoff * 2**(n-1) *
        uniform(1, 2)`` seconds from now, base from the submit-time
        policy) and :meth:`try_claim_task` refuses the task until that
        timestamp passes.  On the ``max_attempts``-th failure the task
        is dead-lettered: a permanent ``failed/`` marker carrying the
        full failure provenance is written and returned.
        """
        attempts = self.read_retries(task.task_id)
        now = time.time()
        backoff = (
            self.retry_backoff * (2 ** len(attempts)) * (1.0 + random.random())
        )
        attempts.append({
            "attempt": len(attempts) + 1,
            "worker_id": worker_id,
            "error": error,
            "at": now,
            "retry_after": now + backoff,
        })
        _atomic_write_json(
            self.retries_path(task.task_id),
            {"task_id": task.task_id, "run_id": task.run_id, "attempts": attempts},
        )
        if len(attempts) >= self.max_attempts:
            return self.fail(
                task, worker_id, error,
                attempts=len(attempts), failure_log=tuple(attempts),
            )
        self.release(task.task_id, worker_id)
        return None

    # ----------------------------------------------------------------- markers

    def complete(self, task: QueueTask, worker_id: str, shard: str) -> TaskOutcome:
        """Mark a task done (marker first, then lease release).

        The marker carries the attempt count and failure provenance
        from the retry ledger, so a task that succeeded on its third
        try is distinguishable from one that sailed through.
        """
        failures = self.read_retries(task.task_id)
        outcome = TaskOutcome(
            task_id=task.task_id,
            run_id=task.run_id,
            worker_id=worker_id,
            status="done",
            shard=shard,
            attempts=len(failures) + 1,
            failure_log=tuple(failures),
        )
        _atomic_write_json(self.outcome_path(task.task_id, "done"), outcome.to_dict())
        self.release(task.task_id, worker_id)
        return outcome

    def fail(
        self,
        task: QueueTask,
        worker_id: str,
        error: str,
        attempts: int = 1,
        failure_log: tuple[dict[str, Any], ...] = (),
    ) -> TaskOutcome:
        """Dead-letter a task (permanent marker first, then release)."""
        outcome = TaskOutcome(
            task_id=task.task_id,
            run_id=task.run_id,
            worker_id=worker_id,
            status="failed",
            error=error,
            attempts=attempts,
            failure_log=failure_log,
        )
        _atomic_write_json(self.outcome_path(task.task_id, "failed"), outcome.to_dict())
        self.release(task.task_id, worker_id)
        return outcome

    def read_outcome(self, task_id: str) -> TaskOutcome | None:
        for status in ("done", "failed"):
            payload = _read_json(self.outcome_path(task_id, status))
            if payload is not None:
                return TaskOutcome.from_dict(payload)
        return None

    def outcomes(self) -> list[TaskOutcome]:
        found = []
        for status in ("done", "failed"):
            for path in sorted(self._dir(status).glob("*.json")):
                payload = _read_json(path)
                if payload is not None:
                    found.append(TaskOutcome.from_dict(payload))
        return found

    def failed_outcomes(self) -> list[TaskOutcome]:
        """Only the dead-letter markers (an O(dead) read, not O(done))."""
        found = []
        for path in sorted(self._dir("failed").glob("*.json")):
            payload = _read_json(path)
            if payload is not None:
                found.append(TaskOutcome.from_dict(payload))
        return found

    def retry_dead_letters(self, requeued_by: str = "retry") -> list[TaskOutcome]:
        """Resurrect every dead-lettered task (``repro campaign retry``).

        For each ``failed/`` marker, the full provenance — the outcome
        and its retry ledger — is first preserved as a sequence-numbered
        audit manifest under ``retried-manifests/`` (atomic write), then
        the retry ledger is cleared, and finally the marker itself is
        unlinked.  The marker unlink is the commit point: until it
        happens the task is still terminal, so a crash mid-resurrection
        leaves at worst a manifest for a task that is still
        dead-lettered — re-running ``retry`` is always safe.  After the
        unlink the task is claimable again with a fresh attempt budget.

        Returns the outcomes that were resurrected (oldest marker
        first).  Live queues are fine: workers ignore ``failed/``
        markers except as terminal states, and a cleared ledger simply
        reads as a clean task.
        """
        validate_worker_id(requeued_by)
        resurrected: list[TaskOutcome] = []
        for outcome in self.failed_outcomes():
            # Next sequence number = max existing + 1, never the file
            # *count*: a gapped sequence (an operator pruned task.01
            # but kept task.00 and task.02) must allocate task.03, not
            # silently overwrite the surviving task.02 manifest.
            seqs = [
                int(path.stem.rsplit(".", 1)[1])
                for path in self.manifests_dir().glob(f"{outcome.task_id}.*.json")
            ]
            seq = max(seqs) + 1 if seqs else 0
            manifest = self.manifests_dir() / f"{outcome.task_id}.{seq:02d}.json"
            _atomic_write_json(manifest, {
                "task_id": outcome.task_id,
                "run_id": outcome.run_id,
                "requeued_by": requeued_by,
                "requeued_at": time.time(),
                "outcome": outcome.to_dict(),
                "ledger": self.read_retries(outcome.task_id),
            })
            try:
                os.unlink(self.retries_path(outcome.task_id))
            except FileNotFoundError:
                pass
            try:
                os.unlink(self.outcome_path(outcome.task_id, "failed"))
            except FileNotFoundError:
                continue  # a concurrent retry committed first
            resurrected.append(outcome)
        return resurrected

    # ----------------------------------------------------------------- status

    def scan(self) -> QueueScan:
        """One pass over the mutable directories (markers/leases/ledgers).

        The snapshot behind both :meth:`status` and the worker's
        configuration-chunk selection, so one listing serves both.
        """
        done_ids = frozenset(p.stem for p in self._dir("done").glob("*.json"))
        failed_ids = frozenset(p.stem for p in self._dir("failed").glob("*.json"))
        retried_ids = frozenset(
            p.stem for p in self._dir("retries").glob("*.json")
        )
        now = time.time()
        leases: dict[str, Lease] = {}
        for path in self._dir("leases").glob("*.json"):
            if path.stem in done_ids or path.stem in failed_ids:
                continue  # release raced the scan; terminal wins
            lease = self.read_lease(path.stem)
            if lease is not None:
                leases[path.stem] = lease
        return QueueScan(
            done_ids=done_ids,
            failed_ids=failed_ids,
            leases=leases,
            retried_ids=retried_ids,
            now=now,
        )

    def status(
        self, with_workers: bool = False, scan: QueueScan | None = None
    ) -> QueueStatus:
        """Summarise the store (from ``scan``, or a fresh one).

        ``with_workers`` additionally reads every done marker to build
        the per-worker completion breakdown — an O(done) JSON pass
        that per-task progress reporting should not pay, so it is
        opt-in (``repro campaign status`` wants it, worker loops
        don't).
        """
        if scan is None:
            scan = self.scan()
        total = self.n_tasks
        claimed = expired = 0
        for lease in scan.leases.values():
            if lease.expired(scan.now):
                expired += 1
            else:
                claimed += 1
        workers: dict[str, int] = {}
        if with_workers:
            for task_id in sorted(scan.done_ids):
                outcome = self.read_outcome(task_id)
                if outcome is not None:
                    workers[outcome.worker_id] = workers.get(outcome.worker_id, 0) + 1
        done, failed = len(scan.done_ids), len(scan.failed_ids)
        return QueueStatus(
            total=total,
            pending=max(0, total - done - failed - claimed - expired),
            claimed=claimed,
            expired=expired,
            done=done,
            failed=failed,
            retried=len(scan.retried_ids),
            workers=workers,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueueStore({os.fspath(self.queue_dir)!r})"


# Re-exported for callers that build task ids by hand (tests, tools).
__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_RETRY_BACKOFF",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_TTL",
    "LAYOUT_VERSION",
    "QueueScan",
    "QueueStore",
    "SEGMENT_MAGIC",
    "TaskShard",
    "UNSAFE_LINK_ENV",
    "config_digest",
    "task_config",
    "task_id_for",
    "task_index",
    "validate_worker_id",
]
