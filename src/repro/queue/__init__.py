"""Durable, broker-less work queue for distributed campaign execution.

Scaling a sweep past one host needs no broker: a directory on a shared
POSIX filesystem *is* the queue.  ``submit`` materialises a
:class:`~repro.campaign.spec.CampaignSpec` as per-shard task segments
(one file per shard of up to 1024 tasks, not one per task);
any number of independent worker processes (one host or many, as long
as they see the same directory) claim tasks through atomic filesystem
operations, execute them through the standard
:class:`~repro.api.session.SolverSession` machinery, and stream their
records to per-worker JSONL spools; ``collect`` merges the spools into
a :class:`~repro.campaign.results.CampaignResult` that is
byte-identical to a serial run of the same spec — fittingly, the sweep
infrastructure of this checkpoint-recovery reproduction is itself
checkpointed and recoverable: killing a worker mid-sweep loses no
completed run.

On-disk layout
--------------
One queue = one directory (layout version 3)::

    queue_dir/
      spec.json            # campaign spec + n_tasks + retry policy +
                           #   the SHARD MANIFEST: one {key, config,
                           #   first_index, count} entry per task
                           #   segment, so shard metadata is O(shards)
                           #   with no directory listing.  Written
                           #   LAST by submit: its presence marks the
                           #   store live.
      tasks/<first_index:06d>-<cfg>.seg
                           # one RQS1 task segment per shard: a
                           #   configuration-contiguous span of up to
                           #   shard_size (default 1024) QueueTask
                           #   payloads, length-prefixed, with a JSON
                           #   footer carrying the shard's task ids
                           #   and per-record byte offsets (random
                           #   access = one seek + one read)
      leases/<task_id>.json    # live claims (see protocol below)
      reclaimed/<...>.json     # tombstones of expired leases (audit trail)
      done/<task_id>.json      # terminal marker -> spool shard holding the
      failed/<task_id>.json    #   record / the dead-letter provenance
      retries/<task_id>.json   # failed-attempt ledger (retry lifecycle)
      retried-manifests/<task_id>.<seq>.json  # dead-letter resurrection audit
      spool/<worker_id>.jsonl  # per-worker record shards (append-only)
      segments/<worker_id>-<seq>.seg  # compacted spool segments

Task ids are ``{index:06d}-{cfg}-{digest}``: expansion index (id order
== expansion order), ``sha256(config_key)[:6]`` (affine shard grouping
and per-shard terminal bucketing straight from the id), and
``sha256(run_id)[:10]`` (stale-store guard).  Task segments share the
``RQS1`` format with compacted spool segments (record*, JSON footer,
``footer_length:u32 + b"RQS1"`` trailer; see :mod:`repro.queue.segment`).

A layout-2 queue (one ``tasks/<task_id>.json`` file per task, no
manifest) is refused on open; ``repro campaign migrate --queue DIR``
(:meth:`~repro.queue.store.QueueStore.migrate`) converts it once, in
place, keeping its task ids and every mutable directory.

Every payload write is atomic (same-directory temp file +
``os.replace``), so readers never observe partial JSON; segment
publication additionally fsyncs file and directory entry.

Lease protocol
--------------
Leases are per **task id** and know nothing of shards.

* **Claim** — write the lease to a worker-unique temp file, then
  publish it with ``os.link`` onto ``leases/<task_id>.json``.  The link
  fails with ``FileExistsError`` for all but one caller, which is the
  whole mutual exclusion story (there is no lock server to die), and
  readers never see an empty or half-written lease.
* **Heartbeat** — lease *content* is immutable after the claim: the
  holder renews every ``ttl/4`` seconds by touching the lease file's
  **mtime** (``os.utime`` on a descriptor whose ownership it just
  verified), and readers take ``max(stored heartbeat_at, mtime)`` as
  the effective heartbeat.  Because a renewal never creates or
  rewrites the lease path, it cannot resurrect a lease that a
  reclaimer renamed away mid-renewal — a post-touch same-inode check
  reports such a lease lost instead.
* **Expiry & reclaim** — a lease whose last heartbeat is older than
  ``ttl`` is dead.  Any worker may reclaim it by *renaming* the lease
  file to a unique tombstone under ``reclaimed/`` — rename is atomic,
  so exactly one reclaimer wins — after which the task is claimable
  again via the ordinary ``os.link`` claim.
* **Completion** — the worker appends the record to its spool shard
  (flushed + fsynced), *then* writes the ``done/`` marker, *then*
  releases the lease.  A crash between spool and marker merely lets
  the task be re-executed; determinism makes the re-execution's record
  byte-equal and the collector deduplicates by run id (and verifies
  the equality).  A worker whose own heartbeat discovers the lease
  lost discards its result instead of writing a marker.

The worst case after killing a worker is therefore: tasks it had *in
flight* wait out one TTL and run again.  Nothing completed is lost,
nothing is double-counted — the ESR/ESRP story, applied to the sweep
infrastructure itself.

Retry & dead-letter lifecycle
-----------------------------
Crashes are the lease protocol's business; *failures* — a solve that
raises — are the retry policy's.  Submit records ``max_attempts``
(default 3) in ``spec.json`` so every worker applies the same bound:

* a failed attempt is appended to the task's **retry ledger**
  (``retries/<task_id>.json``: attempt number, worker id, error,
  timestamp, and the ``retry_after`` instant a small jittered
  exponential backoff expires — only the lease holder executes a
  task, so ledger writes are single-writer), the lease is released,
  and the task requeues; claims refuse it until ``retry_after``
  passes, so a deterministic failure doesn't spin hot;
* the ``max_attempts``-th failure **dead-letters** the task: a
  permanent ``failed/`` marker is written whose
  :class:`~repro.queue.state.TaskOutcome` carries the attempt count
  and the full failure log.  Dead-lettered tasks are surfaced by
  ``repro campaign status`` (the ``retried`` / ``failed`` counters)
  and block ``collect`` unless ``--allow-partial``;
* a task that eventually *succeeds* keeps its provenance: the ``done``
  marker's ``attempts``/``failure_log`` show the failed attempts that
  preceded it.  The spooled record itself is unchanged — collects stay
  byte-identical to a serial run;
* after fixing the underlying bug, ``repro campaign retry --queue DIR``
  (:meth:`~repro.queue.store.QueueStore.retry_dead_letters`) resurrects
  dead-letters: each marker + ledger is preserved as an audit manifest
  under ``retried-manifests/`` before the marker is unlinked, making
  the task claimable again with a fresh attempt budget.

Configuration-affine shard claiming
-----------------------------------
Workers do not claim task-by-task in global order (which warms every
problem configuration in every worker); they claim **shard by shard**.
The session-defining part of the run key
(:attr:`~repro.campaign.spec.RunSpec.config_key` —
problem/scale/nodes/preconditioner) is digested into every task id,
and submit cuts the expansion order into configuration-contiguous
shards of at most ``shard_size`` tasks, recorded in the ``spec.json``
manifest.  Claim ordering per chunk boundary: one scan of the mutable
directories (reused for the progress snapshot), terminal markers
bucketed per shard by their index prefix (fully-drained shards are
skipped without reading them), then the first shard with claimable
tasks whose configuration holds no live foreign lease is selected and
its remaining ids loaded from the segment footer — normally the only
per-task metadata the selection touches.  The worker drains the shard,
then moves on; if only foreign-active shards remain it steals from the
first rather than idle.  Chunk selection therefore costs O(shards) on
top of the marker scan — at 10^5+ tasks the difference between a
listing-driven scan and a manifest read is the difference between
hostile and flat (ROADMAP open item 2).  Affinity is a
preference layered *on top of* the per-task lease protocol —
correctness, crash recovery and collect byte-identity are exactly as
without it.

Compacted spool segments
------------------------
Shards are append-only JSONL; a million-run sweep would make collect
read gigabytes of text whole.  Every ``compact_every`` completed
records (default 256) a worker folds its shard into a **compacted
segment** ``segments/<worker_id>-<seq>.seg``: records sorted by run
id, each length-prefixed (``u32`` little-endian + canonical JSON),
followed by a JSON footer index and an 8-byte trailer (footer length +
magic ``RQS1``).  Publication is atomic and ordered before the shard
truncate, so a crash mid-compaction at worst duplicates records into
segment *and* shard — the collector's merge folds them back.
``collect`` then ``heapq.merge``-streams the sorted segments plus the
(bounded) shard residuals, deduplicating by run id with a
previous-record comparison — the merge holds one record per spool
source (duplicates and raw shard text never accumulate), so collect
memory is one parsed record per *run*, the floor the returned
``CampaignResult`` itself requires.

Adversarial filesystems (the ``os.link`` caveat)
------------------------------------------------
Claim atomicity rests on ``O_EXCL``-equivalent ``os.link`` semantics.
Local filesystems and NFSv3+ provide them; **classic NFSv2 does not**
(its link/create operations can be silently retried by the client and
report success twice).  There is no reliable runtime probe, so the
gate is declarative: export ``REPRO_QUEUE_LINK_UNSAFE=1`` on mounts
known to be adversarial and every claim raises a
:class:`~repro.exceptions.ConfigurationError` up front instead of
risking double execution.

Quickstart
----------
Programmatic::

    from repro.campaign import demo_spec
    from repro.queue import QueueStore, collect, run_worker

    store = QueueStore.submit(demo_spec(), "sweep.queue")
    run_worker("sweep.queue")            # or N processes / hosts of this
    result = collect("sweep.queue")      # == serial execute_campaign()

Command line::

    repro campaign submit --queue sweep.queue --spec sweep.json
    repro campaign worker --queue sweep.queue   # repeat per core / host
    repro campaign status --queue sweep.queue
    repro campaign collect --queue sweep.queue --out campaign.json

or in one step, ``repro campaign run --queue-dir sweep.queue`` /
:func:`~repro.campaign.executor.execute_campaign` with
``queue_dir=...``, which submits, drains with a local worker pool and
collects.
"""

from __future__ import annotations

from .collect import collect, iter_queue_records, iter_segment_records, iter_shard_records
from .state import Lease, QueueStatus, QueueTask, TaskOutcome
from .store import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_RETRY_BACKOFF,
    DEFAULT_SHARD_SIZE,
    DEFAULT_TTL,
    LAYOUT_VERSION,
    UNSAFE_LINK_ENV,
    QueueScan,
    QueueStore,
    TaskShard,
    config_digest,
    task_config,
    task_id_for,
    task_index,
)
from .worker import (
    DEFAULT_COMPACT_EVERY,
    QueueWorker,
    WorkerSummary,
    default_worker_id,
    run_worker,
)

__all__ = [
    "DEFAULT_COMPACT_EVERY",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_RETRY_BACKOFF",
    "DEFAULT_SHARD_SIZE",
    "DEFAULT_TTL",
    "LAYOUT_VERSION",
    "Lease",
    "QueueScan",
    "QueueStatus",
    "QueueStore",
    "QueueTask",
    "QueueWorker",
    "TaskOutcome",
    "TaskShard",
    "UNSAFE_LINK_ENV",
    "WorkerSummary",
    "collect",
    "config_digest",
    "default_worker_id",
    "iter_queue_records",
    "iter_segment_records",
    "iter_shard_records",
    "run_worker",
    "task_config",
    "task_id_for",
    "task_index",
]
