"""Generic length-prefixed ``RQS1`` segment files.

One segment file holds a batch of byte payloads (canonical JSON in
every current use), a JSON footer describing the batch, and a fixed
8-byte trailer locating the footer::

    record*   :=  length:u32  payload
    footer    :=  JSON object (always carries "count"; writers add
                  their own fields, e.g. "task_ids"/"offsets" for
                  task segments or "worker_id"/"first_run_id"/
                  "last_run_id" for compacted spool segments)
    trailer   :=  footer_length:u32  b"RQS1"

All integers are little-endian.  The format is shared by two queue
subsystems: spool *compaction* (a worker folds its JSONL shard into a
sorted segment, :meth:`repro.queue.store.QueueStore.compact_shard`)
and the *task store* (submit batches tasks into per-shard
segments instead of one JSON file per task).  Readers validate the
trailer before trusting anything else, so a truncated or foreign file
fails loudly instead of yielding garbage records.

Publication is atomic and durable: records, footer and trailer are
written to a same-directory temp file, fsynced, ``os.replace``d into
place, and the directory entry fsynced — readers observe either no
segment or a complete one, even across power loss.
"""

from __future__ import annotations

import json
import os
import pathlib
import struct
from typing import Any, Iterator, Sequence

from ..exceptions import ConfigurationError

#: Magic trailer identifying an RQS1 segment file.
SEGMENT_MAGIC = b"RQS1"

_LEN = struct.Struct("<I")


def write_segment(
    path: pathlib.Path,
    payloads: Sequence[bytes],
    footer: dict[str, Any],
    record_offsets: bool = False,
) -> pathlib.Path:
    """Atomically publish ``payloads`` as one segment at ``path``.

    ``footer`` is extended with ``"count"`` (and, when
    ``record_offsets`` is set, a parallel ``"offsets"`` list holding
    each record's byte offset, which makes single-record random access
    a seek-and-read instead of a scan).  Returns ``path``.
    """
    footer = dict(footer)
    footer["count"] = len(payloads)
    offsets: list[int] = []
    position = 0
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}")
    with tmp.open("wb") as handle:
        for payload in payloads:
            offsets.append(position)
            handle.write(_LEN.pack(len(payload)))
            handle.write(payload)
            position += _LEN.size + len(payload)
        if record_offsets:
            footer["offsets"] = offsets
        blob = json.dumps(footer, sort_keys=True).encode()
        handle.write(blob)
        handle.write(_LEN.pack(len(blob)))
        handle.write(SEGMENT_MAGIC)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    # fsync the directory entry too: without it a power loss could keep
    # a later, dependent write (a spool truncate, spec.json) while
    # dropping the segment's rename — losing the only copy of the
    # batch.  Process death alone can't produce that ordering (the page
    # cache survives), which is why SIGKILL chaos testing cannot
    # substitute for this line.
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
    return path


def read_footer(path: pathlib.Path) -> dict[str, Any]:
    """Validate a segment's trailer and return its footer index.

    The returned footer additionally carries ``"records_end"``, the
    byte offset at which the record region stops (= where the footer
    begins), so streaming readers can verify they consumed exactly the
    indexed region.
    """
    size = path.stat().st_size
    with path.open("rb") as handle:
        if size < 8:
            raise ConfigurationError(f"{path} is too short to be a segment")
        handle.seek(size - 8)
        footer_len, magic = struct.unpack("<I4s", handle.read(8))
        if magic != SEGMENT_MAGIC:
            raise ConfigurationError(
                f"{path} lacks the {SEGMENT_MAGIC!r} segment trailer"
            )
        if footer_len + 8 > size:
            raise ConfigurationError(f"{path} declares an oversized footer")
        handle.seek(size - 8 - footer_len)
        footer = json.loads(handle.read(footer_len))
    footer["records_end"] = size - 8 - footer_len
    return footer


def iter_payloads(
    path: pathlib.Path, footer: dict[str, Any] | None = None
) -> Iterator[bytes]:
    """Stream a segment's raw record payloads in file order.

    Records are length-prefixed, so the reader never holds more than
    one record in memory; the footer (read here unless the caller
    already has it) is validated first, and the record region must end
    exactly where the footer begins.
    """
    if footer is None:
        footer = read_footer(path)
    with path.open("rb") as handle:
        for _ in range(int(footer["count"])):
            prefix = handle.read(_LEN.size)
            if len(prefix) < _LEN.size:
                raise ConfigurationError(f"{path} is truncated mid-record")
            (length,) = _LEN.unpack(prefix)
            payload = handle.read(length)
            if len(payload) < length:
                raise ConfigurationError(f"{path} is truncated mid-record")
            yield payload
        if handle.tell() != footer["records_end"]:
            raise ConfigurationError(
                f"{path} record region does not match its footer index"
            )


def read_payload_at(path: pathlib.Path, offset: int) -> bytes:
    """Read the single record starting at ``offset`` (footer-indexed).

    The random-access path behind ``load_task``: offsets come
    from the segment's own footer, so a short read here means the file
    was truncated after publication — corruption, reported loudly.
    """
    with path.open("rb") as handle:
        handle.seek(offset)
        prefix = handle.read(_LEN.size)
        if len(prefix) < _LEN.size:
            raise ConfigurationError(f"{path} is truncated mid-record")
        (length,) = _LEN.unpack(prefix)
        payload = handle.read(length)
        if len(payload) < length:
            raise ConfigurationError(f"{path} is truncated mid-record")
    return payload


__all__ = [
    "SEGMENT_MAGIC",
    "iter_payloads",
    "read_footer",
    "read_payload_at",
    "write_segment",
]
