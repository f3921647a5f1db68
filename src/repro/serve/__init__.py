"""``repro.serve`` — the pooled, batched, hash-stamped solver service.

Turns the library's :class:`~repro.api.session.SolverSession` into a
long-lived HTTP service (``repro serve``) that amortises setup cost
across requests instead of paying it per process.

Architecture — three layers, each usable alone:

``pool``
    :class:`SessionPool`: a bounded LRU of solver sessions keyed by
    the problem identity ``problem:scale:n{nodes}`` (what the campaign
    executor memoises its sessions on).  One slot serves every
    preconditioner of its problem through the session's
    per-preconditioner caches.  Eviction is map-removal only —
    in-flight work finishes on its private reference — and an evicted
    problem warm-starts from the shared disk trajectory cache when it
    returns.

``service``
    :class:`SolverService`: validates :class:`ServeRequest`\\ s, runs
    them through the pool with **request batching** (concurrent
    requests for one session are solved by a single batch leader, one
    ``SolverSession.solve`` each, in groups of the constant
    ``service.BATCH_SIZE``), and wraps every answer in a **versioned,
    hash-stamped response**: ``response_digest`` is the sha256 over the
    canonical JSON of ``{version, engine, problem_digest,
    request_fingerprint, report}``.  Wall-clock timing and pool hit
    metadata live *outside* the digest; the report inside it excludes
    ``wall_time``.  Identical requests therefore yield byte-identical
    stamped payloads — the serving analogue of the queue's
    byte-identical collect.  Shutdown drains in-flight solves before
    refusing new work (:class:`ServiceClosed` → HTTP 503).

``http`` / ``load``
    A stdlib ``ThreadingHTTPServer`` transport (``GET /health``,
    ``GET /stats``, ``POST /solve``; structured JSON errors with
    ``ConfigurationError`` → 400) and a thread-pool load driver that
    measures latency percentiles / throughput and checks the stamp
    contract end to end.
"""

from .load import LoadReport, get_json, post_json, run_load
from .pool import PooledSession, SessionPool
from .service import (
    DEFAULT_POOL_SIZE,
    ENGINE,
    RESPONSE_VERSION,
    ServeRequest,
    ServiceClosed,
    SolverService,
    canonical_report,
    error_response,
    stamp_response,
    verify_response,
)
from .http import SolverServer

__all__ = [
    "DEFAULT_POOL_SIZE",
    "ENGINE",
    "RESPONSE_VERSION",
    "LoadReport",
    "PooledSession",
    "ServeRequest",
    "ServiceClosed",
    "SessionPool",
    "SolverServer",
    "SolverService",
    "canonical_report",
    "error_response",
    "get_json",
    "post_json",
    "run_load",
    "stamp_response",
    "verify_response",
]
