"""Concurrent load driver for a running solver service.

Used by ``repro serve --load`` (self-test a freshly started server)
and by the serve tests.  It is a plain ``urllib`` + thread-pool client
on purpose: it exercises the real HTTP path with zero extra
dependencies, and a handful of threads is plenty to saturate a pool of
tiny-problem sessions.

Besides latency percentiles and request rate, :func:`run_load` checks
the serve contract itself: every 200-reply must verify against its
hash stamp, and all replies sharing a request fingerprint must carry
the same ``response_digest`` (the served answer is a pure function of
the request).
"""

from __future__ import annotations

import dataclasses
import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter
from typing import Any, Mapping, Sequence

from .service import verify_response

DEFAULT_TIMEOUT = 120.0


def post_json(
    url: str, payload: Mapping[str, Any], timeout: float = DEFAULT_TIMEOUT
) -> tuple[int, dict]:
    """POST ``payload`` as JSON; returns ``(status, decoded body)``.

    Error statuses are returned, not raised — the service replies with
    a structured JSON error body that callers want to see.
    """
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as reply:
            return reply.status, json.loads(reply.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get_json(url: str, timeout: float = DEFAULT_TIMEOUT) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as reply:
        return json.loads(reply.read())


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


@dataclasses.dataclass
class LoadReport:
    """What one load run measured (seconds / requests-per-second)."""

    requests: int
    clients: int
    ok: int
    errors: int
    elapsed: float
    p50_latency: float
    p99_latency: float
    requests_per_second: float
    #: True iff every success verified against its stamp AND replies
    #: with equal request fingerprints carried equal response digests.
    digests_consistent: bool
    #: Pool counters scraped from ``GET /stats`` after the run.
    pool: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def run_load(
    base_url: str,
    payloads: Sequence[Mapping[str, Any]],
    clients: int = 4,
    timeout: float = DEFAULT_TIMEOUT,
) -> LoadReport:
    """Fire ``payloads`` at ``POST {base_url}/solve`` from a thread pool."""
    latencies: list[float] = []
    ok = errors = 0
    stamps_valid = True
    by_fingerprint: dict[str, str] = {}

    def one(payload: Mapping[str, Any]) -> None:
        nonlocal ok, errors, stamps_valid
        started = perf_counter()
        status, body = post_json(f"{base_url}/solve", payload, timeout=timeout)
        latency = perf_counter() - started
        latencies.append(latency)
        if status == 200:
            ok += 1
            if not verify_response(body):
                stamps_valid = False
            fingerprint = body.get("request_fingerprint", "")
            digest = body.get("response_digest", "")
            previous = by_fingerprint.setdefault(fingerprint, digest)
            if previous != digest:
                stamps_valid = False
        else:
            errors += 1

    started = perf_counter()
    with ThreadPoolExecutor(max_workers=max(1, clients)) as executor:
        list(executor.map(one, payloads))
    elapsed = perf_counter() - started

    latencies.sort()
    try:
        pool = get_json(f"{base_url}/stats").get("pool", {})
    except (OSError, ValueError):
        pool = {}
    return LoadReport(
        requests=len(payloads),
        clients=clients,
        ok=ok,
        errors=errors,
        elapsed=elapsed,
        p50_latency=_percentile(latencies, 0.50),
        p99_latency=_percentile(latencies, 0.99),
        requests_per_second=len(payloads) / elapsed if elapsed > 0 else 0.0,
        digests_consistent=stamps_valid,
        pool=pool,
    )
