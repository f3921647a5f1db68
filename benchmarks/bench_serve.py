"""Serve benchmark: latency, throughput, pool economics, bit-identity.

Three cell families, all recorded into ``BENCH_serve.json``:

* **latency** — a config-skewed load (two problems, pool capacity >=
  problems, concurrent clients) against a live
  ``ThreadingHTTPServer``; records p50/p99 request latency,
  requests/sec and the session-pool hit rate.  With capacity covering
  the working set, everything after the first request per problem
  must be a pool hit.
* **pool_churn** — the same load with pool capacity **1** (every
  problem switch evicts) and a shared trajectory cache; records
  eviction count and the hit rate under churn.  No performance gate —
  the cell exists to measure what eviction costs and prove the
  service stays correct while thrashing.
* **identity** — the served, hash-stamped report must equal a direct
  in-process ``SolverSession.solve()`` report (minus ``wall_time``,
  which the stamp deliberately excludes), and repeated served replies
  must carry one identical ``response_digest``.

The acceptance gate (``--check``):

* latency: zero failed requests, stamps verified and
  digest-consistent, pool hit rate >= 0.9, and — full mode only —
  p99 latency <= 2.0 s and throughput >= 5 req/s (tiny problems;
  generous bounds so a loaded CI host doesn't flake).
* pool_churn: evictions actually happened, zero failed requests,
  digest-consistent.
* identity: byte-equality holds.
* smoke mode gates everything except the latency/throughput numbers.

Usage::

    python benchmarks/bench_serve.py            # full load
    python benchmarks/bench_serve.py --check    # + enforce gate
    python benchmarks/bench_serve.py --smoke    # CI sanity run
    python benchmarks/bench_serve.py --out other.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import tempfile

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
sys.path.insert(0, str(SRC))

from repro.api import SolveRequest, SolverSession  # noqa: E402
from repro.serve import (  # noqa: E402
    ServeRequest,
    SolverServer,
    canonical_report,
    post_json,
    run_load,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"
#: Pool hit rate the config-skewed latency cell must reach.
HIT_RATE_FLOOR = 0.9
#: Latency / throughput bounds (full mode only; tiny problems).
P99_CEILING_SECONDS = 2.0
RPS_FLOOR = 5.0

#: The serving working set: two problems — two session keys (the pool
#: is keyed by problem, not by preconditioner), exercised with skew
#: (emilia_923_like gets 3 of every 4 requests, like a production mix
#: with a hot config).
CONFIGS = ("emilia_923_like", "audikw_1_like")


def make_payloads(n_requests: int) -> list[dict]:
    return [
        ServeRequest(
            problem=CONFIGS[0] if i % 4 else CONFIGS[1],
            request=SolveRequest(
                strategy="esrp" if i % 2 else "esr", T=10, phi=1
            ),
        ).to_dict()
        for i in range(n_requests)
    ]


def run_latency(n_requests: int, clients: int) -> dict:
    payloads = make_payloads(n_requests)
    with SolverServer(pool_size=4, verbose=False) as server:
        # One warm-up request per configuration: the cell measures the
        # steady serving regime, not first-build matrix setup (the
        # pool_churn cell charges for builds).
        for problem in CONFIGS:
            status, _ = post_json(
                server.url + "/solve",
                ServeRequest(
                    problem=problem,
                    request=SolveRequest(strategy="esr", T=10),
                ).to_dict(),
            )
            assert status == 200, f"warm-up failed with {status}"
        report = run_load(server.url, payloads, clients=clients)
    row = {
        "requests": report.requests,
        "clients": clients,
        "configs": len(CONFIGS),
        "pool_size": 4,
        "ok": report.ok,
        "errors": report.errors,
        "seconds": report.elapsed,
        "requests_per_sec": report.requests_per_second,
        "p50_latency": report.p50_latency,
        "p99_latency": report.p99_latency,
        "digests_consistent": report.digests_consistent,
        "pool": report.pool,
    }
    print(
        f"latency: {row['ok']}/{row['requests']} ok with {clients} clients  "
        f"{row['requests_per_sec']:6.1f} req/s  "
        f"p50 {row['p50_latency'] * 1e3:6.1f} ms  "
        f"p99 {row['p99_latency'] * 1e3:6.1f} ms  "
        f"hit rate {row['pool'].get('hit_rate', 0.0):.0%}  "
        f"{'OK' if row['digests_consistent'] else 'DIGEST MISMATCH'}",
        flush=True,
    )
    return row


def run_pool_churn(n_requests: int, clients: int, scratch: pathlib.Path) -> dict:
    payloads = make_payloads(n_requests)
    with SolverServer(
        pool_size=1, cache_dir=scratch / "serve-cache", verbose=False
    ) as server:
        report = run_load(server.url, payloads, clients=clients)
    row = {
        "requests": report.requests,
        "clients": clients,
        "configs": len(CONFIGS),
        "pool_size": 1,
        "ok": report.ok,
        "errors": report.errors,
        "seconds": report.elapsed,
        "requests_per_sec": report.requests_per_second,
        "p99_latency": report.p99_latency,
        "digests_consistent": report.digests_consistent,
        "pool": report.pool,
    }
    print(
        f"churn:   {row['ok']}/{row['requests']} ok with pool=1  "
        f"{row['requests_per_sec']:6.1f} req/s  "
        f"{row['pool'].get('evictions', 0)} eviction(s)  "
        f"hit rate {row['pool'].get('hit_rate', 0.0):.0%}  "
        f"{'OK' if row['digests_consistent'] else 'DIGEST MISMATCH'}",
        flush=True,
    )
    return row


def run_identity() -> dict:
    serve_req = ServeRequest(
        request=SolveRequest(strategy="esrp", T=10, phi=1, seed=11)
    )
    with SolverServer(pool_size=1, verbose=False) as server:
        replies = [
            post_json(server.url + "/solve", serve_req.to_dict())
            for _ in range(3)
        ]
    assert all(status == 200 for status, _ in replies)
    digests = {body["response_digest"] for _, body in replies}
    session = SolverSession.from_problem(
        serve_req.problem, serve_req.scale, n_nodes=serve_req.n_nodes
    )
    direct = canonical_report(session.solve(serve_req.request))
    served = replies[0][1]["report"]
    row = {
        "replies": len(replies),
        "digests_stable": len(digests) == 1,
        "matches_direct_solve": served == direct,
        "problem_digest_matches": (
            replies[0][1]["problem_digest"] == session.problem_digest
        ),
    }
    print(
        f"identity: {row['replies']} replies, "
        f"{'1 digest' if row['digests_stable'] else 'DIGESTS DIVERGE'}, "
        f"direct-solve match "
        f"{'OK' if row['matches_direct_solve'] else 'MISMATCH'}",
        flush=True,
    )
    return row


def run(n_requests: int, clients: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as scratch_name:
        scratch = pathlib.Path(scratch_name)
        latency = run_latency(n_requests, clients)
        churn = run_pool_churn(max(8, n_requests // 2), clients, scratch)
        identity = run_identity()
    return {
        "benchmark": "solver service: latency, pool economics, bit-identity",
        "metric": "requests/sec and request-latency percentiles over HTTP",
        "cpu_count": os.cpu_count() or 1,
        "latency": latency,
        "pool_churn": churn,
        "identity": identity,
        "headline": {
            "requests_per_sec": latency["requests_per_sec"],
            "p50_latency": latency["p50_latency"],
            "p99_latency": latency["p99_latency"],
            "pool_hit_rate": latency["pool"].get("hit_rate", 0.0),
            "hit_rate_floor": HIT_RATE_FLOOR,
            "churn_evictions": churn["pool"].get("evictions", 0),
            "bit_identical": (
                identity["digests_stable"]
                and identity["matches_direct_solve"]
                and latency["digests_consistent"]
                and churn["digests_consistent"]
            ),
        },
    }


def check(payload: dict, smoke: bool) -> int:
    headline = payload["headline"]
    latency = payload["latency"]
    churn = payload["pool_churn"]
    failures = []
    if latency["errors"] or churn["errors"]:
        failures.append(
            f"requests failed: {latency['errors']} (latency) + "
            f"{churn['errors']} (churn)"
        )
    if not headline["bit_identical"]:
        failures.append(
            "served replies are not bit-identical to direct solves "
            "(or digests diverged across identical requests)"
        )
    if headline["pool_hit_rate"] < HIT_RATE_FLOOR:
        failures.append(
            f"pool hit rate {headline['pool_hit_rate']:.2f} < "
            f"{HIT_RATE_FLOOR} on the config-skewed load"
        )
    if headline["churn_evictions"] < 1:
        failures.append("churn cell produced no evictions (pool=1 not thrashing?)")
    if not smoke:
        if headline["p99_latency"] > P99_CEILING_SECONDS:
            failures.append(
                f"p99 latency {headline['p99_latency']:.2f}s > "
                f"{P99_CEILING_SECONDS}s"
            )
        if headline["requests_per_sec"] < RPS_FLOOR:
            failures.append(
                f"throughput {headline['requests_per_sec']:.1f} req/s < "
                f"{RPS_FLOOR} req/s"
            )
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "check passed: "
        f"{headline['requests_per_sec']:.1f} req/s, "
        f"p99 {headline['p99_latency'] * 1e3:.0f} ms, "
        f"hit rate {headline['pool_hit_rate']:.0%} "
        f"(floor {HIT_RATE_FLOOR:.0%}), "
        f"{headline['churn_evictions']} churn eviction(s), bit-identical"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help=f"output JSON path (default: {DEFAULT_OUT.name})")
    parser.add_argument("--requests", type=int, default=64,
                        help="requests in the latency cell")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads")
    parser.add_argument("--smoke", action="store_true",
                        help="small load, no latency/throughput gate "
                        "(CI sanity run)")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero unless the serve gates hold "
                        "(see module docstring)")
    args = parser.parse_args(argv)

    n_requests = 24 if args.smoke else args.requests
    payload = run(n_requests, args.clients)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if args.check:
        return check(payload, args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
