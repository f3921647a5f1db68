#!/usr/bin/env python
"""Solver-as-a-service demo: pooled sessions, batching, verified replies.

``repro serve`` turns the library's :class:`~repro.api.session.
SolverSession` into a long-lived HTTP service: sessions (cluster +
distributed matrix + factorised preconditioners + reference
trajectories) live in a bounded LRU pool, concurrent requests against
one session are batched behind one leader, and every reply is
versioned and hash-stamped so clients can verify it and cache it by
content.  This demo

1. starts a server on an ephemeral port (in production:
   ``repro serve --port 8765``),
2. fires a burst of concurrent requests over two preconditioners of
   one problem and shows one pooled session serving both,
3. verifies every reply against its hash stamp and checks that
   identical requests produced byte-identical stamped payloads,
4. shuts down gracefully, draining in-flight work.

Run:  python examples/serve_demo.py
"""

from repro.api import SolveRequest
from repro.serve import (
    ServeRequest,
    SolverServer,
    get_json,
    run_load,
    verify_response,
    post_json,
)


def main() -> None:
    # 1. A pooled service behind a threading HTTP server.  pool_size
    #    bounds resident sessions (one per problem); requests for an
    #    evicted problem transparently rebuild it.
    with SolverServer(pool_size=4, verbose=False) as server:
        print(f"serving on {server.url}")
        print(f"  health: {get_json(server.url + '/health')}\n")

        # 2. A config-skewed burst: two preconditioners (block_jacobi
        #    hot, jacobi cold) of one problem, four client threads.  The
        #    pool key is the problem, so the first request builds the
        #    session, each preconditioner is factorised once inside it,
        #    and everything after is a pool hit.
        payloads = [
            ServeRequest(
                request=SolveRequest(
                    strategy="esrp" if i % 2 else "esr",
                    T=10,
                    phi=1,
                    preconditioner="block_jacobi" if i % 4 else "jacobi",
                ),
            ).to_dict()
            for i in range(16)
        ]
        report = run_load(server.url, payloads, clients=4)
        print(f"served {report.ok}/{report.requests} requests "
              f"({report.clients} clients): "
              f"{report.requests_per_second:.1f} req/s, "
              f"p50 {report.p50_latency * 1e3:.1f} ms, "
              f"p99 {report.p99_latency * 1e3:.1f} ms")
        print(f"  pool: {report.pool.get('size')} session(s) resident, "
              f"hit rate {report.pool.get('hit_rate', 0.0):.0%}")
        assert report.errors == 0, "all requests must succeed"

        # 3. The reply contract: every stamped payload verifies, and a
        #    repeated request reproduces the exact same digest — the
        #    serving analogue of the queue's byte-identical collect.
        status, reply = post_json(server.url + "/solve", payloads[0])
        assert status == 200 and verify_response(reply)
        _, again = post_json(server.url + "/solve", payloads[0])
        identical = reply["response_digest"] == again["response_digest"]
        print(f"  reply verified; repeat request bit-identical: {identical}")
        assert identical, "identical requests must produce identical stamps"
        assert report.digests_consistent, "load replies must agree per request"

        print(f"  report: converged={reply['report']['converged']} "
              f"in {reply['report']['iterations']} iterations "
              f"(digest {reply['response_digest'][:16]}...)")

    # 4. Leaving the `with` block drained in-flight solves and closed
    #    the listener.
    print("\nserver drained and closed")


if __name__ == "__main__":
    main()
