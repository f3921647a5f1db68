"""Service-layer tests: pool reuse/eviction, batching, stamps, drain.

Everything here drives :class:`repro.serve.service.SolverService`
directly (no HTTP); the transport has its own suite in
``test_http.py``.  The load-bearing assertions:

* pool reuse is real — a second request for a key performs **zero**
  additional setup work (checked through ``SolverSession.setup_events``);
* the pool's unit is the *problem*: every preconditioner of a problem
  shares one slot, and a reply from a shared slot is byte-identical to
  the reply of a session built for that preconditioner alone;
* eviction is map-removal — the evicted problem rebuilds on return,
  warm-starting its reference from a shared cache directory;
* served answers are bit-identical to direct ``SolverSession.solve()``
  (minus ``wall_time``, which the stamp deliberately excludes);
* identical requests yield identical ``response_digest`` values, and
  the digest verifies/falsifies correctly;
* ``close(drain=True)`` waits for in-flight solves and then refuses
  new work.
"""

import threading

import pytest

from repro.api import SolveRequest, SolverSession
from repro.exceptions import ConfigurationError
from repro.serve import (
    ServeRequest,
    ServiceClosed,
    SolverService,
    canonical_report,
    verify_response,
)


def serve_request(preconditioner="block_jacobi", with_reference=False,
                  problem="emilia_923_like", **request_kwargs):
    request_kwargs.setdefault("strategy", "esr")
    request_kwargs.setdefault("T", 10)
    return ServeRequest(
        problem=problem,
        with_reference=with_reference,
        request=SolveRequest(preconditioner=preconditioner, **request_kwargs),
    )


def answer(reply):
    """A reply without the fields that describe this execution."""
    return {k: v for k, v in reply.items() if k not in ("pool", "timing")}


class TestServeRequest:
    def test_round_trips_through_dict(self):
        original = serve_request(strategy="esrp", phi=2)
        clone = ServeRequest.from_dict(original.to_dict())
        assert clone == original
        assert clone.fingerprint == original.fingerprint

    def test_session_key_is_the_problem_identity(self):
        # Matrix, partition and comm plans depend on (problem, scale,
        # nodes) only; the preconditioner is a per-solve choice inside
        # the session, so it must not split the pool.
        assert serve_request().session_key == "emilia_923_like:tiny:n4"
        assert serve_request(preconditioner="jacobi").session_key == (
            serve_request(preconditioner="block_jacobi").session_key
        )
        assert serve_request(problem="audikw_1_like").session_key == (
            "audikw_1_like:tiny:n4"
        )
        assert ServeRequest(n_nodes=2).session_key == "emilia_923_like:tiny:n2"

    def test_rejects_unknown_problem_and_keys(self):
        with pytest.raises(ConfigurationError, match="unknown problem"):
            ServeRequest(problem="not_a_problem")
        with pytest.raises(ConfigurationError, match="unknown serve request keys"):
            ServeRequest.from_dict({"problme": "typo"})

    def test_rejects_previous_x0(self):
        # "previous" depends on scheduling order under pooling/batching;
        # a served answer must be a pure function of its request.
        with pytest.raises(ConfigurationError, match="not servable"):
            serve_request(x0="previous")


class TestPoolReuse:
    def test_second_request_for_a_key_does_no_setup_work(self):
        service = SolverService(pool_size=2)
        first = service.solve(serve_request())
        pooled = service.pool._slots[serve_request().session_key]
        after_first = dict(pooled.session.setup_events)
        second = service.solve(serve_request())
        after_second = dict(pooled.session.setup_events)
        assert first["pool"]["hit"] is False
        assert second["pool"]["hit"] is True
        # Only the solve counter moved; cluster/matrix/preconditioner/
        # reference were all reused.
        after_first["solve"] += 1
        assert after_second == after_first

    def test_lru_eviction_and_warm_restart_from_disk(self, tmp_path):
        service = SolverService(pool_size=1, cache_dir=tmp_path)
        service.solve(serve_request(with_reference=True))
        # A different problem evicts the only slot ...
        service.solve(serve_request(problem="audikw_1_like"))
        assert service.pool.evictions == 1
        assert service.pool.keys() == ["audikw_1_like:tiny:n4"]
        # ... and the evicted problem rebuilds, but pulls its reference
        # trajectory from the shared spool instead of recomputing it.
        service.solve(serve_request(with_reference=True))
        rebuilt = service.pool._slots[serve_request().session_key]
        assert rebuilt.session.setup_events["reference_disk"] == 1
        assert rebuilt.session.setup_events["reference"] == 0

    def test_hit_rate_on_config_skewed_load(self):
        service = SolverService(pool_size=2)
        requests = [
            serve_request(preconditioner="jacobi" if i % 2 else "block_jacobi",
                          seed=i % 3)
            for i in range(20)
        ]
        for request in requests:
            service.solve(request)
        assert service.pool.stats()["hit_rate"] >= 0.9
        assert len(service.pool.keys()) == 1

    def test_two_preconditioners_share_one_slot(self):
        # Capacity 1 and two preconditioners: one matrix build, one
        # factorisation each, no eviction.
        service = SolverService(pool_size=1)
        requests = [
            serve_request(preconditioner=name, with_reference=True, seed=3)
            for name in ("block_jacobi", "jacobi")
        ]
        shared = [service.solve(request) for request in requests * 2]
        assert [reply["pool"]["hit"] for reply in shared] == [
            False, True, True, True,
        ]
        assert {reply["pool"]["session"] for reply in shared} == {
            "emilia_923_like:tiny:n4"
        }
        assert service.pool.evictions == 0
        events = service.pool.stats()["slots"]["emilia_923_like:tiny:n4"]
        assert events["matrix"] == 1
        assert events["preconditioner"] == 2
        assert events["reference"] == 2
        # The preconditioner really decides the answer ...
        assert shared[0]["report"] != shared[1]["report"]
        # ... and sharing the slot does not: each reply equals the one
        # from a service that has only ever seen that preconditioner.
        for request, reply, repeat in zip(requests, shared, shared[2:]):
            alone = SolverService(pool_size=1).solve(request)
            assert answer(reply) == answer(alone)
            assert answer(repeat) == answer(alone)
            assert verify_response(reply)


class TestStamps:
    def test_identical_requests_identical_digests(self):
        service = SolverService(pool_size=1)
        replies = [service.solve(serve_request()) for _ in range(3)]
        digests = {reply["response_digest"] for reply in replies}
        assert len(digests) == 1
        assert all(verify_response(reply) for reply in replies)

    def test_different_requests_different_digests(self):
        service = SolverService(pool_size=1)
        a = service.solve(serve_request(seed=1))
        b = service.solve(serve_request(seed=2))
        assert a["response_digest"] != b["response_digest"]
        assert a["request_fingerprint"] != b["request_fingerprint"]
        assert a["problem_digest"] == b["problem_digest"]

    def test_tampered_reply_fails_verification(self):
        service = SolverService(pool_size=1)
        reply = service.solve(serve_request())
        assert verify_response(reply)
        reply["report"]["iterations"] += 1
        assert not verify_response(reply)

    def test_replayed_and_real_replies_share_one_digest(self):
        real = SolverService(pool_size=1).solve(serve_request(strategy="imcr"))
        assert real["timing"]["replayed_iterations"] == 0

        warm = SolverService(pool_size=1)
        warm.solve(serve_request(strategy="imcr", with_reference=True))
        replayed = warm.solve(serve_request(strategy="imcr"))
        assert replayed["timing"]["replayed_iterations"] > 0
        assert replayed["response_digest"] == real["response_digest"]
        assert answer(replayed) == answer(real)

    def test_fast_forwarded_reply_shares_the_digest_and_shows_in_stats(self):
        from repro import FailureEvent

        failing = dict(strategy="esr", failures=[FailureEvent(30, (1,))])
        real = SolverService(pool_size=1).solve(serve_request(**failing))
        assert real["timing"]["replayed_iterations"] == 0

        warm = SolverService(pool_size=1)
        warm.solve(serve_request(strategy="esr", with_reference=True))
        capturing = warm.solve(serve_request(**failing))
        fast = warm.solve(serve_request(**failing))
        assert capturing["timing"]["replayed_iterations"] == 0
        assert 0 < fast["timing"]["replayed_iterations"] < fast["report"]["executed_iterations"]
        assert capturing["response_digest"] == fast["response_digest"] == real["response_digest"]

        pool = warm.stats()["pool"]
        (key,) = pool["sessions"]
        session = warm.pool.acquire(key, None)[0].session
        assert pool["slots"][key]["snapshot"] == 1
        assert pool["slot_snapshots"][key] == {"count": 1, "bytes": 4 * session.n * 8}

    def test_wall_time_lives_outside_the_digest(self):
        service = SolverService(pool_size=1)
        reply = service.solve(serve_request())
        assert "wall_time" not in reply["report"]
        assert reply["timing"]["wall_time"] > 0.0


class TestBitIdentity:
    def test_served_report_matches_direct_session_solve(self):
        request = serve_request(strategy="esrp", phi=2, seed=7)
        service = SolverService(pool_size=1)
        served = service.solve(request)

        session = SolverSession.from_problem(
            request.problem, request.scale, n_nodes=request.n_nodes
        )
        direct = session.solve(request.request)
        assert served["report"] == canonical_report(direct)
        assert served["problem_digest"] == session.problem_digest

    def test_concurrent_clients_all_get_the_identical_answer(self):
        # Many threads, one session key: the batch leader serves most
        # of them, stragglers solo — every reply must
        # still be byte-identical.
        service = SolverService(pool_size=1)
        request = serve_request()
        replies = [None] * 12
        errors = []

        def client(slot):
            try:
                replies[slot] = service.solve(request)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        digests = {reply["response_digest"] for reply in replies}
        assert len(digests) == 1

    def test_mixed_batch_gets_per_request_answers(self):
        # Different requests racing onto one session must each get
        # their own (correct, stable) report back, not a neighbour's.
        service = SolverService(pool_size=1)
        requests = [serve_request(seed=i) for i in range(6)]
        expected = [service.solve(r)["response_digest"] for r in requests]

        replies = [None] * len(requests)

        def client(slot):
            replies[slot] = service.solve(requests[slot])

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(len(requests))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [r["response_digest"] for r in replies] == expected


class TestErrorsAndLifecycle:
    def test_invalid_request_raises_configuration_error(self):
        service = SolverService(pool_size=1)
        with pytest.raises(ConfigurationError):
            service.solve({"problem": "not_a_problem"})
        assert service.errors == 1
        assert service.served == 0

    def test_batch_neighbours_survive_a_bad_request(self):
        # A request that validates but fails at solve time must fail
        # alone, and its batch neighbours are solved once each.
        service = SolverService(pool_size=1)
        good = serve_request()
        bad = serve_request()
        object.__setattr__(bad.request, "maxiter", -17)

        results = {}
        barrier = threading.Barrier(3)

        def client(name, request):
            barrier.wait()
            try:
                results[name] = service.solve(request)
            except Exception as exc:
                results[name] = exc

        threads = [
            threading.Thread(target=client, args=(name, request))
            for name, request in [("good1", good), ("bad", bad), ("good2", good)]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert isinstance(results["bad"], Exception)
        assert verify_response(results["good1"])
        assert results["good1"]["response_digest"] == results["good2"]["response_digest"]
        slot = service.stats()["pool"]["slots"][good.session_key]
        assert slot["solve"] == 3

    def test_close_drains_inflight_then_refuses(self):
        service = SolverService(pool_size=1)
        started = threading.Event()
        finished = {}

        def slow_client():
            started.set()
            finished["reply"] = service.solve(serve_request())

        thread = threading.Thread(target=slow_client)
        thread.start()
        started.wait()
        service.close(drain=True)
        thread.join()
        # The in-flight request completed despite the close ...
        assert verify_response(finished["reply"])
        # ... and new work is refused.
        with pytest.raises(ServiceClosed):
            service.solve(serve_request())
        stats = service.stats()
        assert stats["closed"] is True
        assert stats["inflight"] == 0
