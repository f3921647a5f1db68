"""HTTP transport tests: routes, status mapping, concurrent clients.

A real ``ThreadingHTTPServer`` on an ephemeral port, driven through
the same ``urllib`` client the load driver uses — no mocks, so these
pin the actual wire contract ``repro serve`` exposes.
"""

import http.client
import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import SolveRequest
from repro.serve import (
    ServeRequest,
    SolverServer,
    get_json,
    post_json,
    run_load,
    verify_response,
)


@pytest.fixture(scope="module")
def server():
    with SolverServer(pool_size=2, verbose=False) as running:
        yield running


def payload(**request_kwargs):
    request_kwargs.setdefault("strategy", "esr")
    request_kwargs.setdefault("T", 10)
    return ServeRequest(request=SolveRequest(**request_kwargs)).to_dict()


class TestRoutes:
    def test_health(self, server):
        body = get_json(server.url + "/health")
        assert body["status"] == "ok"
        assert body["engine"].startswith("repro-")

    def test_stats_exposes_pool_counters(self, server):
        post_json(server.url + "/solve", payload(preconditioner="jacobi"))
        post_json(server.url + "/solve", payload(preconditioner="block_jacobi"))
        body = get_json(server.url + "/stats")
        assert body["pool"]["capacity"] == 2
        assert {"served", "errors", "inflight", "closed"} <= set(body)
        # One slot per problem, with what its session has accumulated.
        assert body["pool"]["sessions"] == ["emilia_923_like:tiny:n4"]
        slot = body["pool"]["slots"]["emilia_923_like:tiny:n4"]
        assert slot["matrix"] == 1
        assert slot["preconditioner"] == 2
        assert slot["solve"] >= 2
        # Host seconds per setup stage, beside the counts.
        seconds = body["pool"]["slot_setup_seconds"]["emilia_923_like:tiny:n4"]
        assert set(seconds) == {"matrix", "preconditioner", "reference"}
        assert seconds["matrix"] > 0.0 and seconds["preconditioner"] > 0.0

    def test_solve_round_trip(self, server):
        status, body = post_json(server.url + "/solve", payload())
        assert status == 200
        assert verify_response(body)
        assert body["report"]["converged"] is True

    def test_unknown_route_is_a_structured_400(self, server):
        status, body = post_json(server.url + "/nope", payload())
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"
        assert "no such route" in body["error"]["message"]


class TestErrorMapping:
    def test_bad_configuration_is_400(self, server):
        status, body = post_json(server.url + "/solve", {"problem": "not_a_problem"})
        assert status == 400
        assert body["error"]["type"] == "ConfigurationError"
        assert "unknown problem" in body["error"]["message"]

    def test_non_json_body_is_400(self, server):
        import urllib.request

        request = urllib.request.Request(
            server.url + "/solve", data=b"not json", method="POST"
        )
        try:
            with urllib.request.urlopen(request) as reply:  # pragma: no cover
                status = reply.status
        except urllib.error.HTTPError as exc:
            status = exc.code
            body = exc.read()
        assert status == 400
        assert b"not JSON" in body

    def test_empty_body_is_400(self, server):
        status, body = post_json(server.url + "/solve", {})
        # An empty object is a *valid* default request; an absent body
        # is not.  Check both sides of that line.
        assert status == 200
        import json
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            server.url + "/solve", data=b"", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"]["type"] == (
            "ConfigurationError"
        )


    @pytest.mark.parametrize("content_length, body", [
        pytest.param("abc", None, id="content-length-abc"),
        pytest.param("1e3", None, id="content-length-1e3"),
        pytest.param(None, {"request": {"T": "x"}}, id="T-string"),
        pytest.param(None, {"n_nodes": "4"}, id="n_nodes-string"),
        pytest.param(None, {"request": {"phi": None}}, id="phi-null"),
        pytest.param(None, {"request": {"failures": [[1]]}}, id="failure-no-ranks"),
        pytest.param(None, {"request": {"failures": 5}}, id="failures-int"),
        pytest.param(None, {"with_reference": "false"}, id="with_reference-string"),
        pytest.param(
            None,
            {"request": {"strategy": "pv", "strategy_params": {"treshold": 1e-30}}},
            id="misspelled-strategy-param",
        ),
    ])
    def test_bad_input_is_400(self, server, content_length, body):
        # A bad Content-Length goes with no body: the server replies
        # without reading one.
        data = b"" if body is None else json.dumps(body).encode()
        connection = http.client.HTTPConnection(*server.address, timeout=30)
        try:
            connection.putrequest("POST", "/solve")
            connection.putheader("Content-Length", content_length or str(len(data)))
            connection.endheaders(data)
            reply = connection.getresponse()
            status, payload = reply.status, json.loads(reply.read())
        finally:
            connection.close()
        assert status == 400
        assert payload["error"]["type"] == "ConfigurationError"


class TestConcurrentLoad:
    def test_concurrent_clients_get_consistent_stamped_replies(self, server):
        payloads = [
            payload(preconditioner="jacobi" if i % 2 else "block_jacobi")
            for i in range(12)
        ]
        report = run_load(server.url, payloads, clients=4)
        assert report.ok == 12
        assert report.errors == 0
        assert report.digests_consistent
        assert report.p50_latency > 0.0
        assert report.p99_latency >= report.p50_latency

    def test_one_slot_pool_churns_and_stays_consistent(self, tmp_path):
        # Two problems alternating onto a one-slot pool: every switch
        # evicts, and each request fingerprint is sent twice, so the
        # digest check compares replies built by different sessions.
        problems = ("emilia_923_like", "audikw_1_like")
        payloads = [
            ServeRequest(
                problem=problems[i % 2],
                request=SolveRequest(
                    strategy="esrp" if i % 4 >= 2 else "esr", T=10, phi=1
                ),
            ).to_dict()
            for i in range(8)
        ]
        with SolverServer(
            pool_size=1, cache_dir=tmp_path, verbose=False
        ) as churning:
            report = run_load(churning.url, payloads, clients=2)
        assert report.ok == 8
        assert report.errors == 0
        assert report.digests_consistent
        assert report.pool["evictions"] >= 1


class TestSharedSlot:
    def test_interleaved_preconditioners_match_the_serial_order(self):
        # Two clients, one preconditioner each, racing onto the single
        # slot of their problem: whatever the batching does, every
        # reply must carry the digest the serial order produces.
        payloads = [
            payload(preconditioner=name, seed=seed)
            for seed in range(4)
            for name in ("jacobi", "block_jacobi")
        ]
        with SolverServer(pool_size=1, verbose=False) as serial:
            expected = [
                post_json(serial.url + "/solve", item)[1]["response_digest"]
                for item in payloads
            ]
        assert len(set(expected)) == len(payloads)

        def client(url, items):
            return [post_json(url + "/solve", item)[1] for item in items]

        with SolverServer(pool_size=1, verbose=False) as shared:
            with ThreadPoolExecutor(max_workers=2) as executor:
                lanes = [
                    executor.submit(client, shared.url, payloads[lane::2])
                    for lane in range(2)
                ]
                by_lane = [lane.result(timeout=60) for lane in lanes]
            stats = get_json(shared.url + "/stats")
        replies = [by_lane[i % 2][i // 2] for i in range(len(payloads))]
        assert [reply["response_digest"] for reply in replies] == expected
        assert all(verify_response(reply) for reply in replies)
        assert stats["pool"]["evictions"] == 0
        assert stats["pool"]["slots"]["emilia_923_like:tiny:n4"]["matrix"] == 1


class TestShutdown:
    def test_stop_drains_and_late_requests_are_refused(self):
        # Fresh server (module fixture must stay up for other tests).
        server = SolverServer(pool_size=1, verbose=False).start()
        status, body = post_json(server.url + "/solve", payload())
        assert status == 200
        server.stop()
        # The listener is gone entirely; a new connection fails at the
        # socket level rather than reaching a closed service.
        import urllib.error

        with pytest.raises((urllib.error.URLError, ConnectionError, OSError)):
            post_json(server.url + "/solve", payload(), timeout=2.0)

    def test_closed_service_maps_to_503(self):
        server = SolverServer(pool_size=1, verbose=False).start()
        try:
            # Close the service but leave the listener up: requests now
            # reach a draining service and must get the 503 envelope.
            server.service.close(drain=True)
            status, body = post_json(server.url + "/solve", payload())
            assert status == 503
            assert body["error"]["type"] == "ServiceClosed"
            health = get_json(server.url + "/health")
            assert health["status"] == "draining"
        finally:
            server.stop()
