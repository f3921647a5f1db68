"""Stdlib HTTP transport for :class:`~repro.serve.service.SolverService`.

A deliberately small surface on ``http.server`` (no web framework in
the toolchain):

* ``GET /health``  — liveness + engine/version tag;
* ``GET /stats``   — service and pool counters;
* ``POST /solve``  — one :class:`~repro.serve.service.ServeRequest`
  as JSON; replies with the stamped response payload.

Every reply — success or failure — is a JSON object.  Errors carry the
structured ``{"error": {"type", "message"}}`` envelope from
:func:`~repro.serve.service.error_response`, mapped onto status codes:
:class:`~repro.exceptions.ConfigurationError` (a bad request) is 400,
:class:`~repro.serve.service.ServiceClosed` is 503, anything else is a
500 with the exception type preserved for the client.

:class:`SolverServer` wraps a ``ThreadingHTTPServer`` (daemon request
threads; each POST runs in its own thread, which is exactly what the
service's batch-leader design expects) and shuts down gracefully:
``stop()`` closes the service first — draining in-flight solves — then
tears the listener down.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import ConfigurationError
from .service import ServiceClosed, SolverService, error_response

#: Cap on accepted request bodies (a serve request is tiny; anything
#: bigger is a client bug, not a bigger problem).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the server's :class:`SolverService`."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> SolverService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------ plumbing

    def _reply(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, exc: BaseException) -> None:
        if isinstance(exc, ServiceClosed):
            status = 503
        elif isinstance(exc, ConfigurationError):
            status = 400
        else:
            status = 500
        self._reply(status, error_response(exc))

    # -------------------------------------------------------------------- routes

    def do_GET(self):  # noqa: N802 - stdlib dispatch name
        if self.path == "/health":
            self._reply(200, {
                "status": "draining" if self.service.closed else "ok",
                "engine": self.service.stats()["engine"],
            })
        elif self.path == "/stats":
            self._reply(200, self.service.stats())
        else:
            self._reply_error(ConfigurationError(f"no such route: GET {self.path}"))

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        if self.path != "/solve":
            self._reply_error(ConfigurationError(f"no such route: POST {self.path}"))
            return
        try:
            header = self.headers.get("Content-Length") or "0"
            length = int(header) if header.isdecimal() else -1
            if length <= 0 or length > MAX_BODY_BYTES:
                self.close_connection = True  # the body, if any, stays unread
                raise ConfigurationError(
                    f"request body must be 1..{MAX_BODY_BYTES} bytes, "
                    f"got Content-Length {header!r}"
                )
            try:
                payload = json.loads(self.rfile.read(length))
            except ValueError as exc:
                raise ConfigurationError(f"request body is not JSON: {exc}") from exc
            self._reply(200, self.service.solve(payload))
        except Exception as exc:
            self._reply_error(exc)


class SolverServer:
    """A :class:`SolverService` behind a threading HTTP listener.

    ``port=0`` binds an ephemeral port (the default, right for tests
    and the load driver); read the resolved address from
    :attr:`address` / :attr:`url` after :meth:`start`.  Usable as a
    context manager::

        with SolverServer(pool_size=4) as server:
            post_json(server.url + "/solve", request.to_dict())
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        service: SolverService | None = None,
        verbose: bool = False,
        **service_kwargs,
    ):
        self.service = service if service is not None else SolverService(**service_kwargs)
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = self.service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "SolverServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> None:
        """Drain the service, then tear down the listener.  Idempotent.

        Ordering matters: closing the service first lets in-flight
        solves finish (and late arrivals fail fast with 503) before the
        socket goes away.
        """
        self.service.close(drain=drain)
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "SolverServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def main(argv=None) -> int:
    """Console-script entry point (``repro-serve``) — same as ``repro serve``."""
    from ..cli import main as cli_main

    return cli_main(["serve", *(argv if argv is not None else [])])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
