"""The solver service: pooled sessions, batched solves, stamped replies.

A :class:`ServeRequest` names a registered problem constellation plus
the :class:`~repro.api.request.SolveRequest` to run against it; a
:class:`SolverService` serves many of them concurrently:

* sessions come from a bounded LRU :class:`~repro.serve.pool.SessionPool`
  keyed by :attr:`ServeRequest.session_key` — one slot per *problem*
  (problem / scale / nodes), serving every preconditioner of that
  problem through the session's own per-preconditioner caches;
* requests against one session are **batched**: every HTTP thread
  appends ``(request, future)`` to the session's pending deque, and
  whoever acquires the session lock first becomes the batch leader,
  solving the deque's requests one by one with
  :meth:`~repro.api.session.SolverSession.solve` in groups of
  :data:`BATCH_SIZE` while later arrivals simply wait on their futures;
* replies are **hash-stamped** (see :func:`stamp_response`): the digest
  covers the engine version, the problem-content digest, the request
  fingerprint and the canonical report, so a reply is verifiable and
  cacheable by content — identical requests produce byte-identical
  stamped payloads.

Wall-clock timing and pool metadata ride *outside* the digest (the
``timing`` / ``pool`` keys): they describe this particular execution,
not the answer.  So does ``timing.replayed_iterations``: a warm slot
replays eligible requests from its cached reference (see "Replay" in
:mod:`repro.api.session`), and the stamped reply is the same either way.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
from concurrent.futures import Future
from time import perf_counter
from typing import Any, Mapping

from .. import __version__
from ..api.request import SolveReport, SolveRequest
from ..api.session import SolverSession
from ..exceptions import ConfigurationError, ReproError
from .pool import PooledSession, SessionPool

#: Response payload schema version.
RESPONSE_VERSION = 1

#: Engine tag stamped into (and covered by) every response digest.
ENGINE = f"repro-{__version__}"

#: Default session-pool capacity.
DEFAULT_POOL_SIZE = 4

#: Number of requests a batch leader solves before handing out their
#: outcomes.
BATCH_SIZE = 8


class ServiceClosed(ReproError):
    """The service is draining/closed and accepts no new requests."""


def _canonical(payload: Mapping[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclasses.dataclass(frozen=True)
class ServeRequest:
    """One servable solve: a named problem plus the solve description.

    Unlike a bare :class:`SolveRequest`, a serve request must carry the
    *problem* too (the service owns no implicit matrix), and it must be
    order-independent: ``x0="previous"`` is rejected because under
    pooling and batching "the previous solve" depends on scheduling,
    which would make replies non-deterministic and the hash stamp
    meaningless.
    """

    problem: str = "emilia_923_like"
    scale: str = "tiny"
    n_nodes: int = 4
    request: SolveRequest = dataclasses.field(default_factory=SolveRequest)
    with_reference: bool = False

    def __post_init__(self) -> None:
        from ..matrices import available_problems, available_scales

        if self.problem not in available_problems():
            raise ConfigurationError(
                f"unknown problem {self.problem!r} "
                f"(available: {', '.join(available_problems())})"
            )
        if self.scale not in available_scales():
            raise ConfigurationError(
                f"unknown scale {self.scale!r} "
                f"(available: {', '.join(available_scales())})"
            )
        if not isinstance(self.request, SolveRequest):
            raise ConfigurationError(
                f"request must be a SolveRequest, got {type(self.request).__name__}"
            )
        if not isinstance(self.with_reference, bool):
            raise ConfigurationError(
                f"with_reference must be a boolean, got {self.with_reference!r}"
            )
        if self.request.x0 is not None:
            raise ConfigurationError(
                "x0='previous' is not servable: under a pooled, batched "
                "service the previous solve is scheduling-dependent"
            )
        self.request.validate_for(self.n_nodes)

    @property
    def session_key(self) -> str:
        """The pool key: the problem identity, *not* the preconditioner.

        What a pool slot saves is the matrix, its partition and the
        (A)SpMV communication plans, all functions of (problem, scale,
        n_nodes) alone; the preconditioner is a per-solve choice the
        session caches under ``SolveRequest.precond_key``.  The campaign
        executor memoises its sessions on the same triple.
        """
        return f"{self.problem}:{self.scale}:n{self.n_nodes}"

    @property
    def fingerprint(self) -> str:
        """Stable sha256 of the canonical request payload."""
        return hashlib.sha256(_canonical(self.to_dict())).hexdigest()

    def to_dict(self) -> dict[str, Any]:
        return {
            "problem": self.problem,
            "scale": self.scale,
            "n_nodes": self.n_nodes,
            "with_reference": self.with_reference,
            "request": self.request.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServeRequest":
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"serve request must be a JSON object, got {type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(
                f"unknown serve request keys: {sorted(unknown)}"
            )
        payload = dict(data)
        try:
            request = payload.get("request")
            if request is not None and not isinstance(request, SolveRequest):
                payload["request"] = SolveRequest.from_dict(request)
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            # A value of the wrong type or shape, e.g. ``"T": "x"`` or
            # ``"failures": 5``: the request's fault, not the service's.
            raise ConfigurationError(f"bad serve request: {exc}") from exc


def canonical_report(report: "SolveReport | Mapping[str, Any]") -> dict[str, Any]:
    """The deterministic part of a report (what the stamp covers).

    ``wall_time`` is measured host wall-clock — two runs of the same
    request legitimately differ — so it is stripped here and reported
    under the response's ``timing`` key instead.  Everything else in a
    report is modeled/deterministic by the engine's bit-identity
    contract.
    """
    payload = report.to_dict() if isinstance(report, SolveReport) else dict(report)
    payload.pop("wall_time", None)
    return payload


def stamp_response(
    problem_digest: str,
    request_fingerprint: str,
    report: dict[str, Any],
) -> dict[str, Any]:
    """Assemble the versioned, hash-stamped reply body.

    ``response_digest`` is the sha256 of the canonical JSON of every
    *deterministic* field — version, engine, problem digest, request
    fingerprint, report — so clients can verify a reply (recompute and
    compare) and cache it by content.
    """
    body = {
        "version": RESPONSE_VERSION,
        "engine": ENGINE,
        "problem_digest": problem_digest,
        "request_fingerprint": request_fingerprint,
        "report": report,
    }
    body["response_digest"] = hashlib.sha256(_canonical(body)).hexdigest()
    return body


def verify_response(response: Mapping[str, Any]) -> bool:
    """Recompute a reply's digest over its deterministic fields."""
    body = {
        key: response[key]
        for key in (
            "version", "engine", "problem_digest", "request_fingerprint",
            "report",
        )
        if key in response
    }
    expected = hashlib.sha256(_canonical(body)).hexdigest()
    return response.get("response_digest") == expected


def error_response(exc: BaseException) -> dict[str, Any]:
    """The structured error body (same envelope version as successes)."""
    return {
        "version": RESPONSE_VERSION,
        "engine": ENGINE,
        "error": {
            "type": type(exc).__name__,
            "message": str(exc),
        },
    }


class SolverService:
    """Serve :class:`ServeRequest`\\ s against a bounded session pool."""

    def __init__(
        self,
        pool_size: int = DEFAULT_POOL_SIZE,
        *,
        cache_dir=None,
        problem_seed: int = 2020,
    ):
        self.pool = SessionPool(pool_size)
        self.cache_dir = cache_dir
        self.problem_seed = int(problem_seed)
        self.served = 0
        self.errors = 0
        self._state = threading.Condition()
        self._inflight = 0
        self._closed = False

    # --------------------------------------------------------------- serving

    def solve(self, serve_request: "ServeRequest | Mapping[str, Any]") -> dict:
        """Serve one request; returns the stamped response payload.

        Raises :class:`ServiceClosed` after :meth:`close`,
        :class:`~repro.exceptions.ConfigurationError` on invalid
        requests; anything else is an internal error the transport
        layer maps to a 500.
        """
        with self._state:
            if self._closed:
                raise ServiceClosed("the solver service is shut down")
            self._inflight += 1
        started = perf_counter()
        try:
            if not isinstance(serve_request, ServeRequest):
                serve_request = ServeRequest.from_dict(serve_request)
            pooled, hit = self.pool.acquire(
                serve_request.session_key,
                lambda: self._build_session(serve_request),
            )
            report = self._solve_batched(pooled, serve_request)
            response = stamp_response(
                problem_digest=pooled.session.problem_digest,
                request_fingerprint=serve_request.fingerprint,
                report=canonical_report(report),
            )
            response["pool"] = {"session": pooled.key, "hit": hit}
            response["timing"] = {
                "wall_time": report.wall_time,
                "service_seconds": perf_counter() - started,
                "replayed_iterations": report.result.replayed_iterations,
            }
            self.served += 1
            return response
        except BaseException:
            self.errors += 1
            raise
        finally:
            with self._state:
                self._inflight -= 1
                self._state.notify_all()

    def _build_session(self, serve_request: ServeRequest) -> SolverSession:
        """The session of ``serve_request``'s pool slot.

        Reads only what :attr:`ServeRequest.session_key` is made of: the
        slot outlives this request and serves every other request for
        its problem, whatever their preconditioner.
        """
        return SolverSession.from_problem(
            serve_request.problem,
            serve_request.scale,
            n_nodes=serve_request.n_nodes,
            problem_seed=self.problem_seed,
            cache_dir=self.cache_dir,
        )

    def _solve_batched(
        self, pooled: PooledSession, serve_request: ServeRequest
    ) -> SolveReport:
        """Enqueue, then serve as batch leader or wait as passenger.

        Whoever wins the session lock drains the whole pending deque —
        including requests that arrived while earlier groups were
        solving — so a thread that blocks on the lock typically finds
        its future already completed by the leader.
        """
        future: Future = Future()
        pooled.pending.append((serve_request, future))
        with pooled.lock:
            if not future.done():
                self._drain_pending(pooled)
        return future.result()

    def _drain_pending(self, pooled: PooledSession) -> None:
        """Serve every pending request (call with the session lock held).

        Each request is solved once, on its own, so a bad request fails
        alone.  Outcomes are handed out after each batch: one leader
        solving back to back, with its passengers asleep on their
        futures, serves more requests per second than every thread
        solving its own request under the lock.
        """
        while True:
            batch = []
            while pooled.pending and len(batch) < BATCH_SIZE:
                try:
                    batch.append(pooled.pending.popleft())
                except IndexError:  # pragma: no cover - racing producers
                    break
            if not batch:
                return
            outcomes = []
            for serve_req, future in batch:
                try:
                    outcomes.append((future.set_result, pooled.session.solve(
                        serve_req.request, with_reference=serve_req.with_reference
                    )))
                except Exception as exc:
                    outcomes.append((future.set_exception, exc))
            for settle, outcome in outcomes:
                settle(outcome)

    # --------------------------------------------------------------- lifecycle

    def close(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop accepting requests; optionally wait for in-flight solves.

        Idempotent.  With ``drain=True`` (the default) the call blocks
        until every already-accepted request has finished (or
        ``timeout`` expires); new :meth:`solve` calls fail fast with
        :class:`ServiceClosed` either way.
        """
        with self._state:
            self._closed = True
            if drain:
                self._state.wait_for(
                    lambda: self._inflight == 0, timeout=timeout
                )

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------- inspection

    def stats(self) -> dict:
        with self._state:
            inflight = self._inflight
        return {
            "version": RESPONSE_VERSION,
            "engine": ENGINE,
            "served": self.served,
            "errors": self.errors,
            "inflight": inflight,
            "closed": self._closed,
            "pool": self.pool.stats(),
        }
