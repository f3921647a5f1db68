"""Bounded LRU pool of :class:`~repro.api.session.SolverSession`.

The serve layer's economics rest on session reuse: one session owns a
problem's cluster, distributed matrix, factorised preconditioners and
reference trajectories, so the marginal request against a *warm*
session pays only its solve.  The pool keeps at most ``capacity``
sessions, keyed by the request's session key — the problem identity
(problem / scale / nodes), which is what the matrix, the partition and
the communication plans depend on — and evicts the least recently used
key when full.  The preconditioner is not part of the key: a slot
serves every preconditioner of its problem from the session's own
per-preconditioner caches, so a second preconditioner on a warm slot
costs one factorisation (and one reference solve if asked for), never
a second matrix.

Eviction is map-removal only: a thread still batching against an
evicted session keeps its (now private) reference and finishes
normally; the next request for that key builds a fresh session.  With
a shared ``cache_dir`` the fresh session warm-starts its reference
trajectories from the PR 3 disk spool instead of recomputing them, so
an eviction costs setup work, never correctness.

Each pooled entry carries its own lock and pending-request deque — the
batching substrate of :class:`repro.serve.service.SolverService` — and
the underlying :class:`SolverSession` is built lazily under that lock,
so concurrent first requests for one key build exactly one session.
"""

from __future__ import annotations

import collections
import threading
from typing import Callable

from ..api.session import SolverSession
from ..exceptions import ConfigurationError


class PooledSession:
    """One pool slot: a lazily-built session plus its batching state."""

    def __init__(self, key: str, factory: Callable[[], SolverSession]):
        self.key = key
        #: Serialises solves against this session (sessions are not
        #: thread-safe); whoever holds it is the batch leader.
        self.lock = threading.Lock()
        #: ``(ServeRequest, Future)`` pairs awaiting a batch leader.
        self.pending: collections.deque = collections.deque()
        self._factory = factory
        self._session: SolverSession | None = None

    @property
    def session(self) -> SolverSession:
        """The session, built on first use (call with :attr:`lock` held)."""
        if self._session is None:
            self._session = self._factory()
        return self._session

    @property
    def built(self) -> bool:
        return self._session is not None


class SessionPool:
    """Thread-safe bounded LRU map of session key → :class:`PooledSession`."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(
                f"session pool capacity must be >= 1, got {capacity}"
            )
        self.capacity = int(capacity)
        self._mutex = threading.Lock()
        self._slots: "collections.OrderedDict[str, PooledSession]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def acquire(
        self, key: str, factory: Callable[[], SolverSession]
    ) -> tuple[PooledSession, bool]:
        """The pooled session for ``key`` (created if absent) and hit/miss.

        A hit moves the key to most-recently-used; a miss inserts a
        fresh slot and evicts the LRU slot beyond capacity.  The actual
        :class:`SolverSession` build happens later, under the slot's
        own lock, so the pool mutex is never held across matrix setup.
        """
        with self._mutex:
            pooled = self._slots.get(key)
            if pooled is not None:
                self._slots.move_to_end(key)
                self.hits += 1
                return pooled, True
            pooled = PooledSession(key, factory)
            self._slots[key] = pooled
            self.misses += 1
            while len(self._slots) > self.capacity:
                self._slots.popitem(last=False)
                self.evictions += 1
            return pooled, False

    # ------------------------------------------------------------- inspection

    def keys(self) -> list[str]:
        with self._mutex:
            return list(self._slots)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._mutex:
            built = {
                key: pooled.session for key, pooled in self._slots.items() if pooled.built
            }
            return {
                "capacity": self.capacity,
                "size": len(self._slots),
                "sessions": list(self._slots),
                # What each built session has accumulated: a slot
                # serves every preconditioner of its problem, so its
                # factorisations and references grow with the traffic.
                "slots": {key: dict(s.setup_events) for key, s in built.items()},
                # ... and the host seconds those set-up stages took.
                "slot_setup_seconds": {
                    key: dict(s.setup_seconds) for key, s in built.items()
                },
                # ... and the reference-state snapshots it keeps for
                # fast-forwarded solves (count and bytes).
                "slot_snapshots": {
                    key: s.snapshot_footprint for key, s in built.items()
                },
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hit_rate,
            }
