"""Failure scenarios: what fails, and when.

The paper's §5 protocol:

* one failure event per run;
* the event kills a **contiguous block of ranks** ("a switch fault
  affects a branch of the fat-tree and, consequently, a contiguous
  block of ranks"), starting at rank 0 ("start") or rank N/2
  ("center");
* as many nodes fail simultaneously as the solver tolerates (ψ = ϕ);
* the failure is placed **two iterations before the end of the
  checkpoint interval containing iteration C/2** — the worst case, in
  which almost all progress since the last checkpoint is lost
  (the placement helper lives in :mod:`repro.campaign.scenarios`, since it
  needs the strategy's notion of a checkpoint).

This module provides the event/schedule types, the contiguous-block and
switch-fault generators, and — for the interval ablation — a Poisson
(exponential inter-arrival, i.e. MTBF-driven) schedule generator.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from .topology import FatTree


@dataclasses.dataclass(frozen=True)
class FailureEvent:
    """``ranks`` fail simultaneously during PCG iteration ``iteration``.

    Following DESIGN.md §3.1, "during iteration j" means immediately
    after the SpMV/ASpMV of iteration j has completed.
    """

    iteration: int
    ranks: tuple[int, ...]

    #: Fault-taxonomy tag (see :mod:`repro.faults`): which injected
    #: fault class this event realises.  Subclasses override it.
    fault_kind = "node_failure"

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ConfigurationError(f"failure iteration must be >= 0, got {self.iteration}")
        ranks = tuple(sorted({int(r) for r in self.ranks}))
        if not ranks:
            raise ConfigurationError("a failure event needs at least one rank")
        object.__setattr__(self, "ranks", ranks)

    @property
    def width(self) -> int:
        """Number of simultaneously failing nodes (ψ in the paper)."""
        return len(self.ranks)

    def to_dict(self) -> dict:
        """JSON shape (the historical ``{iteration, ranks}`` form)."""
        return {"iteration": self.iteration, "ranks": list(self.ranks)}


class FailureSchedule:
    """An ordered collection of fault events consumed by the solver.

    It holds both event families.  Fail-stop events
    (:class:`FailureEvent`, including the epoch-tagged
    :class:`~repro.faults.events.ChurnEvent`) are served by
    :meth:`pop_due`; every other event is a silent corruption
    (:class:`~repro.faults.events.SDCEvent`), served by
    :meth:`pop_corruptions`.  Both families are consumed at most once.
    """

    def __init__(self, events: Sequence = ()):
        failures = []
        corruptions = []
        for event in events:
            (failures if isinstance(event, FailureEvent) else corruptions).append(event)
        self._events = tuple(sorted(failures, key=lambda e: e.iteration))
        self._corruptions = tuple(
            sorted(corruptions, key=lambda e: (e.iteration, e.rank, e.vector))
        )
        self._cursor = 0
        self._sdc_cursor = 0

    @property
    def events(self) -> tuple[FailureEvent, ...]:
        """The fail-stop events, by iteration."""
        return self._events

    @property
    def corruptions(self) -> tuple:
        """The silent-corruption events, by (iteration, rank, vector)."""
        return self._corruptions

    def __len__(self) -> int:
        return len(self._events) + len(self._corruptions)

    def __iter__(self) -> Iterator:
        # By iteration, fail-stop before silent.
        return iter(sorted(
            self._events + self._corruptions,
            key=lambda e: (e.iteration, not isinstance(e, FailureEvent)),
        ))

    def reset(self) -> None:
        """Rewind the schedule (for re-running the same scenario)."""
        self._cursor = 0
        self._sdc_cursor = 0

    def pop_due(self, iteration: int) -> FailureEvent | None:
        """Return the next event scheduled for ``iteration``, if any.

        Events are consumed at most once.  Because recovery rolls the
        solver *back*, re-executed iterations do not re-trigger an
        already-consumed event (the paper simulates one event per run).
        """
        if self._cursor < len(self._events):
            event = self._events[self._cursor]
            if event.iteration == iteration:
                self._cursor += 1
                return event
        return None

    def pop_corruptions(self, iteration: int) -> tuple:
        """All corruption events due at ``iteration`` (consumed once)."""
        start = end = self._sdc_cursor
        if start == len(self._corruptions):
            return ()
        while end < len(self._corruptions) and self._corruptions[end].iteration == iteration:
            end += 1
        self._sdc_cursor = end
        return self._corruptions[start:end]

    def pending(self) -> int:
        """Number of not-yet-consumed events."""
        return (
            len(self._events) - self._cursor
            + len(self._corruptions) - self._sdc_cursor
        )


# ------------------------------------------------------------------ generators


def contiguous_ranks(start: int, width: int, n_nodes: int) -> tuple[int, ...]:
    """A contiguous block of ``width`` ranks starting at ``start`` (mod N)."""
    if width < 1:
        raise ConfigurationError(f"width must be >= 1, got {width}")
    if width >= n_nodes:
        raise ConfigurationError(
            f"cannot fail {width} of {n_nodes} nodes: at least one survivor is required"
        )
    return tuple(sorted((start + i) % n_nodes for i in range(width)))


def block_failure_ranks(location: str, width: int, n_nodes: int) -> tuple[int, ...]:
    """The paper's two failure locations: ``"start"`` (rank 0) and
    ``"center"`` (rank N/2)."""
    location = location.lower()
    if location == "start":
        return contiguous_ranks(0, width, n_nodes)
    if location == "center":
        return contiguous_ranks(n_nodes // 2, width, n_nodes)
    raise ConfigurationError(f"unknown failure location {location!r}; expected start|center")


def switch_fault_ranks(topology: FatTree, leaf: int, width: int | None = None) -> tuple[int, ...]:
    """Ranks killed by a fault of leaf switch ``leaf`` of a fat tree.

    If ``width`` is given, only the first ``width`` ranks under the
    switch fail (e.g. a partial branch outage); otherwise the whole
    block goes down.  This realises the paper's justification for
    contiguous-block failures.
    """
    ranks = topology.ranks_under_leaf(leaf)
    if width is not None:
        if not 1 <= width <= len(ranks):
            raise ConfigurationError(
                f"width {width} outside [1, {len(ranks)}] for leaf {leaf}"
            )
        ranks = ranks[:width]
    if len(ranks) >= topology.n_nodes:
        raise ConfigurationError("switch fault would kill every node")
    return tuple(ranks)


def poisson_schedule(
    mtbf_iterations: float,
    horizon: int,
    width: int,
    n_nodes: int,
    seed: int | None = 0,
    min_gap: int = 1,
) -> FailureSchedule:
    """Random failure schedule with exponential inter-arrival times.

    ``mtbf_iterations`` is the mean number of iterations between
    failure events (the iteration-domain analogue of the MTBF used by
    Young's/Daly's formulas).  Each event kills a contiguous block of
    ``width`` ranks at a random start position.  Used by the
    checkpoint-interval ablation (A2 in DESIGN.md).
    """
    if mtbf_iterations <= 0:
        raise ConfigurationError("mtbf_iterations must be > 0")
    if horizon < 1:
        raise ConfigurationError("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    events: list[FailureEvent] = []
    t = 0.0
    last = -min_gap
    while True:
        t += rng.exponential(mtbf_iterations)
        iteration = int(t)
        if iteration >= horizon:
            break
        if iteration - last < min_gap:
            continue
        start = int(rng.integers(0, n_nodes))
        events.append(FailureEvent(iteration, contiguous_ranks(start, width, n_nodes)))
        last = iteration
    return FailureSchedule(events)
