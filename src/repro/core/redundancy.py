"""The redundancy queue of §3 (Fig. 1 of the paper).

ESR/ESRP abstract the redundant copies p′ created by the augmented SpMV
as entries of a fixed-capacity queue:

* ESR  — capacity 2: every iteration pushes, the queue always holds the
  two most recent consecutive search directions;
* ESRP — capacity 3: pushes happen in pairs every T iterations, and the
  third slot guarantees that when a failure strikes *between* the two
  pushes of a storage stage, the previous complete pair is still
  available (Fig. 1).

The queue tracks iteration numbers only; the physical entry data lives
scattered in the per-node redundancy stores
(:attr:`repro.cluster.node.NodeState.redundancy`).  Eviction from the
queue triggers the corresponding drops there (done by the ASpMV
executor, which observes the evicted id returned from :meth:`push`).
"""

from __future__ import annotations

from ..exceptions import ConfigurationError


class RedundancyQueue:
    """Fixed-capacity FIFO of iteration numbers with redundant copies."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._items: list[int] = []

    # ---------------------------------------------------------------- mutation

    def push(self, iteration: int) -> int | None:
        """Push a redundant copy for ``iteration``; return evicted id.

        Idempotent: re-pushing an iteration already in the queue (which
        happens when the solver re-executes a storage iteration after a
        rollback) is a no-op.
        """
        iteration = int(iteration)
        if iteration in self._items:
            return None
        self._items.append(iteration)
        if len(self._items) > self.capacity:
            return self._items.pop(0)
        return None

    def clear(self) -> None:
        self._items.clear()

    # ----------------------------------------------------------------- queries

    @property
    def items(self) -> tuple[int, ...]:
        """Iteration numbers currently held, oldest first."""
        return tuple(self._items)

    def __contains__(self, iteration: int) -> bool:
        return int(iteration) in self._items

    def __len__(self) -> int:
        return len(self._items)

    def holds_pair(self, older: int, newer: int) -> bool:
        """True if both iterations of a consecutive pair are present."""
        return older in self and newer in self

    def render(self) -> str:
        """Fig.-1-style rendering, e.g. ``[_, p'(20), p'(21)]``."""
        slots = ["_"] * (self.capacity - len(self._items)) + [
            f"p'({j})" for j in self._items
        ]
        return "[" + ", ".join(slots) + "]"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RedundancyQueue(capacity={self.capacity}, items={self._items})"
