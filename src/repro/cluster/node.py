"""Per-node state of the virtual cluster.

A :class:`NodeState` owns everything that physically resides in one
node's memory and is therefore lost when the node fails:

* named local vector blocks (``store``) — e.g. the starred copies
  ``x*, r*, z*, p*`` of ESRP, or a node's own local checkpoint in IMCR;
* replicated scalars (``scalars``) — e.g. ``β*`` and ``β**``;
* the redundancy store — pieces of *other* nodes' search-direction
  entries received during augmented SpMVs, keyed by iteration and
  owning rank (the physical realisation of the paper's "redundant
  copies" p′);
* buddy checkpoints received from other nodes (IMCR).

Code that fills or empties these stores goes through the methods below
(:meth:`NodeState.keep`, :meth:`~NodeState.hold_redundant`,
:meth:`~NodeState.hold_checkpoint`, :meth:`~NodeState.drop_redundant`,
:meth:`~NodeState.wipe`), which keep
:attr:`NodeState.redundancy_nbytes`, the running byte count of all
three, so a footprint snapshot reads one integer per node instead of
re-summing every array (:meth:`~NodeState.redundancy_bytes` still does,
as the check).

Failure semantics follow the paper §4: "the nodes set to fail zero-out
all their vector entries, as well as the scalars they contain"; a
replacement node "starts without knowledge of the state of the node it
is replacing".
"""

from __future__ import annotations

from typing import Any

import numpy as np


class NodeState:
    """Dynamic memory of one virtual cluster node."""

    def __init__(self, rank: int):
        self.rank = int(rank)
        self.alive = True
        #: How many times this rank has been replaced by a spare node.
        self.incarnation = 0
        #: Named local vector blocks (starred copies, own checkpoints, ...).
        self.store: dict[str, np.ndarray] = {}
        #: Replicated scalar copies (β*, β**, checkpointed rz, ...).
        self.scalars: dict[str, float] = {}
        #: iteration -> owner rank -> (global indices, values) received via ASpMV.
        self.redundancy: dict[int, dict[int, tuple[np.ndarray, np.ndarray]]] = {}
        #: owner rank -> {name: block copy, "_scalars": {...}} received via IMCR.
        self.buddy_checkpoints: dict[int, dict[str, Any]] = {}
        #: Running :meth:`redundancy_bytes`: bytes of every array held in
        #: ``store``, ``redundancy`` and ``buddy_checkpoints``.
        self.redundancy_nbytes = 0
        #: Array bytes per ``redundancy`` iteration and per
        #: ``buddy_checkpoints`` owner, for the running count.
        self._stash_nbytes: dict[int, int] = {}
        self._checkpoint_nbytes: dict[int, int] = {}

    # -- named local blocks ------------------------------------------------------

    def keep(self, name: str, block: np.ndarray) -> None:
        """Store ``block`` under ``name``, replacing any earlier one."""
        old = self.store.get(name)
        self.redundancy_nbytes += block.nbytes - (0 if old is None else old.nbytes)
        self.store[name] = block

    # -- redundancy store ------------------------------------------------------

    def hold_redundant(
        self,
        iteration: int,
        per_owner: dict[int, tuple[np.ndarray, np.ndarray]],
        nbytes: int,
    ) -> None:
        """Store a whole ``{owner: (indices, values)}`` entry for ``iteration``.

        Replaces any entry for ``iteration``; ``nbytes`` is the bytes of
        its arrays.  The fused ASpMV's one write per recipient.
        """
        self.redundancy[iteration] = per_owner
        old = self._stash_nbytes.get(iteration, 0)
        self._stash_nbytes[iteration] = nbytes
        self.redundancy_nbytes += nbytes - old

    def drop_redundant(self, iteration: int) -> None:
        """Release the redundant copy for ``iteration`` (queue eviction)."""
        iteration = int(iteration)
        if self.redundancy.pop(iteration, None) is not None:
            self.redundancy_nbytes -= self._stash_nbytes.pop(iteration)

    def redundant_for(self, iteration: int, owner: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Entries of ``owner``'s vector held here for ``iteration``, if any."""
        per_owner = self.redundancy.get(int(iteration))
        if per_owner is None:
            return None
        return per_owner.get(int(owner))

    # -- buddy checkpoints --------------------------------------------------------

    def hold_checkpoint(self, owner: int, payload: dict[str, Any], nbytes: int) -> None:
        """Keep ``owner``'s checkpoint ``payload``, replacing the previous one.

        ``nbytes`` is the bytes of the payload's arrays.
        """
        self.buddy_checkpoints[owner] = payload
        old = self._checkpoint_nbytes.get(owner, 0)
        self._checkpoint_nbytes[owner] = nbytes
        self.redundancy_nbytes += nbytes - old

    def redundancy_bytes(self) -> int:
        """Total bytes of redundant data currently resident on this node.

        Re-sums every stored array; :attr:`redundancy_nbytes` is the
        running count.
        """
        total = 0
        for per_owner in self.redundancy.values():
            for indices, values in per_owner.values():
                total += indices.nbytes + values.nbytes
        for payload in self.buddy_checkpoints.values():
            for key, value in payload.items():
                if isinstance(value, np.ndarray):
                    total += value.nbytes
        for block in self.store.values():
            total += block.nbytes
        return total

    # -- failure semantics -------------------------------------------------------

    def wipe(self) -> None:
        """Lose all dynamic data (node failure)."""
        self.alive = False
        self.store.clear()
        self.scalars.clear()
        self.redundancy.clear()
        self.buddy_checkpoints.clear()
        self._stash_nbytes.clear()
        self._checkpoint_nbytes.clear()
        self.redundancy_nbytes = 0

    def revive(self) -> None:
        """Bring a spare node up in place of this rank (empty memory)."""
        self.alive = True
        self.incarnation += 1
