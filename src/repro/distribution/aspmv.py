"""Augmented sparse matrix-vector product (ASpMV) — §2.2 of the paper.

The plain SpMV already copies some entries of the input vector ``p`` to
other nodes (the halo).  The *augmented* product additionally sends the
entries that would otherwise reach fewer than ϕ other nodes, so that
after the product **every entry of p is held by at least ϕ nodes other
than its owner** — enough to survive ϕ simultaneous node failures.

Destination choice (Eq. 1): the ϕ nearest neighbours of node ``s``::

    d_{s,k} = (s + ceil(k/2)) mod N   if k odd
            = (s - k/2)       mod N   if k even

Selection rule ``Rc_{s,k}`` (which entries to send additionally to
``d_{s,k}``): the paper prints ``m(i) - g(i) < ϕ - k``, where ``m(i)``
is the number of nodes entry ``i`` is naturally sent to, and ``g(i)``
how many of those are designated destinations.  As printed, the rule
violates its own invariant (with ϕ=1 and an entry that is sent nowhere,
``0 < 0`` fails and the entry is never replicated).  We implement the
corrected rule ``m(i) - g(i) <= ϕ - k``:

    Let c = m - g (copies at non-designated nodes).  Entry i is sent to
    the designated nodes d_k with k <= ϕ - c (those not already natural
    recipients).  Counting holders: c non-designated + g natural
    designated + (ϕ - c - g') added designated, where g' <= g of the
    natural designated fall into k <= ϕ - c.  Total >= c + g + ϕ - c -
    g' >= ϕ.  ∎

A ``greedy`` variant keeps a running copy counter and sends the minimal
number of extras; both rules are property-tested for the invariant.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Protocol

import numpy as np

from ..exceptions import ConfigurationError, IrrecoverableDataLossError
from .comm_plan import SpMVPlan
from .matrix import DistributedMatrix
from .partition import BlockRowPartition
from .spmv import HALO_CHANNEL, SpMVExecutor
from .vector import DistributedVector

#: Statistics channel for the redundancy traffic added by ASpMV.
EXTRA_CHANNEL = "aspmv_extra"
#: Statistics channel for recovery-time gathering of redundant copies.
RECOVERY_CHANNEL = "recovery"


class SupportsPush(Protocol):
    """Anything that behaves like the redundancy queue of §3."""

    def push(self, iteration: int) -> int | None:  # pragma: no cover - protocol
        """Record a new redundant copy; return the evicted iteration, if any."""
        ...


def eq1_destinations(src: int, phi: int, n_nodes: int) -> tuple[int, ...]:
    """The ϕ designated destination nodes of ``src`` per Eq. (1).

    After modular wraparound, candidates equal to ``src`` or already
    chosen are skipped (relevant only for small clusters); ϕ is capped
    at ``n_nodes - 1`` since there are no more distinct destinations.
    """
    if phi < 0:
        raise ConfigurationError(f"phi must be >= 0, got {phi}")
    wanted = min(phi, n_nodes - 1)
    chosen: list[int] = []
    k = 0
    while len(chosen) < wanted:
        k += 1
        if k > 4 * n_nodes:  # pragma: no cover - defensive, unreachable
            raise ConfigurationError("could not find enough distinct destinations")
        if k % 2 == 1:
            candidate = (src + (k + 1) // 2) % n_nodes
        else:
            candidate = (src - k // 2) % n_nodes
        if candidate != src and candidate not in chosen:
            chosen.append(candidate)
    return tuple(chosen)


def switch_aware_destinations(
    src: int, phi: int, n_nodes: int, topology
) -> tuple[int, ...]:
    """Failure-domain-aware variant of Eq. (1) (extension, paper §2.2).

    The paper motivates contiguous-block failures with switch faults —
    but Eq. (1) places the redundant copies on the *nearest* ranks,
    which sit under the *same* leaf switch: exactly the nodes that die
    together with the owner.  This selector walks the Eq.-(1) candidate
    order but prefers destinations under a different leaf switch, so a
    whole-switch fault can never take out an entry together with all of
    its copies.  ("Optimization of our strategies taking ... the
    network topology of the cluster into consideration ... is ongoing
    work" — §2.2.1.)

    Falls back to same-leaf candidates only when fewer than ϕ
    cross-leaf nodes exist.
    """
    if phi < 0:
        raise ConfigurationError(f"phi must be >= 0, got {phi}")
    wanted = min(phi, n_nodes - 1)
    src_leaf = topology.leaf_of(src)
    preferred: list[int] = []
    fallback: list[int] = []
    k = 0
    while len(preferred) < wanted and k < 4 * n_nodes:
        k += 1
        if k % 2 == 1:
            candidate = (src + (k + 1) // 2) % n_nodes
        else:
            candidate = (src - k // 2) % n_nodes
        if candidate == src or candidate in preferred or candidate in fallback:
            continue
        if topology.leaf_of(candidate) != src_leaf:
            preferred.append(candidate)
        else:
            fallback.append(candidate)
    chosen = (preferred + fallback)[:wanted]
    return tuple(chosen)


@dataclasses.dataclass(frozen=True)
class ExtraTransfer:
    """Redundancy entries ``src`` must send to ``dst`` on top of the halo."""

    src: int
    dst: int
    local_indices: np.ndarray
    global_indices: np.ndarray
    #: True if a natural halo message src->dst exists (extras piggy-back).
    piggyback: bool

    @property
    def count(self) -> int:
        return int(self.local_indices.size)


class RedundancyPlan:
    """Which extra entries each node sends where, for a target ϕ.

    Depends only on (matrix plan, ϕ, rule, destinations), so
    :meth:`ASpMVExecutor.plan_for` builds it once per matrix plan and
    key, and every augmented product of every solve reuses it.
    """

    def __init__(
        self,
        plan: SpMVPlan,
        phi: int,
        rule: str = "paper",
        destinations: str = "eq1",
        topology=None,
    ):
        if rule not in ("paper", "greedy"):
            raise ConfigurationError(f"unknown ASpMV rule {rule!r}; expected paper|greedy")
        if destinations not in ("eq1", "switch_aware"):
            raise ConfigurationError(
                f"unknown destination policy {destinations!r}; expected eq1|switch_aware"
            )
        if destinations == "switch_aware" and topology is None:
            raise ConfigurationError("switch_aware destinations need a FatTree topology")
        if phi < 1:
            raise ConfigurationError(f"phi must be >= 1 for redundancy, got {phi}")
        self.plan = plan
        self.partition = plan.partition
        self.rule = rule
        self.destination_policy = destinations
        self.phi_requested = int(phi)
        self.phi = min(int(phi), plan.n_nodes - 1)
        self.extras: list[list[ExtraTransfer]] = []
        self.designated: list[tuple[int, ...]] = []

        for src in range(plan.n_nodes):
            lo, _ = self.partition.bounds(src)
            n_local = self.partition.size_of(src)
            if destinations == "switch_aware":
                dests = switch_aware_destinations(src, self.phi, plan.n_nodes, topology)
                # Failure-domain-aware multiplicity: natural copies under
                # the owner's own leaf switch die together with it, so
                # they must not count towards the redundancy target.
                src_leaf = topology.leaf_of(src)
                m = np.zeros(n_local, dtype=np.int64)
                for descriptor in plan.sends[src]:
                    if topology.leaf_of(descriptor.dst) != src_leaf:
                        m[descriptor.local_indices] += 1
            else:
                dests = eq1_destinations(src, self.phi, plan.n_nodes)
                m = plan.multiplicity(src)
            self.designated.append(dests)
            natural = {d.dst: d for d in plan.sends[src]}

            member = np.zeros((len(dests), n_local), dtype=bool)
            for row, dst in enumerate(dests):
                descriptor = natural.get(dst)
                if descriptor is not None:
                    member[row, descriptor.local_indices] = True
            g = member.sum(axis=0)

            transfers: list[ExtraTransfer] = []
            if self.rule == "greedy":
                copies = m.copy()
                for row, dst in enumerate(dests):
                    mask = (~member[row]) & (copies < self.phi)
                    copies[mask] += 1
                    transfers.append(self._make_transfer(src, dst, mask, lo, natural))
            else:
                for row, dst in enumerate(dests):
                    k = row + 1
                    mask = (~member[row]) & (m - g <= self.phi - k)
                    transfers.append(self._make_transfer(src, dst, mask, lo, natural))
            self.extras.append([t for t in transfers if t.count > 0])

        #: Fused-kernel cache (built lazily; see :meth:`flat_cache`).
        self._flat_cache: FlatRedundancyCache | None = None

    def flat_cache(self) -> "FlatRedundancyCache":
        """Precomputed gather/stash/message caches for the fused ASpMV."""
        if self._flat_cache is None:
            self._flat_cache = FlatRedundancyCache(self)
        return self._flat_cache

    @staticmethod
    def _make_transfer(
        src: int,
        dst: int,
        mask: np.ndarray,
        lo: int,
        natural: dict[int, object],
    ) -> ExtraTransfer:
        local = np.flatnonzero(mask).astype(np.int64)
        descriptor = natural.get(dst)
        piggyback = descriptor is not None and descriptor.count > 0  # type: ignore[attr-defined]
        return ExtraTransfer(
            src=src,
            dst=dst,
            local_indices=local,
            global_indices=local + lo,
            piggyback=piggyback,
        )

    # ------------------------------------------------------------------ queries

    def extra_entries(self, src: int | None = None) -> int:
        """Extra vector entries sent per augmented product."""
        sources = range(self.plan.n_nodes) if src is None else (src,)
        return sum(t.count for s in sources for t in self.extras[s])

    def copy_holders(self, src: int) -> list[set[int]]:
        """For each local index of ``src``: the set of non-owner holders.

        Combines natural halo recipients and extra destinations — used
        by tests to verify the ≥ϕ invariant.
        """
        holders: list[set[int]] = [set() for _ in range(self.partition.size_of(src))]
        for descriptor in self.plan.sends[src]:
            for li in descriptor.local_indices:
                holders[li].add(descriptor.dst)
        for transfer in self.extras[src]:
            for li in transfer.local_indices:
                holders[li].add(transfer.dst)
        return holders

    def min_copies(self) -> int:
        """Minimum non-owner copy count over all entries (≥ ϕ required)."""
        lowest = None
        for src in range(self.plan.n_nodes):
            holders = self.copy_holders(src)
            for entry_holders in holders:
                count = len(entry_holders)
                lowest = count if lowest is None else min(lowest, count)
        return 0 if lowest is None else lowest


class FlatRedundancyCache:
    """Index and message caches for the fused augmented product.

    An augmented product stashes, on each recipient, what the plan
    sends it: for each source rank in ascending order, its non-empty
    natural send descriptors, then its extra redundancy transfers.  A
    recipient therefore holds, per owner, the natural halo piece
    followed by the extra piece.  This cache lays those runs out per
    recipient, so the fused execution writes each recipient's whole
    entry at once:

    * ``stash_gather`` — global indices whose single fused gather
      ``packed = x_flat[stash_gather]`` yields every recipient's stash
      back to back (recipients ascending, owners ascending within one,
      natural piece before extra piece within one owner);
    * ``stashes`` — ``(dst, ((owner, global_indices, start, stop), ...))``
      per recipient: ``packed[start:stop]`` are the values stored for
      ``owner`` on ``dst``, ``global_indices`` (the two
      pieces' indices, concatenated once here) their indices;
      ``stash_nbytes`` — the bytes of each recipient's stash arrays;
    * ``messages`` / ``merged`` — the exchange's message and piggyback
      payload lists in plan order (natural halo entries
      on the halo channel, extras on the redundancy channel), so the
      compiled exchange charges the same phase, bit for bit.
    """

    def __init__(self, redundancy: "RedundancyPlan"):
        plan = redundancy.plan
        # pieces[dst][owner]: the index arrays stashed on dst for
        # owner, in stash order.
        pieces: dict[int, dict[int, list[np.ndarray]]] = {}
        messages: list[tuple[int, int, int, str, bool]] = []
        merged: list[tuple[int, int, int, str]] = []
        for src in range(plan.n_nodes):
            for descriptor in plan.sends[src]:
                if descriptor.count == 0:
                    continue
                nbytes = descriptor.count * 8
                messages.append((src, descriptor.dst, nbytes, HALO_CHANNEL, False))
                pieces.setdefault(descriptor.dst, {}).setdefault(src, []).append(
                    descriptor.global_indices
                )
            for transfer in redundancy.extras[src]:
                nbytes = transfer.count * 8
                if transfer.piggyback:
                    merged.append((src, transfer.dst, nbytes, EXTRA_CHANNEL))
                else:
                    messages.append((src, transfer.dst, nbytes, EXTRA_CHANNEL, False))
                pieces.setdefault(transfer.dst, {}).setdefault(src, []).append(
                    transfer.global_indices
                )
        gather_parts: list[np.ndarray] = []
        layout = []
        offset = 0
        for dst in sorted(pieces):
            group = []
            for owner in sorted(pieces[dst]):
                parts = pieces[dst][owner]
                size = sum(part.size for part in parts)
                gather_parts.extend(parts)
                group.append((owner, offset, offset + size))
                offset += size
            layout.append((dst, group))
        self.stash_gather = (
            np.concatenate(gather_parts).astype(np.int64, copy=False)
            if gather_parts
            else np.empty(0, dtype=np.int64)
        )
        # Every solve's stashes share these indices: none may write them.
        self.stash_gather.flags.writeable = False
        # A stash's indices are its own run of the gather (a view, so
        # the plan holds the indices once).
        self.stashes = tuple(
            (
                dst,
                tuple(
                    (owner, self.stash_gather[start:stop], start, stop)
                    for owner, start, stop in group
                ),
            )
            for dst, group in layout
        )
        #: Array bytes of each recipient's stash, aligned with ``stashes``.
        self.stash_nbytes = tuple(
            sum(indices.nbytes + (stop - start) * 8 for _owner, indices, start, stop in group)
            for _dst, group in self.stashes
        )
        self.messages = tuple(messages)
        self.merged = tuple(merged)
        #: CompiledExchange for (messages, merged); built lazily by the
        #: vectorized backend against the owning cluster (the plan's).
        self.compiled = None


class ASpMVExecutor(SpMVExecutor):
    """SpMV that additionally materialises a redundant copy of ``p``.

    ``multiply_augmented(x, iteration, queue)`` charges the message
    phase first (a dead rank raises before any store or the queue is
    touched), then performs the plain product *and*:

    * stashes every naturally communicated piece of ``x`` in the
      recipient's redundancy store under key ``iteration`` (these
      copies count towards ϕ),
    * sends/stashes the extra entries of the redundancy plan,
      piggy-backing on natural messages where possible,
    * pushes ``iteration`` into the redundancy queue and drops evicted
      iterations from every node's store.

    Building one is cheap: the redundancy plan comes from
    :meth:`plan_for`.  Only the stash arrays are per product.
    """

    def __init__(
        self,
        matrix: DistributedMatrix,
        phi: int,
        rule: str = "paper",
        destinations: str = "eq1",
    ):
        super().__init__(matrix)
        self.redundancy = self.plan_for(matrix, phi, rule, destinations)

    @staticmethod
    def plan_for(
        matrix: DistributedMatrix, phi: int, rule: str, destinations: str
    ) -> RedundancyPlan:
        """The matrix plan's :class:`RedundancyPlan` for (ϕ, rule, destinations).

        Built on first request and kept on the
        :class:`~repro.distribution.comm_plan.SpMVPlan`, like its
        compiled halos, together with its :class:`FlatRedundancyCache`
        and compiled exchange once a product has used them.  A
        :class:`~repro.api.SolverSession` keeps one matrix for all its
        solves, so each key is built once per session.
        """
        key = (int(phi), rule, destinations)
        plans = matrix.plan._redundancy_plans
        redundancy = plans.get(key)
        if redundancy is None:
            topology = matrix.cluster.topology if destinations == "switch_aware" else None
            redundancy = RedundancyPlan(
                matrix.plan, phi, rule=rule, destinations=destinations, topology=topology
            )
            plans[key] = redundancy
        return redundancy

    @property
    def phi(self) -> int:
        return self.redundancy.phi

    def multiply_augmented(
        self,
        x: DistributedVector,
        iteration: int,
        queue: SupportsPush,
        out: DistributedVector | None = None,
    ) -> DistributedVector:
        """``out = A @ x`` while storing a redundant copy of ``x``."""
        out = self._output(x, out)
        self.kernels.aspmv(self, x, iteration, queue, out)
        return out


def gather_redundant_copy(
    cluster,
    partition: BlockRowPartition,
    iteration: int,
    failed_ranks: Iterable[int],
    channel: str = RECOVERY_CHANNEL,
) -> dict[int, np.ndarray]:
    """Collect ``p'^{(iteration)}_{I_f}`` from the surviving nodes.

    For every failed rank (whose replacement is alive but empty), every
    surviving node sends whatever pieces of that rank's entries it holds
    for ``iteration``.  Returns ``{rank: local block of p}``.

    Raises
    ------
    IrrecoverableDataLossError
        If some lost entry is not covered by any surviving copy (more
        failures than ϕ, or the queue no longer holds the iteration).
    """
    failed = tuple(sorted({int(r) for r in failed_ranks}))
    out: dict[int, np.ndarray] = {}
    messages = []
    coverage: dict[int, np.ndarray] = {}
    for rank in failed:
        n_local = partition.size_of(rank)
        lo, _ = partition.bounds(rank)
        values = np.full(n_local, np.nan, dtype=np.float64)
        covered = np.zeros(n_local, dtype=bool)
        for node in cluster.nodes:
            if not node.alive or node.rank == rank or node.rank in failed:
                continue
            piece = node.redundant_for(iteration, rank)
            if piece is None:
                continue
            indices, piece_values = piece
            local = indices - lo
            messages.append(
                (node.rank, rank, indices.nbytes + piece_values.nbytes, channel, False)
            )
            values[local] = piece_values
            covered[local] = True
        out[rank] = values
        coverage[rank] = covered
    if messages:
        cluster.exchange(messages)
    for rank in failed:
        covered = coverage[rank]
        n_local = partition.size_of(rank)
        if not covered.all():
            missing = int((~covered).sum())
            raise IrrecoverableDataLossError(
                f"no surviving copy for {missing} of {n_local} entries of rank {rank} "
                f"at iteration {iteration}; redundancy phi was too small for this failure"
            )
    return out
