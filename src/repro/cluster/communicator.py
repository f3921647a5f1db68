"""The virtual cluster: N simulated nodes, clocks, accounting, failures.

:class:`VirtualCluster` plays the role MPI plays in the paper's C
framework.  It does **not** move data itself — the distribution layer
(:mod:`repro.distribution`) performs the actual numpy transfers — but
every transfer must be *declared* here so that:

* per-node simulated clocks advance according to the
  :class:`~repro.cluster.cost_model.CostModel` (this yields the
  "runtime" the benchmarks report),
* per-channel traffic statistics accumulate
  (:class:`~repro.cluster.statistics.ClusterStats`),
* failed nodes cannot be used (``DeadNodeError``), matching the MPI
  reality that a message to a dead rank never completes.

Clock semantics (a postal model):

* ``compute(rank, flops)`` advances only that node's clock;
* ``send(src, dst, nbytes)`` makes the sender busy for the message time
  and the receiver's clock at least the sender's finish time (receive
  completion);
* collectives synchronise all alive clocks to the common finish time —
  PCG's dot products are allreduces and act as barriers, which is what
  makes "max over nodes" the right makespan notion here.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from ..exceptions import ClusterError, ConfigurationError, DeadNodeError
from .cost_model import CostModel
from .node import NodeState
from .statistics import ClusterStats
from .topology import FatTree, Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..distribution.vector import DistributedVector
    from ..kernels.base import KernelBackend


#: Compiled bills a cluster keeps per kind before starting afresh.
MAX_BILLS = 256


class VirtualCluster:
    """A simulated distributed-memory machine with unreliable nodes."""

    def __init__(
        self,
        n_nodes: int,
        cost_model: CostModel | None = None,
        topology: Topology | None = None,
        seed: int | None = 0,
    ):
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        self.n_nodes = int(n_nodes)
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.topology = topology if topology is not None else FatTree(self.n_nodes)
        if self.topology.n_nodes != self.n_nodes:
            raise ConfigurationError(
                f"topology is sized for {self.topology.n_nodes} nodes, cluster has {self.n_nodes}"
            )
        self.rng = np.random.default_rng(seed)
        self.nodes = [NodeState(rank) for rank in range(self.n_nodes)]
        self.clocks = np.zeros(self.n_nodes, dtype=np.float64)
        self.stats = ClusterStats(self.n_nodes)
        #: Vectors whose blocks must be wiped when a node fails.
        self._registered_vectors: list[weakref.ReferenceType] = []
        #: Number of currently failed nodes (fast-path guard).
        self._dead_count = 0
        #: Compiled bills per charge profile, found by the profile's
        #: identity (:meth:`charge_compute`); each keeps its profile alive.
        self._compute_bills: dict[int, CompiledBill] = {}
        self._memcpy_bills: dict[int, CompiledBill] = {}
        #: Bills built once per cluster under a caller's key (:meth:`compiled`).
        self._compiled: dict[tuple, object] = {}
        #: Model cost of a whole-cluster allreduce, per payload size.
        self._allreduce_costs: dict[int, float] = {}
        #: Compute-kernel backend; the library default ("vectorized")
        #: until one is assigned, built on first access.
        self._kernels: "KernelBackend | None" = None

    # ------------------------------------------------------------------ basics

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dead = [n.rank for n in self.nodes if not n.alive]
        return f"VirtualCluster(n_nodes={self.n_nodes}, time={self.elapsed():.3e}s, dead={dead})"

    def node(self, rank: int) -> NodeState:
        """The :class:`NodeState` for ``rank`` (alive or not)."""
        if not 0 <= rank < self.n_nodes:
            raise ConfigurationError(f"rank {rank} outside [0, {self.n_nodes})")
        return self.nodes[rank]

    def require_alive(self, rank: int) -> NodeState:
        node = self.node(rank)
        if not node.alive:
            raise DeadNodeError(f"rank {rank} is failed")
        return node

    def alive_ranks(self) -> tuple[int, ...]:
        return tuple(n.rank for n in self.nodes if n.alive)

    def dead_ranks(self) -> tuple[int, ...]:
        return tuple(n.rank for n in self.nodes if not n.alive)

    def elapsed(self) -> float:
        """Simulated makespan so far (max over node clocks)."""
        return float(self.clocks.max())

    @property
    def kernels(self) -> "KernelBackend":
        """The compute-kernel backend executing this cluster's numerics.

        The library default until assigned; assignable at any time (a
        name in the :data:`~repro.api.registry.KERNELS` registry, a
        backend instance, or ``None`` for the default).  Switching
        backends between solves is safe because per-plan index caches
        live on the plan objects, not on the backend.
        """
        if self._kernels is None:
            from ..kernels import resolve_backend

            self._kernels = resolve_backend(None)
        return self._kernels

    @kernels.setter
    def kernels(self, backend: "str | KernelBackend | None") -> None:
        from ..kernels import resolve_backend

        self._kernels = resolve_backend(backend)

    def reset(self, seed: int | None = None) -> None:
        """Return the cluster to its pristine t = 0 state.

        Fresh nodes (all alive, empty memory), zeroed clocks, fresh
        statistics, no registered vectors — indistinguishable from a
        newly constructed cluster, so a :class:`~repro.api.SolverSession`
        can reuse one cluster (and everything bound to it, like the
        distributed matrix) across many independent solves.  ``seed``
        restarts the noise RNG; ``None`` keeps the current stream.
        """
        if seed is not None:
            self.rng = np.random.default_rng(seed)
        self.nodes = [NodeState(rank) for rank in range(self.n_nodes)]
        self.clocks = np.zeros(self.n_nodes, dtype=np.float64)
        self.stats = ClusterStats(self.n_nodes)
        self._registered_vectors = []
        self._dead_count = 0

    # --------------------------------------------------------------- accounting

    def _charge(self, seconds: float) -> float:
        return self.cost_model.perturb(seconds, self.rng)

    def compute(self, rank: int, flops: float) -> None:
        """Charge ``flops`` of computation to ``rank``'s clock."""
        self.require_alive(rank)
        self.clocks[rank] += self._charge(self.cost_model.compute_time(flops))
        self.stats.record_compute(rank, flops)

    def memcpy(self, rank: int, nbytes: int) -> None:
        """Charge a local memory copy to ``rank``'s clock."""
        self.require_alive(rank)
        self.clocks[rank] += self._charge(self.cost_model.memcpy_time(nbytes))
        self.stats.record_local_copy(rank, nbytes)

    def charge(
        self,
        compute: Iterable[tuple[int, float]] = (),
        memcpy: Iterable[tuple[int, float]] = (),
    ) -> None:
        """Charge batches of per-rank costs declared analytically.

        ``compute`` is a sequence of ``(rank, flops)`` pairs, ``memcpy``
        a sequence of ``(rank, nbytes)`` pairs (all amounts >= 0).  The
        effect — clocks, statistics, liveness validation and cost-noise
        RNG draws — is exactly that of issuing the individual
        :meth:`compute` / :meth:`memcpy` calls in order (all compute
        items first, then all memcpy items); the loop is merely inlined
        so fused kernels can declare a whole operation's bill,
        precomputed from the communication plan, in one call instead of
        incurring it inside a per-rank numeric loop (see
        :mod:`repro.kernels`).
        """
        cost_model = self.cost_model
        gamma = cost_model.gamma
        mu = cost_model.mu
        noisy = cost_model.noise != 0.0
        clocks = self.clocks
        nodes = self.nodes
        stats = self.stats
        for rank, flops in compute:
            if not nodes[rank].alive:
                raise DeadNodeError(f"rank {rank} is failed")
            if flops < 0:
                raise ConfigurationError(f"flops must be >= 0, got {flops}")
            seconds = flops * gamma
            if noisy:
                seconds = cost_model.perturb(seconds, self.rng)
            clocks[rank] += seconds
            stats.record_compute(rank, flops)
        for rank, nbytes in memcpy:
            if not nodes[rank].alive:
                raise DeadNodeError(f"rank {rank} is failed")
            if nbytes < 0:
                raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
            seconds = nbytes * mu
            if noisy:
                seconds = cost_model.perturb(seconds, self.rng)
            clocks[rank] += seconds
            stats.record_local_copy(rank, nbytes)

    def send(self, src: int, dst: int, nbytes: int, channel: str) -> None:
        """Charge one point-to-point message ``src -> dst``."""
        self.require_alive(src)
        self.require_alive(dst)
        if src == dst:
            raise ClusterError(f"rank {src} cannot send to itself")
        hops = self.topology.hops(src, dst)
        cost = self._charge(self.cost_model.message_time(nbytes, hops))
        self.clocks[src] += cost
        self.clocks[dst] = max(self.clocks[dst], self.clocks[src])
        self.stats.record_message(src, dst, nbytes, channel)

    def exchange(
        self,
        messages: Iterable[tuple[int, int, int, str, bool]],
        piggyback: Iterable[tuple[int, int, int, str]] = (),
    ) -> None:
        """Charge one *concurrent* communication phase.

        ``messages``: ``(src, dst, nbytes, channel, ...)`` point-to-point
        messages that all start simultaneously (an SpMV halo exchange, a
        checkpoint round, a recovery gather).  ``piggyback``: extra
        payload merged into one of those messages (no start-up latency).

        Unlike chained :meth:`send` calls — where a receive pushes the
        receiver's clock and its *own* subsequent sends start later,
        serialising the whole phase across ranks — this models what MPI
        actually does: every sender injects all its messages starting
        from its clock at phase begin; a receiver resumes at
        ``max(own finish, latest arrival)``.
        """
        send_time: dict[int, float] = {}
        start: dict[int, float] = {}
        arrivals: dict[int, list[tuple[int, float]]] = {}

        def add(src: int, dst: int, nbytes: int, channel: str, merged: bool) -> None:
            self.require_alive(src)
            self.require_alive(dst)
            if src == dst:
                raise ClusterError(f"rank {src} cannot send to itself")
            if merged:
                cost = self.cost_model.payload_time(nbytes)
                self.stats.record_payload(src, dst, nbytes, channel)
            else:
                hops = self.topology.hops(src, dst)
                cost = self.cost_model.message_time(nbytes, hops)
                self.stats.record_message(src, dst, nbytes, channel)
            cost = self._charge(cost)
            start.setdefault(src, float(self.clocks[src]))
            send_time[src] = send_time.get(src, 0.0) + cost
            arrivals.setdefault(dst, []).append((src, cost))

        for src, dst, nbytes, channel, *rest in messages:
            add(src, dst, nbytes, channel, bool(rest[0]) if rest else False)
        for src, dst, nbytes, channel in piggyback:
            add(src, dst, nbytes, channel, True)

        # Senders finish all their injections.
        for src, total in send_time.items():
            self.clocks[src] = start[src] + total
        # Receivers wait for the latest arrival (conservatively, a
        # sender's messages all complete when its injection finishes).
        for dst, sources in arrivals.items():
            latest = max(start[src] + send_time[src] for src, _cost in sources)
            self.clocks[dst] = max(self.clocks[dst], latest)

    def charge_compute(self, profile: tuple[tuple[int, float], ...]) -> None:
        """Apply a fixed compute bill: ``(rank, flops)`` for every rank,
        ascending (e.g. a
        :meth:`~repro.distribution.partition.BlockRowPartition.charge_profile`).

        Equivalent to ``charge(compute=profile)``.  A profile is compiled
        once per cluster into a :class:`CompiledBill`, found again by the
        profile's identity (no hashing of its pairs), so a bill costs
        O(1) Python: one whole-vector clock add and one use count
        (:meth:`~repro.cluster.statistics.ClusterStats.add_compute_bill`;
        the statistics add the counts when read).  Hand the same profile
        object every time, as the cached partition and preconditioner
        profiles are; an equal tuple built anew compiles anew.  Falls
        back to the per-item loop under cost noise (RNG draw order) or
        with failed nodes present (liveness errors).

        Raises
        ------
        ConfigurationError
            If the profile does not list every rank once in ascending
            order, or bills a negative amount — on either path.
        """
        bill = self._compute_bills.get(id(profile))
        if bill is None:
            bill = self._compile_bill(
                self._compute_bills, profile, self.cost_model.gamma, np.float64
            )
        if self.cost_model.noise != 0.0 or self._dead_count:
            self.charge(compute=profile)
            return
        clocks = self.clocks
        clocks += bill.seconds
        self.stats.add_compute_bill(bill)

    def charge_memcpy(self, profile: tuple[tuple[int, float], ...]) -> None:
        """Apply a fixed memcpy bill: ``(rank, nbytes)`` for every rank, ascending.

        The memcpy analogue of :meth:`charge_compute`.
        """
        bill = self._memcpy_bills.get(id(profile))
        if bill is None:
            bill = self._compile_bill(
                self._memcpy_bills, profile, self.cost_model.mu, np.int64
            )
        if self.cost_model.noise != 0.0 or self._dead_count:
            self.charge(memcpy=profile)
            return
        clocks = self.clocks
        clocks += bill.seconds
        self.stats.add_copy_bill(bill)

    def _compile_bill(
        self,
        cache: dict[int, "CompiledBill"],
        profile: tuple[tuple[int, float], ...],
        rate: float,
        dtype: type,
    ) -> "CompiledBill":
        """Full-length ``(seconds, amounts)`` vectors of one bill, cached.

        ``seconds[rank] = amount * rate`` is the product the per-item
        :meth:`charge` loop adds, so both paths give the same bits;
        ``dtype`` is the statistic's (float64 flops, int64 bytes).  The
        cache is keyed by ``id(profile)`` and the bill holds the profile,
        so the id cannot be reused while the entry lives; it is emptied
        when it reaches :data:`MAX_BILLS`, so profiles built anew per
        call cannot grow it without bound.
        """
        ranks = [rank for rank, _ in profile]
        if ranks != list(range(self.n_nodes)):
            raise ConfigurationError(
                f"a charge profile lists ranks 0..{self.n_nodes - 1} once each, "
                f"in ascending order; got {ranks}"
            )
        amounts = [amount for _, amount in profile]
        if min(amounts) < 0:
            raise ConfigurationError(f"charge amounts must be >= 0, got {min(amounts)}")
        seconds = np.array([amount * rate for amount in amounts], dtype=np.float64)
        bill = CompiledBill(profile, seconds, np.array(amounts, dtype=dtype))
        if len(cache) >= MAX_BILLS:
            cache.clear()
        cache[id(profile)] = bill
        return bill

    def compile_exchange(
        self,
        messages: Iterable[tuple[int, int, int, str, bool]],
        piggyback: Iterable[tuple[int, int, int, str]] = (),
    ) -> "CompiledExchange":
        """Precompute the full effect of one fixed :meth:`exchange` phase.

        For message lists that never change — an SpMV halo exchange, the
        ASpMV redundancy phase, an IMCR checkpoint round — the
        per-message accounting (hop lookups, cost-model evaluation,
        statistics bumps) is identical every time.  This compiles it
        once into a :class:`CompiledExchange`: per-sender cost totals,
        a flattened arrival list and full-length statistics deltas, so
        :meth:`exchange_compiled` applies the phase with a fixed number
        of whole-array operations, whatever the node and message count.
        Costs are accumulated at compile time in exactly the
        per-message order of :meth:`exchange`, so the resulting clocks
        are bit-identical.

        The compiled form is only valid for this cluster's cost model
        and topology (both immutable for a cluster's lifetime).
        """
        return CompiledExchange(self, tuple(messages), tuple(piggyback))

    def compiled(self, key: tuple, build: Callable[[], object]) -> object:
        """``build()``, called once per ``key`` on this cluster.

        For bills fixed per cluster but assembled by objects that live
        for one solve (an IMCR checkpoint round: the strategy is built
        per request), so the compiled form must outlive them.  ``key``
        must determine what ``build`` returns.
        """
        built = self._compiled.get(key)
        if built is None:
            built = build()
            self._compiled[key] = built
        return built

    def exchange_compiled(self, compiled: "CompiledExchange") -> None:
        """Apply a :meth:`compile_exchange` phase.

        Equivalent — clocks, statistics, liveness errors, RNG draws —
        to ``exchange(compiled.messages, compiled.piggyback)``.  Every
        sender adds its precompiled total to its clock once (each
        sender appears once in ``send_ranks``), every receiver takes
        the max of its clock and its senders' finishes
        (``np.maximum.reduceat`` over the flattened arrival list; max
        is exact), and the statistics count one use of the phase
        (:meth:`~repro.cluster.statistics.ClusterStats.add_exchange`).  Falls
        back to the generic path when cost noise is enabled (every
        message must draw from the RNG in order) or any node is dead
        (to reproduce the partial-accounting-then-raise semantics of
        the per-message loop exactly).
        """
        if compiled.empty:
            return
        if self.cost_model.noise != 0.0 or self._dead_count:
            self.exchange(compiled.messages, piggyback=compiled.piggyback)
            return
        clocks = self.clocks
        send_ranks = compiled.send_ranks
        finish = clocks[send_ranks]
        finish += compiled.send_totals
        clocks[send_ranks] = finish
        dsts = compiled.arrival_dsts
        latest = np.maximum.reduceat(finish[compiled.arrival_pos], compiled.arrival_starts)
        clocks[dsts] = np.maximum(clocks[dsts], latest)
        self.stats.add_exchange(compiled)

    def allreduce(self, nbytes: int, ranks: Iterable[int] | None = None) -> None:
        """Charge an allreduce across ``ranks`` (default: all alive nodes)."""
        if ranks is None and not self._dead_count:
            # Fast path: every node participates and none can raise, so
            # the model cost depends on ``nbytes`` alone; only a noisy
            # model perturbs it (one draw per call, as on the slow path).
            if self.n_nodes <= 1:
                return
            cost = self._allreduce_costs.get(nbytes)
            if cost is None:
                cost = self.cost_model.allreduce_time(nbytes, self.n_nodes)
                self._allreduce_costs[nbytes] = cost
            if self.cost_model.noise != 0.0:
                cost = self._charge(cost)
            clocks = self.clocks
            clocks.fill(np.maximum.reduce(clocks) + cost)
            self.stats.record_collective(nbytes)
            return
        group = tuple(ranks) if ranks is not None else self.alive_ranks()
        for rank in group:
            self.require_alive(rank)
        if len(group) <= 1:
            return
        cost = self._charge(self.cost_model.allreduce_time(nbytes, len(group)))
        finish = max(self.clocks[list(group)]) + cost
        self.clocks[list(group)] = finish
        self.stats.record_collective(nbytes)

    def barrier(self, ranks: Iterable[int] | None = None) -> None:
        """Synchronise clocks of ``ranks`` (default: all alive nodes)."""
        group = list(ranks) if ranks is not None else list(self.alive_ranks())
        if not group:
            return
        finish = max(self.clocks[group])
        self.clocks[group] = finish

    def advance(self, rank: int, seconds: float) -> None:
        """Advance one node's clock by a raw duration (already costed)."""
        self.require_alive(rank)
        if seconds < 0:
            raise ConfigurationError("cannot advance a clock backwards")
        self.clocks[rank] += seconds

    def snapshot_redundancy_footprint(self) -> None:
        """Record the current per-node redundant-memory footprint.

        Reads each alive node's running
        :attr:`~repro.cluster.node.NodeState.redundancy_nbytes` and
        raises the per-rank peaks in one whole-vector max.
        """
        held = np.fromiter(
            (node.redundancy_nbytes if node.alive else 0 for node in self.nodes),
            dtype=np.int64,
            count=self.n_nodes,
        )
        peaks = self.stats.redundancy_peak_bytes
        np.maximum(peaks, held, out=peaks)

    # ------------------------------------------------------------------ faults

    def record_fault(self, kind: str, count: int = 1) -> None:
        """Count a fault-subsystem occurrence (injection/detection/rollback).

        Pure accounting: no clock movement, no liveness change.  The
        counters surface as ``faults[<kind>]`` keys in
        :meth:`ClusterStats.summary` (see :mod:`repro.faults`).
        """
        self.stats.record_fault(kind, count)

    def corrupt(self, rank: int, kind: str = "sdc") -> NodeState:
        """Declare a silent corruption strike on ``rank``.

        The environment flips bits; the node neither notices nor pays
        simulated time — the caller mutates the affected block in place
        (``SDCEvent.apply``).  Validates liveness (dead nodes hold no
        data to corrupt) and bumps the ``faults[<kind>]`` counter.
        """
        node = self.require_alive(rank)
        self.stats.record_fault(kind)
        return node

    # ------------------------------------------------------------------ failures

    def register_vector(self, vector: "DistributedVector") -> None:
        """Register a distributed vector whose blocks die with their node."""
        self._registered_vectors.append(weakref.ref(vector))

    def _live_vectors(self) -> list["DistributedVector"]:
        alive: list["DistributedVector"] = []
        kept: list[weakref.ReferenceType] = []
        for ref in self._registered_vectors:
            vec = ref()
            if vec is not None:
                alive.append(vec)
                kept.append(ref)
        self._registered_vectors = kept
        return alive

    def fail(self, ranks: Iterable[int]) -> tuple[int, ...]:
        """Simulate the simultaneous failure of ``ranks``.

        All dynamic data on those nodes is lost: their named stores,
        scalars, redundancy stashes, buddy checkpoints, and their blocks
        of every registered distributed vector (zeroed, as in the
        paper's framework).
        """
        failed = tuple(sorted({int(r) for r in ranks}))
        if not failed:
            raise ConfigurationError("fail() needs at least one rank")
        for rank in failed:
            self.require_alive(rank)
        if len(failed) >= self.n_nodes:
            raise ClusterError("cannot fail every node in the cluster")
        for rank in failed:
            self.nodes[rank].wipe()
        self._dead_count += len(failed)
        for vector in self._live_vectors():
            vector.wipe_blocks(failed)
        return failed

    def replace(self, ranks: Iterable[int]) -> None:
        """Bring spare nodes up in place of the failed ``ranks``.

        The replacement starts with empty memory and its clock set to
        the current makespan (it joins when recovery begins; the paper
        assumes spare nodes are already allocated and idle).
        """
        now = self.elapsed()
        for rank in ranks:
            node = self.node(rank)
            if node.alive:
                raise ClusterError(f"rank {rank} is alive; cannot replace it")
            node.revive()
            self._dead_count -= 1
            self.clocks[rank] = now


class CompiledBill:
    """One compiled :meth:`VirtualCluster.charge_compute` /
    :meth:`~VirtualCluster.charge_memcpy` profile.

    ``seconds`` — each rank's clock advance; ``amounts`` — its flops
    (float64) or bytes (int64); ``integral`` — every amount is a whole
    number, so the statistics may defer adding it
    (:mod:`repro.cluster.statistics`); ``profile`` — the source
    profile, kept alive so its ``id`` keys this bill.  Hashed by
    identity.
    """

    __slots__ = ("profile", "seconds", "amounts", "integral")

    def __init__(self, profile: tuple, seconds: np.ndarray, amounts: np.ndarray):
        self.profile = profile
        self.seconds = seconds
        self.amounts = amounts
        self.integral = bool(np.all(np.mod(amounts, 1) == 0))


class CompiledExchange:
    """Precompiled effect of one fixed concurrent communication phase.

    Built by :meth:`VirtualCluster.compile_exchange` for message lists
    that repeat (every iteration, every checkpoint).  Holds the original
    message tuples (for the noise/failure fallback) plus the phase as
    arrays that :meth:`VirtualCluster.exchange_compiled` applies whole:

    * ``send_ranks`` / ``send_totals`` — each sender once, in first-send
      order, with its message costs summed in the exact per-message
      order of :meth:`VirtualCluster.exchange` (floating-point order
      matters);
    * ``arrival_dsts`` — each receiver once; ``arrival_pos`` — the
      positions in ``send_ranks`` of every receiver's senders, receiver
      after receiver, each run starting at ``arrival_starts``;
    * ``sent_deltas`` / ``received_deltas`` / ``message_deltas`` —
      full-length (one entry per rank, zero if uninvolved) exact int64
      statistics bumps;
    * ``channel_deltas`` — ``(channel, bytes, messages)`` bumps;
    * ``empty`` — the phase has no message at all.
    """

    __slots__ = (
        "messages",
        "piggyback",
        "empty",
        "send_ranks",
        "send_totals",
        "arrival_dsts",
        "arrival_pos",
        "arrival_starts",
        "sent_deltas",
        "received_deltas",
        "message_deltas",
        "channel_deltas",
    )

    def __init__(
        self,
        cluster: VirtualCluster,
        messages: tuple[tuple[int, int, int, str, bool], ...],
        piggyback: tuple[tuple[int, int, int, str], ...],
    ):
        self.messages = messages
        self.piggyback = piggyback
        cost_model = cluster.cost_model
        topology = cluster.topology
        n_nodes = cluster.n_nodes

        send_time: dict[int, float] = {}
        arrivals: dict[int, list[int]] = {}
        bytes_sent: dict[int, int] = {}
        bytes_received: dict[int, int] = {}
        message_counts: dict[int, int] = {}
        channels: dict[str, list[int]] = {}

        def add(src: int, dst: int, nbytes: int, channel: str, merged: bool) -> None:
            if src == dst:
                raise ClusterError(f"rank {src} cannot send to itself")
            if merged:
                cost = cost_model.payload_time(nbytes)
            else:
                cost = cost_model.message_time(nbytes, topology.hops(src, dst))
                message_counts[src] = message_counts.get(src, 0) + 1
            send_time[src] = send_time.get(src, 0.0) + cost
            dst_sources = arrivals.setdefault(dst, [])
            if src not in dst_sources:
                dst_sources.append(src)
            bytes_sent[src] = bytes_sent.get(src, 0) + int(nbytes)
            bytes_received[dst] = bytes_received.get(dst, 0) + int(nbytes)
            totals = channels.setdefault(channel, [0, 0])
            totals[0] += int(nbytes)
            if not merged:
                totals[1] += 1

        for src, dst, nbytes, channel, *rest in messages:
            add(src, dst, nbytes, channel, bool(rest[0]) if rest else False)
        for src, dst, nbytes, channel in piggyback:
            add(src, dst, nbytes, channel, True)

        self.empty = not send_time
        self.send_ranks = np.array(list(send_time), dtype=np.intp)
        self.send_totals = np.array(list(send_time.values()), dtype=np.float64)
        position = {src: k for k, src in enumerate(send_time)}
        self.arrival_dsts = np.array(list(arrivals), dtype=np.intp)
        self.arrival_pos = np.array(
            [position[src] for srcs in arrivals.values() for src in srcs], dtype=np.intp
        )
        sizes = [len(srcs) for srcs in arrivals.values()]
        self.arrival_starts = np.array(np.cumsum([0] + sizes[:-1]), dtype=np.intp)
        self.sent_deltas = _full_length(bytes_sent, n_nodes)
        self.received_deltas = _full_length(bytes_received, n_nodes)
        self.message_deltas = _full_length(message_counts, n_nodes)
        self.channel_deltas = tuple(
            (channel, total_bytes, count) for channel, (total_bytes, count) in channels.items()
        )


def _full_length(per_rank: dict[int, int], n_nodes: int) -> np.ndarray:
    """``per_rank`` as an int64 vector over all ranks (zero where absent)."""
    full = np.zeros(n_nodes, dtype=np.int64)
    full[list(per_rank)] = list(per_rank.values())
    return full
