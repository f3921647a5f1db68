"""Per-node communication/computation accounting.

Beyond the simulated clock, the benchmarks report *why* a strategy is
slow: bytes moved by SpMV halos vs. ASpMV extras vs. checkpoints,
message counts, flops, and redundant-storage memory footprints.  The
:class:`ClusterStats` object accumulates these per node and per named
channel so ablation benches (e.g. A4 in DESIGN.md) can slice them.

Deferred totals
---------------
A solve bills the same few compiled bills thousands of times (a
compute or memcpy profile, a compiled exchange phase, a whole-cluster
allreduce) and reads the totals once, for its report.  So those bills
are *counted*, not added: :meth:`ClusterStats.add_compute_bill`,
:meth:`~ClusterStats.add_copy_bill`, :meth:`~ClusterStats.add_exchange`
and :meth:`~ClusterStats.record_collective` bump one use count per
bill in O(1) Python, and reading ``flops``, ``bytes_sent``,
``bytes_received``, ``messages_sent``, ``local_copy_bytes``,
``channels`` or :meth:`~ClusterStats.summary` first adds every pending
bill times its count.  Per-item records (``record_message``,
``record_compute``, ...) are added at once.

The totals equal those of adding every bill as it came, bit for bit:

* the byte and message counters are int64 (channel totals Python
  ints), exact in any order, and a channel enters ``channels`` when
  its first bill is counted, so ``channels`` keeps its insertion order;
* ``flops`` is float64, where order matters in general.  It is
  deferred only while every flops amount billed since the stats were
  made (a cluster :meth:`reset
  <repro.cluster.communicator.VirtualCluster.reset>` makes new ones)
  is integral: integral float64 sums below 2⁵³ (9·10¹⁵ flops per rank)
  are exact in any order.  The first non-integral amount (a
  reconstruction's ``/ psi`` share, say) adds every pending count and
  switches this object to adding flops as they come, in call order.

Clocks are not statistics: the cluster advances them eagerly.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from typing import Any

import numpy as np


@dataclasses.dataclass
class ChannelTotals:
    """Aggregate traffic for one named channel (e.g. ``"spmv_halo"``)."""

    messages: int = 0
    bytes: int = 0

    def add(self, nbytes: int, messages: int = 1) -> None:
        self.messages += int(messages)
        self.bytes += int(nbytes)


class ClusterStats:
    """Accumulates per-node and per-channel statistics.

    Channels used by the library:

    ``spmv_halo``
        Vector entries exchanged for the plain sparse matrix-vector
        product (the communication a non-resilient solver pays anyway).
    ``aspmv_extra``
        Additional entries sent by the augmented SpMV to guarantee ϕ
        redundant copies (ESR/ESRP overhead traffic).
    ``checkpoint``
        Buddy-checkpoint traffic (IMCR overhead traffic).
    ``reduction``
        Allreduce/broadcast traffic for scalars.
    ``recovery``
        Data gathered/retrieved while reconstructing after a failure.
    """

    def __init__(self, n_nodes: int):
        self.n_nodes = int(n_nodes)
        #: Per-rank totals are numpy arrays so batched charges and
        #: compiled exchanges can bump whole rank sets in one fused
        #: operation (scalar indexing semantics are unchanged; integer
        #: counters use exact int64 arithmetic).  Read them through the
        #: properties below, which add the pending bills first.
        self._flops = np.zeros(self.n_nodes, dtype=np.float64)
        self._bytes_sent = np.zeros(self.n_nodes, dtype=np.int64)
        self._bytes_received = np.zeros(self.n_nodes, dtype=np.int64)
        self._messages_sent = np.zeros(self.n_nodes, dtype=np.int64)
        self._local_copy_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        self._channels: dict[str, ChannelTotals] = defaultdict(ChannelTotals)
        self.redundancy_peak_bytes = np.zeros(self.n_nodes, dtype=np.int64)
        #: Fault-subsystem counters (injections, detections, rollbacks)
        #: keyed by kind — see :mod:`repro.faults` for the taxonomy.
        self.faults: dict[str, int] = {}
        #: Use counts of bills not yet added, per bill (see the module
        #: docstring); a collective is keyed by ``(nbytes, channel)``.
        self._compute_bills: dict[Any, int] = {}
        self._copy_bills: dict[Any, int] = {}
        self._exchanges: dict[Any, int] = {}
        self._collectives: dict[tuple[int, str], int] = {}
        #: Every flops amount so far was integral, so flops may be deferred.
        self._integral_flops = True

    # -- totals (pending bills added on read) ----------------------------------

    @property
    def flops(self) -> np.ndarray:
        self._flush()
        return self._flops

    @property
    def bytes_sent(self) -> np.ndarray:
        self._flush()
        return self._bytes_sent

    @property
    def bytes_received(self) -> np.ndarray:
        self._flush()
        return self._bytes_received

    @property
    def messages_sent(self) -> np.ndarray:
        self._flush()
        return self._messages_sent

    @property
    def local_copy_bytes(self) -> np.ndarray:
        self._flush()
        return self._local_copy_bytes

    @property
    def channels(self) -> dict[str, ChannelTotals]:
        self._flush()
        return self._channels

    def _flush(self) -> None:
        """Add every pending bill times its use count."""
        if self._compute_bills:
            for bill, count in self._compute_bills.items():
                self._flops += bill.amounts * count
            self._compute_bills = {}
        if self._copy_bills:
            for bill, count in self._copy_bills.items():
                self._local_copy_bytes += bill.amounts * count
            self._copy_bills = {}
        if self._exchanges:
            channels = self._channels
            for compiled, count in self._exchanges.items():
                self._bytes_sent += compiled.sent_deltas * count
                self._bytes_received += compiled.received_deltas * count
                self._messages_sent += compiled.message_deltas * count
                for channel, total_bytes, messages in compiled.channel_deltas:
                    totals = channels[channel]
                    totals.bytes += total_bytes * count
                    totals.messages += messages * count
            self._exchanges = {}
        if self._collectives:
            for (nbytes, channel), count in self._collectives.items():
                self._bytes_sent += nbytes * count
                self._bytes_received += nbytes * count
                self._channels[channel].add(
                    nbytes * self.n_nodes * count, messages=self.n_nodes * count
                )
            self._collectives = {}

    # -- recording -----------------------------------------------------------

    def record_compute(self, rank: int, flops: float) -> None:
        flops = float(flops)
        if self._integral_flops and not flops.is_integer():
            self._eager_flops()
        self._flops[rank] += flops

    def _eager_flops(self) -> None:
        """Add the pending counts; from now on flops are added as they come."""
        self._flush()
        self._integral_flops = False

    def add_compute_bill(self, bill) -> None:
        """One use of a compiled compute bill (``bill.amounts``: float64
        flops per rank; ``bill.integral``: all of them integral)."""
        if self._integral_flops:
            if bill.integral:
                pending = self._compute_bills
                pending[bill] = pending.get(bill, 0) + 1
                return
            self._eager_flops()
        self._flops += bill.amounts

    def add_copy_bill(self, bill) -> None:
        """One use of a compiled memcpy bill (``bill.amounts``: int64 bytes)."""
        pending = self._copy_bills
        pending[bill] = pending.get(bill, 0) + 1

    def add_exchange(self, compiled) -> None:
        """One use of a :class:`~repro.cluster.communicator.CompiledExchange`."""
        pending = self._exchanges
        count = pending.get(compiled)
        if count is None:
            count = 0
            channels = self._channels
            for channel, _bytes, _messages in compiled.channel_deltas:
                channels[channel]  # enters the channel in billing order
        pending[compiled] = count + 1

    def record_message(self, src: int, dst: int, nbytes: int, channel: str) -> None:
        self._bytes_sent[src] += int(nbytes)
        self._bytes_received[dst] += int(nbytes)
        self._messages_sent[src] += 1
        self._channels[channel].add(nbytes)

    def record_payload(self, src: int, dst: int, nbytes: int, channel: str) -> None:
        """Extra payload merged into an existing message (no new message)."""
        self._bytes_sent[src] += int(nbytes)
        self._bytes_received[dst] += int(nbytes)
        self._channels[channel].add(nbytes, messages=0)

    def record_collective(self, nbytes: int, channel: str = "reduction") -> None:
        """One allreduce: ``nbytes`` to and from every rank."""
        key = (int(nbytes), channel)
        pending = self._collectives
        count = pending.get(key)
        if count is None:
            count = 0
            self._channels[channel]  # enters the channel in billing order
        pending[key] = count + 1

    def record_local_copy(self, rank: int, nbytes: int) -> None:
        self._local_copy_bytes[rank] += int(nbytes)

    def record_fault(self, kind: str, count: int = 1) -> None:
        """Count an injected fault / detection / rollback of ``kind``."""
        self.faults[kind] = self.faults.get(kind, 0) + int(count)

    # -- queries ---------------------------------------------------------------

    def total_bytes(self, channel: str | None = None) -> int:
        if channel is None:
            return sum(self.bytes_sent)
        return self.channels[channel].bytes

    def total_messages(self, channel: str | None = None) -> int:
        if channel is None:
            return sum(self.messages_sent)
        return self.channels[channel].messages

    def total_flops(self) -> float:
        return sum(self.flops)

    def summary(self) -> dict[str, float]:
        """Flat dictionary of headline totals, for reports and tests."""
        out: dict[str, float] = {
            "total_flops": self.total_flops(),
            "total_bytes": float(self.total_bytes()),
            "total_messages": float(self.total_messages()),
            "peak_redundancy_bytes": float(max(self.redundancy_peak_bytes, default=0)),
        }
        for name, totals in sorted(self.channels.items()):
            out[f"bytes[{name}]"] = float(totals.bytes)
            out[f"messages[{name}]"] = float(totals.messages)
        # Fault counters appear only when faults were injected, so
        # fail-stop-free runs keep their historical stats shape.
        for kind, count in sorted(self.faults.items()):
            out[f"faults[{kind}]"] = float(count)
        return out
