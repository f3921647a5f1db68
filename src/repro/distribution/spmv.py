"""Distributed sparse matrix-vector product with explicit communication.

``ϱ = SpMV(A, p)`` per the paper: each node packs the vector entries its
neighbours need (per the precomputed :class:`~repro.distribution.comm_plan.SpMVPlan`),
the messages are charged to the virtual cluster, and each node then
multiplies its column-compressed row block against
``[own block | ghost buffer]``.

*How* the two phases execute is delegated to the cluster's
compute-kernel backend (:mod:`repro.kernels`): the default bills the
messages without copying anything and multiplies
:attr:`~repro.distribution.matrix.DistributedMatrix.global_csr` against
the flat input in one in-place matvec.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from .matrix import DistributedMatrix
from .vector import DistributedVector

#: Statistics channel for natural halo traffic.
HALO_CHANNEL = "spmv_halo"


class SpMVExecutor:
    """Executes the plain distributed SpMV for one matrix."""

    def __init__(self, matrix: DistributedMatrix):
        self.matrix = matrix
        self.cluster = matrix.cluster
        self.plan = matrix.plan

    @property
    def kernels(self):
        """The cluster's current compute-kernel backend."""
        return self.cluster.kernels

    def compiled_halo(self, channel: str):
        """The halo exchange of ``channel`` as a precompiled phase.

        Compiled once per (plan, channel) against the owning cluster's
        cost model and topology; used by the vectorized backend to
        declare the whole message phase analytically.  Its messages are
        ``(src, dst, nbytes, channel, merged)`` tuples: for each source
        rank in ascending order, one per non-empty send descriptor.
        """
        compiled = self.plan._compiled_exchanges.get(channel)
        if compiled is None:
            plan = self.plan
            compiled = self.cluster.compile_exchange(
                (src, d.dst, d.count * 8, channel, False)
                for src in range(plan.n_nodes)
                for d in plan.sends[src]
                if d.count > 0
            )
            self.plan._compiled_exchanges[channel] = compiled
        return compiled

    def _output(
        self, x: DistributedVector, out: DistributedVector | None
    ) -> DistributedVector:
        """``out``, or a fresh result vector when it is ``None``.

        The local product writes ``out`` while it still reads ``x``, so
        an ``out`` sharing ``x``'s storage would silently corrupt the
        result; it is refused.
        """
        if out is None:
            return DistributedVector(self.matrix.cluster, self.matrix.partition)
        if np.shares_memory(out.data, x.data):
            raise ConfigurationError(
                "SpMV output vector shares storage with its input"
            )
        return out

    # ------------------------------------------------------------------ phases

    def exchange_halo(self, x: DistributedVector, channel: str = HALO_CHANNEL) -> None:
        """Phase 1: communicate the ghost entries of ``x``.

        Every non-empty ``I_{src,dst}`` becomes one message of
        ``count * 8`` bytes.  All messages belong to one concurrent
        phase (charged via :meth:`VirtualCluster.exchange`).
        """
        self.kernels.halo_exchange(self, x, channel)

    def local_multiply(self, x: DistributedVector, out: DistributedVector) -> None:
        """Phase 2: per-node ``A_local @ [own | ghosts]`` with flop billing."""
        self.kernels.spmv_local(self, x, out)

    # ------------------------------------------------------------------ public

    def multiply(
        self,
        x: DistributedVector,
        out: DistributedVector | None = None,
        channel: str = HALO_CHANNEL,
    ) -> DistributedVector:
        """``out = A @ x`` with communication and computation charged.

        ``out`` must not share ``x``'s storage
        (:class:`~repro.exceptions.ConfigurationError`).
        """
        if x.partition != self.matrix.partition:
            raise ConfigurationError("vector partition does not match matrix partition")
        out = self._output(x, out)
        self.exchange_halo(x, channel=channel)
        self.local_multiply(x, out)
        return out
