"""The ``looped`` backend: per-rank reference semantics.

This is the original execution model of the library, kept as the
verification baseline: every operation loops over the node blocks and
interleaves the numeric work with the per-rank cluster charges, exactly
as a rank-per-process implementation would behave.  The ``vectorized``
backend is required to reproduce this backend's results and accounting
bit for bit (see :mod:`repro.kernels.base` for the contract and
``tests/properties/test_backend_equivalence.py`` for the enforcement).
"""

from __future__ import annotations

import os
import warnings
from typing import Sequence

import numpy as np

from ..api.registry import register_backend
from ..cluster.cost_model import BYTES_PER_FLOAT
from .base import KernelBackend

#: Exporting this acknowledges the deprecation and silences the
#: warning for deliberate production use of the reference backend.
ALLOW_LOOPED_ENV = "REPRO_ALLOW_LOOPED"


def _under_test() -> bool:
    """True inside a pytest run (where looped is a first-class citizen)."""
    return "PYTEST_CURRENT_TEST" in os.environ


@register_backend("looped", aliases=("reference_loops",))
class LoopedBackend(KernelBackend):
    """Per-rank loops with charges incurred inside the numeric loop.

    Demoted toward test-only status: the ``vectorized`` backend is
    uniformly faster and bit-identical by contract, so constructing
    this backend outside a test run emits a :class:`DeprecationWarning`
    (it stays registered — the equivalence property suite is its
    raison d'être, and ``REPRO_ALLOW_LOOPED=1`` opts production code
    back in silently).
    """

    name = "looped"

    def __init__(self, *, _internal: bool = False) -> None:
        # ``_internal`` marks construction by the library itself (the
        # vectorized backend keeps a looped instance as its per-rank
        # fallback) — only *selecting* looped as the execution backend
        # is deprecated.
        if (
            not _internal
            and not _under_test()
            and os.environ.get(ALLOW_LOOPED_ENV) != "1"
        ):
            warnings.warn(
                "the 'looped' kernel backend is deprecated for production "
                "use (the 'vectorized' default is bit-identical and "
                "uniformly faster); it is retained as the verification "
                "baseline for the backend-equivalence test suite — set "
                f"{ALLOW_LOOPED_ENV}=1 to silence this warning",
                DeprecationWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------- vector arithmetic

    def axpy(self, y, a, x) -> None:
        cluster = y.cluster
        for rank in range(y.partition.n_nodes):
            y.blocks[rank] += a * x.blocks[rank]
            cluster.compute(rank, 2 * y.blocks[rank].size)

    def aypx(self, y, a, x) -> None:
        cluster = y.cluster
        for rank in range(y.partition.n_nodes):
            block = y.blocks[rank]
            np.multiply(block, a, out=block)
            block += x.blocks[rank]
            cluster.compute(rank, 2 * block.size)

    def scale(self, y, a) -> None:
        cluster = y.cluster
        for rank in range(y.partition.n_nodes):
            y.blocks[rank] *= a
            cluster.compute(rank, y.blocks[rank].size)

    def subtract(self, y, a, b) -> None:
        cluster = y.cluster
        for rank in range(y.partition.n_nodes):
            y.blocks[rank][:] = a.blocks[rank] - b.blocks[rank]
            cluster.compute(rank, y.blocks[rank].size)

    def assign(self, y, x, charge) -> None:
        cluster = y.cluster
        for rank in range(y.partition.n_nodes):
            y.blocks[rank][:] = x.blocks[rank]
            if charge:
                cluster.memcpy(rank, y.blocks[rank].nbytes)

    def dot_many(self, x, others: Sequence) -> list[float]:
        cluster = x.cluster
        partials = np.zeros(len(others), dtype=np.float64)
        for rank in range(x.partition.n_nodes):
            flops = 0
            for k, other in enumerate(others):
                partials[k] += float(x.blocks[rank] @ other.blocks[rank])
                flops += 2 * x.blocks[rank].size
            cluster.compute(rank, flops)
        cluster.allreduce(len(others) * BYTES_PER_FLOAT)
        return [float(v) for v in partials]

    # ----------------------------------------------------------------- SpMV

    def halo_exchange(self, executor, x, channel: str) -> None:
        plan = executor.plan
        messages = []
        for src in range(plan.n_nodes):
            for descriptor in plan.sends[src]:
                if descriptor.count == 0:
                    continue
                values = x.blocks[src][descriptor.local_indices]
                messages.append((src, descriptor.dst, values.nbytes, channel, False))
                executor._ghost_buffers[descriptor.dst][descriptor.ghost_positions] = values
        if messages:
            executor.cluster.exchange(messages)

    def spmv_local(self, executor, x, out) -> None:
        plan = executor.plan
        cluster = executor.cluster
        for rank in range(plan.n_nodes):
            local = plan.local_matrices[rank]
            buf = np.concatenate([x.blocks[rank], executor._ghost_buffers[rank]])
            out.blocks[rank][:] = local @ buf
            cluster.compute(rank, 2 * executor.matrix.local_nnz(rank))

    def aspmv(self, executor, x, iteration, queue, out) -> None:
        from ..distribution.aspmv import EXTRA_CHANNEL
        from ..distribution.spmv import HALO_CHANNEL

        cluster = executor.cluster
        plan = executor.plan

        # Natural halo exchange + redundancy extras: one concurrent
        # phase, with stashing at the recipients.  Extras destined to a
        # node that already receives a natural message ride along as
        # merged payload (no extra start-up latency).
        messages = []
        merged = []
        stashes = []
        for src in range(plan.n_nodes):
            for descriptor in plan.sends[src]:
                if descriptor.count == 0:
                    continue
                values = x.blocks[src][descriptor.local_indices]
                messages.append((src, descriptor.dst, values.nbytes, HALO_CHANNEL, False))
                executor._ghost_buffers[descriptor.dst][descriptor.ghost_positions] = values
                stashes.append((descriptor.dst, src, descriptor.global_indices, values))
            for transfer in executor.redundancy.extras[src]:
                values = x.blocks[src][transfer.local_indices]
                if transfer.piggyback:
                    merged.append((src, transfer.dst, values.nbytes, EXTRA_CHANNEL))
                else:
                    messages.append((src, transfer.dst, values.nbytes, EXTRA_CHANNEL, False))
                stashes.append((transfer.dst, src, transfer.global_indices, values))
        # Charged before any store is touched: a dead rank raises here.
        if messages or merged:
            cluster.exchange(messages, piggyback=merged)

        # A rollback may re-execute a storage iteration: clear any stale
        # stash for this iteration so re-pushes do not accumulate.
        for node in cluster.nodes:
            if node.alive:
                node.drop_redundant(iteration)
        for dst, src, global_indices, values in stashes:
            cluster.node(dst).stash_redundant(iteration, src, global_indices, values)

        evicted = queue.push(iteration)
        if evicted is not None:
            for node in cluster.nodes:
                if node.alive:
                    node.drop_redundant(evicted)

        self.spmv_local(executor, x, out)

    # -------------------------------------------------------- preconditioners

    def precond_apply(self, precond, r, out) -> None:
        cluster = precond.matrix.cluster
        for rank in range(precond.matrix.partition.n_nodes):
            out.blocks[rank][:] = precond._apply_local(rank, r.blocks[rank])
            cluster.compute(rank, precond._apply_flops(rank))
