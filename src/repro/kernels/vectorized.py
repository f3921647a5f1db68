"""The ``vectorized`` backend: fused flat-array numerics (the default).

Every distributed vector is one contiguous flat array with per-node
block views, so:

* elementwise updates (axpy/aypx/scale/subtract/assign) run as a single
  whole-array NumPy operation — elementwise rounding is independent of
  loop batching, so the results equal the per-rank loop bit for bit;
* the halo exchange is *billed, not copied*: the message phase is
  charged through one precompiled
  :meth:`~repro.cluster.communicator.VirtualCluster.exchange_compiled`
  call, but no ghost buffer is filled, because nothing here reads one;
* the SpMV is one in-place CSR matvec
  (:func:`~repro.distribution.matrix.csr_matvec`) of
  :attr:`~repro.distribution.matrix.DistributedMatrix.global_csr`
  against ``x_flat``.  Row slicing keeps each row's entry order, so the
  global operator's rows *are* the per-node local rows (their columns
  merely un-compressed): every row sums the same products in the same
  order as the per-rank ``local @ [own | ghosts]`` products;
* the ASpMV gathers every communicated piece of ``x`` in one fancy
  index and writes each recipient's redundancy entry for the iteration
  as one dict of views into that gather
  (:class:`~repro.distribution.aspmv.FlatRedundancyCache` groups the
  pieces per recipient at plan time) — the same indices and values the
  reference loop appends piece by piece;
* dot products keep the *reference accumulation order* (one partial dot
  per contiguous block view, accumulated in ascending rank order) —
  fusing the reduction across block boundaries would change the
  floating-point result, so only the billing is batched here.  Each
  partial is ``block.dot(other)``: for 1-D float64 operands it calls the
  same BLAS ``ddot`` as the reference's ``block @ other``, without the
  matmul ufunc dispatch;
* block-diagonal preconditioners with a fused form apply in place into
  the output vector's storage (``flat_apply(values, out)``); the others
  (``flat_apply is None``) run the per-rank reference path;
* the PCG tail (:meth:`VectorizedBackend.cg_update`) runs as one hook:
  both axpys, the preconditioner, one sweep over the node blocks for
  the ``r.z`` / ``r.r`` pair, then the aypx;
* all per-rank bills are declared analytically — precomputed
  ``(rank, amount)`` profiles handed to
  :meth:`~repro.cluster.communicator.VirtualCluster.charge_compute` /
  ``charge_memcpy`` in the same order the reference loop incurs them,
  which keeps clocks, statistics and cost-noise RNG draws identical.

Charges are issued *before* the fused numeric touches the data, so a
dead rank raises before any block or redundancy store is updated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..api.registry import register_backend
from ..cluster.cost_model import BYTES_PER_FLOAT
from ..distribution.matrix import csr_matvec
from .base import KernelBackend
from .looped import LoopedBackend

#: Shared per-rank fallback (identical code path to the looped backend;
#: internal construction — the deprecation covers *selecting* looped).
_LOOPED = LoopedBackend(_internal=True)


@register_backend("vectorized", aliases=("fused", "flat"))
class VectorizedBackend(KernelBackend):
    """Fused flat-array execution with analytically declared billing."""

    name = "vectorized"

    # ------------------------------------------------------- vector arithmetic

    def axpy(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))
        y.data += a * x.data

    def aypx(self, y, a, x) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(2))
        data = y.data
        np.multiply(data, a, out=data)
        data += x.data

    def scale(self, y, a) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))
        y.data *= a

    def subtract(self, y, a, b) -> None:
        y.cluster.charge_compute(y.partition.charge_profile(1))
        np.subtract(a.data, b.data, out=y.data)

    def assign(self, y, x, charge) -> None:
        if charge:
            y.cluster.charge_memcpy(y.partition.charge_profile(BYTES_PER_FLOAT))
        y.data[:] = x.data

    def dot_many(self, x, others: Sequence) -> list[float]:
        cluster = x.cluster
        x_blocks = x.blocks
        # Reference accumulation order: per block view, rank ascending.
        # (A whole-array dot would change the partial-sum structure and
        # with it the low-order bits — see the contract.)
        if len(others) == 1:
            o_blocks = others[0].blocks
            total = 0.0
            for block, other in zip(x_blocks, o_blocks):
                total += float(block.dot(other))
            partials = [total]
        else:
            partials = [0.0] * len(others)
            blocks_per_k = [other.blocks for other in others]
            for rank, block in enumerate(x_blocks):
                for k, o_blocks in enumerate(blocks_per_k):
                    partials[k] += float(block.dot(o_blocks[rank]))
        cluster.charge_compute(x.partition.charge_profile(2 * len(others)))
        cluster.allreduce(len(others) * BYTES_PER_FLOAT)
        return partials

    # ------------------------------------------------------------ fused chains

    def cg_update(self, x, r, z, p, rho, alpha, rz_old, preconditioner):
        cluster = x.cluster
        profile2 = x.partition.charge_profile(2)
        # Identical charge sequence to the default composition: the two
        # axpy bills land before either vector is touched (dead ranks
        # raise before any update, per the backend contract).
        cluster.charge_compute(profile2)
        cluster.charge_compute(profile2)
        x.data += alpha * p.data
        # ``r -= alpha * rho`` equals ``r += (-alpha) * rho`` bit for bit
        # (IEEE sign symmetry of multiply; subtracting is adding the
        # exact negation).
        r.data -= alpha * rho.data

        preconditioner.apply(r, z)

        # Fused reduction pair: each r-block feeds both partials, in the
        # reference order — one ``ddot`` per node block, ascending rank.
        rz_new = 0.0
        r_norm_sq = 0.0
        z_blocks = z.blocks
        for rank, r_block in enumerate(r.blocks):
            rz_new += float(r_block.dot(z_blocks[rank]))
            r_norm_sq += float(r_block.dot(r_block))
        cluster.charge_compute(x.partition.charge_profile(4))
        cluster.allreduce(2 * BYTES_PER_FLOAT)

        beta = rz_new / rz_old if rz_old != 0.0 else 0.0
        cluster.charge_compute(profile2)
        data = p.data
        np.multiply(data, beta, out=data)
        data += z.data
        return rz_new, r_norm_sq, beta

    # ----------------------------------------------------------------- SpMV

    def halo_exchange(self, executor, x, channel: str) -> None:
        executor.cluster.exchange_compiled(executor.compiled_halo(channel))

    def spmv_local(self, executor, x, out) -> None:
        executor.cluster.charge_compute(executor.plan.flat_cache().local_flops)
        csr_matvec(executor.matrix.global_csr, x.data, out.data)

    def aspmv(self, executor, x, iteration, queue, out) -> None:
        cluster = executor.cluster
        cache = executor.redundancy.flat_cache()
        compiled = cache.compiled
        if compiled is None:
            compiled = cluster.compile_exchange(cache.messages, cache.merged)
            cache.compiled = compiled
        cluster.exchange_compiled(compiled)

        # A rollback may re-execute a storage iteration: drop any stale
        # stash for it first (a pop, not an overwrite, so each store
        # keeps the reference's iteration order).  Dead nodes need no
        # liveness check: a wipe emptied their stores, and the exchange
        # above raised if any stash would reach one.
        iteration = int(iteration)
        nodes = cluster.nodes
        for node in nodes:
            node.redundancy.pop(iteration, None)
        packed = x.data[cache.stash_gather]
        for dst, group in cache.stashes:
            nodes[dst].redundancy[iteration] = {
                owner: (indices, packed[start:stop])
                for owner, indices, start, stop in group
            }

        evicted = queue.push(iteration)
        if evicted is not None:
            for node in nodes:
                if node.alive:
                    node.drop_redundant(evicted)

        self.spmv_local(executor, x, out)

    # -------------------------------------------------------- preconditioners

    def precond_apply(self, precond, r, out) -> None:
        flat_apply = precond.flat_apply
        if flat_apply is None:
            # Operators without a fused form (e.g. per-block triangular
            # solves) run the identical per-rank reference path.
            _LOOPED.precond_apply(precond, r, out)
            return
        r.cluster.charge_compute(precond.charge_profile())
        flat_apply(r.data, out.data)
