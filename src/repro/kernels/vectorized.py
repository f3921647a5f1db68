"""The ``vectorized`` backend: fused flat-array numerics (the default).

Every distributed vector is one contiguous flat array with per-node
block views, so:

* elementwise updates (axpy/aypx/scale/subtract/assign) run as a single
  whole-array NumPy operation — elementwise rounding is independent of
  loop batching, so the results equal a per-rank loop bit for bit;
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
  order as a per-rank ``local @ [own | ghosts]`` product would;
* the ASpMV gathers every communicated piece of ``x`` in one fancy
  index and writes each recipient's redundancy entry for the iteration
  as one dict of views into that gather
  (:class:`~repro.distribution.aspmv.FlatRedundancyCache` groups the
  pieces per recipient at plan time) — exactly the indices and values
  of the Eq. 1 plan's sends and extras addressed to that recipient;
* dot products are :func:`~repro.kernels.base.flat_dot` of the flat
  arrays — the canonical chunked ``ddot`` — while the per-rank bills
  stay declared per node block;
* block-diagonal preconditioners apply into the output vector's storage
  (``flat_apply(values, out)``: one fused operation where the operator
  has one, the per-rank solves into slices of ``out`` otherwise);
* the PCG tail (:meth:`VectorizedBackend.cg_update`) runs as one hook:
  both axpys, the preconditioner, the ``r.z`` / ``r.r`` pair under one
  allreduce, then the aypx;
* all per-rank bills are declared analytically — precomputed
  ``(rank, amount)`` profiles handed to
  :meth:`~repro.cluster.communicator.VirtualCluster.charge_compute` /
  ``charge_memcpy`` in the order a per-rank loop incurs them, which
  keeps clocks, statistics and cost-noise RNG draws identical.  The
  profiles are the partition's and preconditioner's cached tuples, so
  the cluster finds each compiled bill by the tuple's identity, and a
  bill is one clock add plus a use count that the statistics add up
  when read (:mod:`repro.cluster.statistics`).

Charges are issued *before* the fused numeric touches the data, so a
dead rank raises before any block or redundancy store is updated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..api.registry import register_backend
from ..cluster.cost_model import BYTES_PER_FLOAT
from ..distribution.matrix import csr_matvec
from .base import KernelBackend, flat_dot


@register_backend("vectorized")
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
        data = x.data
        values = [flat_dot(data, other.data) for other in others]
        cluster.charge_compute(x.partition.charge_profile(2 * len(others)))
        cluster.allreduce(len(others) * BYTES_PER_FLOAT)
        return values

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

        # Fused reduction pair: two canonical dots, one allreduce.
        r_data = r.data
        rz_new = flat_dot(r_data, z.data)
        r_norm_sq = flat_dot(r_data, r_data)
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
        # stays in push order).  Dead nodes need no
        # liveness check: a wipe emptied their stores, and the exchange
        # above raised if any stash would reach one.
        iteration = int(iteration)
        nodes = cluster.nodes
        for node in nodes:
            if iteration in node.redundancy:
                node.drop_redundant(iteration)
        for (dst, stash), nbytes in zip(self._stashes(cache, x.data), cache.stash_nbytes):
            nodes[dst].hold_redundant(iteration, stash, nbytes)

        evicted = queue.push(iteration)
        if evicted is not None:
            for node in nodes:
                if node.alive:
                    node.drop_redundant(evicted)

        self.spmv_local(executor, x, out)

    def _stashes(self, cache, values: np.ndarray) -> list:
        """``(recipient, {owner: (indices, values)})`` pairs of one ASpMV."""
        packed = values[cache.stash_gather]
        return [
            (dst, {
                owner: (indices, packed[start:stop])
                for owner, indices, start, stop in group
            })
            for dst, group in cache.stashes
        ]

    # -------------------------------------------------------- preconditioners

    def precond_apply(self, precond, r, out) -> None:
        r.cluster.charge_compute(precond.charge_profile())
        precond.flat_apply(r.data, out.data)
