"""The compute-kernel backend contract.

A :class:`KernelBackend` executes the *numerics* of the hot path — the
distributed vector arithmetic, the SpMV/ASpMV data movement, and the
block-diagonal preconditioner application — while the *accounting*
(simulated clocks, per-channel byte/message statistics, failure
semantics) stays in the :class:`~repro.cluster.communicator.VirtualCluster`.

The separation contract (what every backend must honour):

* **Numerical equivalence** — the floating-point results must be
  bit-identical to the serial textbook PCG of ``tests/oracle.py`` (one
  ``csr_matvec`` of the global matrix, one global operator per
  preconditioner, :func:`flat_dot` reductions, the engine's update
  order), which ``tests/properties/test_oracle.py`` checks for every
  value-independent strategy.  In practice this means: elementwise
  vector updates may be fused freely (the rounding of
  ``y[i] += a * x[i]`` does not depend on how the loop is batched),
  *every dot product is* :func:`flat_dot` *of the flat arrays* (the one
  canonical reduction: BLAS ``ddot`` over consecutive
  :data:`REDUCTION_CHUNK`-entry slices, summed in ascending order — so
  the bits depend neither on the node count nor on the BLAS thread
  count), and a sparse matvec must sum each row's products in the
  row's stored entry order.
* **Accounting equivalence** — every backend must issue the *same
  sequence* of cluster charges (``compute``/``memcpy``/``exchange``/
  ``allreduce``) with the same arguments: per operation, one bill per
  rank in ascending rank order, exactly as a rank-per-process
  implementation incurs them.  This keeps
  :class:`~repro.cluster.statistics.ClusterStats` and the simulated
  clocks identical, including under a noisy
  :class:`~repro.cluster.cost_model.CostModel` (the cost-noise RNG is
  consumed in charge order); ``tests/properties/accounting_pin.json``
  records them for noisy solves.  The batched
  :meth:`~repro.cluster.communicator.VirtualCluster.charge` API exists
  so that a fused kernel can *declare* the per-rank bill analytically
  (precomputed from the communication plan) instead of incurring it
  inside a per-rank loop; ``TestAccountingFastPaths`` pins that the
  compiled bills equal the per-item charges.
* **Failure semantics** — charges validate node liveness; a backend
  must charge a fused operation *before* touching the data so a dead
  rank raises before (not halfway through) the update.

Backends are stateless; per-(matrix, partition) index caches live on
the :class:`~repro.distribution.comm_plan.SpMVPlan` /
:class:`~repro.distribution.aspmv.RedundancyPlan` objects and
per-preconditioner operator caches on the preconditioner itself, so
one backend instance can serve any number of clusters and switching
backends on a live session never recomputes a plan.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..api.registry import KERNELS
from ..exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..distribution.aspmv import ASpMVExecutor, SupportsPush
    from ..distribution.spmv import SpMVExecutor
    from ..distribution.vector import DistributedVector
    from ..preconditioners.base import BlockDiagonalPreconditioner


#: Entries per ``ddot`` slice of :func:`flat_dot`.  The largest power of
#: two below OpenBLAS's ``ddot`` threading cutoff (10 000 entries), so
#: no slice is ever split across BLAS threads.
REDUCTION_CHUNK = 8192


def flat_dot(a: np.ndarray, b: np.ndarray) -> float:
    """The canonical reduction: ``a · b`` of two flat float64 arrays.

    BLAS ``ddot`` over consecutive :data:`REDUCTION_CHUNK`-entry slices,
    ascending: the first slice's value starts the sum and each later
    one is added to it; an empty vector gives ``0.0``.  Up to one chunk
    this is exactly ``a @ b``.  Every dot product of the engine, norms
    included, is this function, so its association is fixed by the
    vector length alone.
    """
    n = a.shape[0]
    if n <= REDUCTION_CHUNK:
        return float(a.dot(b))
    total = float(a[:REDUCTION_CHUNK].dot(b[:REDUCTION_CHUNK]))
    for start in range(REDUCTION_CHUNK, n, REDUCTION_CHUNK):
        stop = start + REDUCTION_CHUNK
        total += float(a[start:stop].dot(b[start:stop]))
    return total


class KernelBackend(abc.ABC):
    """Executes the numeric hot path of the distributed solver."""

    #: Registered name (set by the built-ins; plugins should set it too).
    name: str = "abstract"

    # ------------------------------------------------------- vector arithmetic

    @abc.abstractmethod
    def axpy(self, y: "DistributedVector", a: float, x: "DistributedVector") -> None:
        """``y += a * x`` (2 flops per entry, charged per rank)."""

    @abc.abstractmethod
    def aypx(self, y: "DistributedVector", a: float, x: "DistributedVector") -> None:
        """``y = x + a * y`` (2 flops per entry, charged per rank)."""

    @abc.abstractmethod
    def scale(self, y: "DistributedVector", a: float) -> None:
        """``y *= a`` (1 flop per entry, charged per rank)."""

    @abc.abstractmethod
    def subtract(
        self,
        y: "DistributedVector",
        a: "DistributedVector",
        b: "DistributedVector",
    ) -> None:
        """``y = a - b`` (1 flop per entry, charged per rank)."""

    @abc.abstractmethod
    def assign(
        self, y: "DistributedVector", x: "DistributedVector", charge: bool
    ) -> None:
        """``y[:] = x`` blockwise; ``charge`` bills the local memcpy."""

    @abc.abstractmethod
    def dot_many(
        self, x: "DistributedVector", others: Sequence["DistributedVector"]
    ) -> list[float]:
        """Fused dot products ``[x·o for o in others]`` + one allreduce.

        Each value MUST be :func:`flat_dot` of the flat arrays — that
        reduction is part of the numerical contract between backends.
        """

    # ----------------------------------------------------------------- SpMV

    @abc.abstractmethod
    def halo_exchange(
        self, executor: "SpMVExecutor", x: "DistributedVector", channel: str
    ) -> None:
        """Charge the message phase of the ghost entries of ``x``."""

    @abc.abstractmethod
    def spmv_local(
        self,
        executor: "SpMVExecutor",
        x: "DistributedVector",
        out: "DistributedVector",
    ) -> None:
        """``out = A_local @ [own | ghosts]`` per node, with flop billing.

        ``out`` never shares ``x``'s storage (the executor refuses it).
        """

    @abc.abstractmethod
    def aspmv(
        self,
        executor: "ASpMVExecutor",
        x: "DistributedVector",
        iteration: int,
        queue: "SupportsPush",
        out: "DistributedVector",
    ) -> None:
        """Augmented product: halo + redundancy stashing + local multiply."""

    # -------------------------------------------------------- preconditioners

    @abc.abstractmethod
    def precond_apply(
        self,
        precond: "BlockDiagonalPreconditioner",
        r: "DistributedVector",
        out: "DistributedVector",
    ) -> None:
        """``out = P r`` for a node-aligned block-diagonal operator."""

    # ------------------------------------------------------------ fused chains

    def cg_update(
        self,
        x: "DistributedVector",
        r: "DistributedVector",
        z: "DistributedVector",
        p: "DistributedVector",
        rho: "DistributedVector",
        alpha: float,
        rz_old: float,
        preconditioner,
    ) -> tuple[float, float, float]:
        """The PCG tail of one iteration, after ``alpha`` is known.

        Performs, in reference order::

            x += alpha * p
            r -= alpha * rho
            z  = P r
            rz_new    = r . z      } one fused reduction
            r_norm_sq = r . r      } (single allreduce)
            beta = rz_new / rz_old
            p = z + beta * p

        and returns ``(rz_new, r_norm_sq, beta)``.  The default
        composition below *is* the reference semantics — it issues the
        exact historical operation sequence of the solver engine.
        Backends may override it with fused single-pass kernels as long
        as both sides of the contract hold: bit-identical numerics
        (elementwise fusion free, reductions by :func:`flat_dot`)
        and the identical charge sequence (axpy, axpy, preconditioner,
        dot+allreduce, aypx).
        """
        x.axpy(alpha, p)
        r.axpy(-alpha, rho)
        preconditioner.apply(r, z)
        rz_new, r_norm_sq = r.dot_many([z, r])
        beta = rz_new / rz_old if rz_old != 0.0 else 0.0
        p.aypx(beta, z)
        return rz_new, r_norm_sq, beta

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: The backend new clusters and sessions use unless told otherwise.
DEFAULT_BACKEND = "vectorized"


def resolve_backend(backend: "str | KernelBackend | None") -> KernelBackend:
    """Materialise a backend from a registered name (or pass one through)."""
    if backend is None:
        backend = DEFAULT_BACKEND
    if isinstance(backend, KernelBackend):
        return backend
    instance = KERNELS.create(backend)
    if not isinstance(instance, KernelBackend):
        raise ConfigurationError(
            f"kernel backend {backend!r} built a {type(instance).__name__}, "
            "expected a KernelBackend"
        )
    return instance


def available_backends() -> tuple[str, ...]:
    """Registered backend names (built-ins + plugins)."""
    return KERNELS.names()
