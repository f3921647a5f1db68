"""Distributed vectors under a block-row partition.

A :class:`DistributedVector` owns one contiguous flat numpy array
(``data``) whose per-node block *views* (``blocks``) realise the
block-row distribution, and routes every arithmetic operation through
the cluster's compute-kernel backend (:mod:`repro.kernels`) so that
computation and reduction costs are charged to the simulated clocks.
The numerics are *real*: dot products, axpys and norms operate on the
actual data exactly as the distributed algorithm would — the ``looped``
backend node by node, the ``vectorized`` backend as fused whole-array
operations with analytically declared billing (bit-identical results
either way; see :mod:`repro.kernels.base` for the contract).

Vectors register themselves with the cluster: when nodes fail, their
blocks are zeroed (the paper's failure simulation wipes all vector
entries of the affected ranks).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from ..cluster.communicator import VirtualCluster
from ..exceptions import ConfigurationError
from .partition import BlockRowPartition


class DistributedVector:
    """A dense vector distributed over the cluster in block rows."""

    def __init__(
        self,
        cluster: VirtualCluster,
        partition: BlockRowPartition,
        blocks: Sequence[np.ndarray] | None = None,
        register: bool = True,
    ):
        if partition.n_nodes != cluster.n_nodes:
            raise ConfigurationError(
                f"partition has {partition.n_nodes} blocks, cluster has {cluster.n_nodes} nodes"
            )
        self.cluster = cluster
        self.partition = partition
        #: Fused storage: one flat array; ``blocks`` are views into it.
        self.data = np.zeros(partition.n, dtype=np.float64)
        self.blocks = [
            self.data[partition.bounds(rank)[0] : partition.bounds(rank)[1]]
            for rank in range(partition.n_nodes)
        ]
        if blocks is not None:
            blocks = list(blocks)
            if len(blocks) != partition.n_nodes:
                raise ConfigurationError(
                    f"expected {partition.n_nodes} blocks, got {len(blocks)}"
                )
            for rank, block in enumerate(blocks):
                block = np.asarray(block, dtype=np.float64)
                if block.shape != (partition.size_of(rank),):
                    raise ConfigurationError(
                        f"block {rank} has shape {block.shape}, expected "
                        f"({partition.size_of(rank)},)"
                    )
                self.blocks[rank][:] = block
        if register:
            cluster.register_vector(self)

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_global(
        cls,
        cluster: VirtualCluster,
        partition: BlockRowPartition,
        values: np.ndarray,
        register: bool = True,
    ) -> "DistributedVector":
        """Scatter a global numpy vector into per-node blocks."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size != partition.n:
            raise ConfigurationError(
                f"global vector has {values.size} entries, partition expects {partition.n}"
            )
        vector = cls(cluster, partition, register=register)
        vector.data[:] = values
        return vector

    @classmethod
    def zeros_like(cls, other: "DistributedVector", register: bool = True) -> "DistributedVector":
        return cls(other.cluster, other.partition, register=register)

    def copy(self, charge: bool = False, register: bool = True) -> "DistributedVector":
        """Deep copy.  ``charge=True`` bills a local memcpy per node."""
        clone = DistributedVector(self.cluster, self.partition, register=register)
        clone.data[:] = self.data
        if charge:
            for rank, block in enumerate(self.blocks):
                self.cluster.memcpy(rank, block.nbytes)
        return clone

    # -------------------------------------------------------------- block access

    @property
    def n(self) -> int:
        return self.partition.n

    @property
    def kernels(self):
        """The cluster's current compute-kernel backend."""
        return self.cluster.kernels

    def block(self, rank: int) -> np.ndarray:
        """The local block owned by ``rank`` (a live view, not a copy)."""
        return self.blocks[rank]

    def set_block(self, rank: int, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.blocks[rank].shape:
            raise ConfigurationError(
                f"block {rank} has shape {self.blocks[rank].shape}, got {values.shape}"
            )
        self.blocks[rank][:] = values

    def wipe_blocks(self, ranks: Iterable[int]) -> None:
        """Zero the blocks of failed ranks (called by the cluster)."""
        for rank in ranks:
            self.blocks[rank][:] = 0.0

    def to_global(self) -> np.ndarray:
        """Gather into one numpy array.  Diagnostic only — never charged."""
        return self.data.copy()

    def get_global_entries(self, indices: np.ndarray) -> np.ndarray:
        """Read entries by global index.  Diagnostic only — never charged."""
        return self.data[np.asarray(indices, dtype=np.int64)]

    # ------------------------------------------------------------- arithmetic

    def _each_rank(self) -> range:
        return range(self.partition.n_nodes)

    def fill(self, value: float) -> None:
        self.data[:] = value

    def axpy(self, a: float, x: "DistributedVector") -> None:
        """``self += a * x`` (2 flops per entry)."""
        self._check_compatible(x)
        self.kernels.axpy(self, a, x)

    def aypx(self, a: float, x: "DistributedVector") -> None:
        """``self = x + a * self`` — the PCG update ``p = z + beta p``."""
        self._check_compatible(x)
        self.kernels.aypx(self, a, x)

    def scale(self, a: float) -> None:
        """``self *= a`` (1 flop per entry)."""
        self.kernels.scale(self, a)

    def subtract(self, a: "DistributedVector", b: "DistributedVector") -> None:
        """``self = a - b`` (1 flop per entry) — e.g. ``r = b - A x``."""
        self._check_compatible(a)
        self._check_compatible(b)
        self.kernels.subtract(self, a, b)

    def assign(self, other: "DistributedVector", charge: bool = True) -> None:
        """``self[:] = other`` blockwise; optionally bill the memcpy."""
        self._check_compatible(other)
        self.kernels.assign(self, other, charge)

    def apply_blockwise(self, func: Callable[[int, np.ndarray], np.ndarray], flops_per_entry: float = 0.0) -> None:
        """In-place ``block <- func(rank, block)`` with optional flop billing."""
        for rank in self._each_rank():
            self.blocks[rank][:] = func(rank, self.blocks[rank])
            if flops_per_entry:
                self.cluster.compute(rank, flops_per_entry * self.blocks[rank].size)

    # -------------------------------------------------------------- reductions

    def dot(self, other: "DistributedVector") -> float:
        """Global dot product: local parts + one allreduce."""
        return self.dot_many([other])[0]

    def dot_many(self, others: Sequence["DistributedVector"]) -> list[float]:
        """Several dot products fused into a single allreduce.

        PCG needs ``r·z`` and ``‖r‖²`` in the same iteration; real codes
        fuse them into one 16-byte allreduce, and so do we.  Each value
        is :func:`~repro.kernels.base.flat_dot` of the flat arrays — the
        canonical chunked reduction of the backend contract — so it does
        not depend on the node count or on the BLAS thread count.
        """
        for other in others:
            self._check_compatible(other)
        return self.kernels.dot_many(self, others)

    def norm2(self) -> float:
        """Global 2-norm (one fused allreduce)."""
        return float(np.sqrt(max(self.dot(self), 0.0)))

    def _check_compatible(self, other: "DistributedVector") -> None:
        if other.partition != self.partition:
            raise ConfigurationError("vectors live on different partitions")
        if other.cluster is not self.cluster:
            raise ConfigurationError("vectors live on different clusters")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistributedVector(n={self.n}, n_nodes={self.partition.n_nodes})"
