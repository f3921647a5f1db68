"""Communication plan for the distributed sparse matrix-vector product.

Given a sparse matrix ``A`` and a block-row partition, node ``l`` needs,
besides its own block of the input vector, the entries of ``p`` whose
global indices appear as *off-block column indices* in its row block
``A[I_l, :]``.  The paper calls the set of indices owned by ``s`` and
needed by ``l`` the set ``I_{s,l}`` (§2.2.1); these sets drive both the
plain SpMV halo exchange and the redundancy analysis of the augmented
SpMV.

:class:`SpMVPlan` precomputes, once per (matrix, partition):

* for every ordered pair ``(s, l)``: the global indices ``I_{s,l}``,
  their local offsets in ``s``'s block (for packing), and their
  positions in ``l``'s ghost list;
* for every node: the sorted ghost-column index list and the nnz of
  its row block.

The kernels use only the plan's *billing*: they charge the halo
messages and flops it describes, but multiply the global CSR matrix
against the flat vector, with no ghost copy (:class:`FlatPlanCache`).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp

from ..exceptions import ConfigurationError
from .partition import BlockRowPartition


@dataclasses.dataclass(frozen=True)
class SendDescriptor:
    """One (src → dst) leg of the halo exchange."""

    src: int
    dst: int
    #: Global indices ``I_{src,dst}`` (sorted ascending).
    global_indices: np.ndarray
    #: The same indices as offsets into src's local block.
    local_indices: np.ndarray
    #: Positions of these entries inside dst's sorted ghost list.
    ghost_positions: np.ndarray

    @property
    def count(self) -> int:
        return int(self.global_indices.size)


class SpMVPlan:
    """Precomputed halo-exchange plan for one (matrix, partition) pair."""

    def __init__(self, matrix: sp.csr_matrix, partition: BlockRowPartition):
        matrix = sp.csr_matrix(matrix)
        if matrix.shape[0] != matrix.shape[1]:
            raise ConfigurationError(f"matrix must be square, got {matrix.shape}")
        if matrix.shape[0] != partition.n:
            raise ConfigurationError(
                f"matrix is {matrix.shape[0]}x{matrix.shape[0]}, partition expects {partition.n}"
            )
        self.partition = partition
        n_nodes = partition.n_nodes

        #: sends[src] = list of SendDescriptor, ordered by dst.
        self.sends: list[list[SendDescriptor]] = [[] for _ in range(n_nodes)]
        #: recvs[dst] = list of SendDescriptor, ordered by src (same objects).
        self.recvs: list[list[SendDescriptor]] = [[] for _ in range(n_nodes)]
        #: ghost_globals[dst] = sorted global indices of dst's ghost columns.
        self.ghost_globals: list[np.ndarray] = []
        #: nnz of each row block (for flop accounting).
        self.local_nnz: list[int] = []

        descriptors: dict[tuple[int, int], dict[str, np.ndarray]] = {}
        for dst in range(n_nodes):
            lo, hi = partition.bounds(dst)
            block = matrix[lo:hi, :].tocsr()
            self.local_nnz.append(int(block.nnz))
            needed = np.unique(block.indices)
            ghosts = needed[(needed < lo) | (needed >= hi)]
            self.ghost_globals.append(ghosts.astype(np.int64))

            if ghosts.size:
                owners = partition.owners(ghosts)
                boundaries = np.flatnonzero(np.diff(owners)) + 1
                for chunk_idx, chunk in zip(
                    np.split(np.arange(ghosts.size), boundaries),
                    np.split(ghosts, boundaries),
                ):
                    src = int(owners[chunk_idx[0]])
                    descriptors[(src, dst)] = {
                        "global": chunk,
                        "positions": chunk_idx,
                    }

        for (src, dst), payload in sorted(descriptors.items()):
            descriptor = SendDescriptor(
                src=src,
                dst=dst,
                global_indices=payload["global"],
                local_indices=partition.to_local(src, payload["global"]),
                ghost_positions=payload["positions"],
            )
            self.sends[src].append(descriptor)
            self.recvs[dst].append(descriptor)

        # Fused-kernel caches (built lazily; see the accessors below).
        self._flat_cache: FlatPlanCache | None = None
        #: channel -> CompiledExchange (valid for the owning cluster;
        #: a plan lives inside one DistributedMatrix, which binds it to
        #: exactly one cluster).
        self._compiled_exchanges: dict[str, object] = {}
        #: (ϕ, rule, destinations) -> RedundancyPlan, with its flat cache
        #: and compiled exchange (see ``ASpMVExecutor``); read-only, so
        #: every solve on the owning cluster shares them.
        self._redundancy_plans: dict[tuple, object] = {}

    # ------------------------------------------------------------------ queries

    @property
    def n_nodes(self) -> int:
        return self.partition.n_nodes

    def halo_indices(self, src: int, dst: int) -> np.ndarray:
        """``I_{src,dst}``: global indices src sends to dst (may be empty)."""
        for descriptor in self.sends[src]:
            if descriptor.dst == dst:
                return descriptor.global_indices
        return np.empty(0, dtype=np.int64)

    def natural_destinations(self, src: int) -> tuple[int, ...]:
        """Nodes that receive a (non-empty) natural halo message from src."""
        return tuple(d.dst for d in self.sends[src] if d.count > 0)

    def multiplicity(self, src: int) -> np.ndarray:
        """m(i) for every local index of src.

        m(i) is the number of nodes that entry i is sent to during the
        plain SpMV (§2.2.1); entries with m(i) == 0 would have no
        off-node copy at all without augmentation.
        """
        counts = np.zeros(self.partition.size_of(src), dtype=np.int64)
        for descriptor in self.sends[src]:
            counts[descriptor.local_indices] += 1
        return counts

    def total_halo_entries(self) -> int:
        """Total vector entries moved per SpMV (all node pairs)."""
        return sum(d.count for sends in self.sends for d in sends)

    # --------------------------------------------------- fused-kernel caches

    def flat_cache(self) -> "FlatPlanCache":
        """Per-plan constants of the ``vectorized`` kernel backend.

        Built once per plan on first use; see :class:`FlatPlanCache`.
        """
        if self._flat_cache is None:
            self._flat_cache = FlatPlanCache(self)
        return self._flat_cache


class FlatPlanCache:
    """Per-plan constants of the fused (vectorized) SpMV.

    The fused product needs no operator of its own: it multiplies
    :attr:`~repro.distribution.matrix.DistributedMatrix.global_csr`
    against the flat input vector.  Row slicing keeps each row's entry
    order, so the global rows hold the per-rank row blocks' entries in
    the same order, and every row sums exactly as a per-rank
    ``local @ [own | ghosts]`` product would.  The halo exchange is
    billed, not copied: the ghost values a per-rank product would read
    are the entries of the flat vector itself.

    * ``total_ghosts`` — ghost entries summed over all ranks (the halo
      volume one SpMV moves on the virtual cluster).
    * ``local_flops`` — the per-rank SpMV bill ``(rank, 2 * nnz_r)``
      for the batched :meth:`~repro.cluster.communicator.VirtualCluster.charge`.
    """

    def __init__(self, plan: SpMVPlan):
        self.total_ghosts = sum(int(g.size) for g in plan.ghost_globals)
        self.local_flops = tuple(
            (rank, 2 * int(nnz)) for rank, nnz in enumerate(plan.local_nnz)
        )
