"""Preconditioner interface.

The paper treats the preconditioner as a linear operator ``P`` with
``z = P r`` (P ≈ A⁻¹).  Two capabilities matter for resilience:

* **apply** — needed by every PCG iteration (charged to the owning
  node's clock);
* **restriction to failed rows** — ESR/ESRP reconstruction (Alg. 2)
  must solve ``P_ff r_f = v``.  That is possible exactly and locally
  when ``P`` is *node-aligned block diagonal* (``P_{I_f, I\\I_f} = 0``
  and ``P_ff`` invertible per node): identity, Jacobi, block Jacobi and
  the block-local SSOR/IC(0) variants all qualify.  Global operators
  (e.g. the polynomial/Neumann preconditioner) do not —
  ``supports_reconstruction`` is ``False`` and ESR/ESRP refuses them
  with :class:`~repro.exceptions.ReconstructionUnsupportedError`, while
  IMCR accepts them (checkpointing is algorithm-agnostic about ``P``).
"""

from __future__ import annotations

import abc
from typing import Iterable

import numpy as np

from ..distribution.matrix import DistributedMatrix
from ..distribution.vector import DistributedVector
from ..exceptions import ConfigurationError, ReconstructionUnsupportedError


class Preconditioner(abc.ABC):
    """Abstract preconditioner operating on distributed vectors."""

    #: Short identifier used in configs and reports.
    name: str = "abstract"
    #: Whether ESR/ESRP reconstruction can restrict this operator.
    supports_reconstruction: bool = False

    def __init__(self) -> None:
        self._matrix: DistributedMatrix | None = None

    # ------------------------------------------------------------------ set-up

    def setup(self, matrix: DistributedMatrix) -> None:
        """Bind to a matrix and precompute factorisations.

        Re-binding to the *same* matrix object is a no-op, so a cached,
        already-factorised preconditioner can be handed to many engines
        (a :class:`~repro.api.SolverSession` does exactly that) without
        paying the factorisation again.
        """
        if self._matrix is matrix:
            return
        self._matrix = matrix
        self._charge_profile: tuple[tuple[int, float], ...] | None = None
        self._setup_impl(matrix)

    @abc.abstractmethod
    def _setup_impl(self, matrix: DistributedMatrix) -> None: ...

    @property
    def matrix(self) -> DistributedMatrix:
        if self._matrix is None:
            raise ConfigurationError(f"preconditioner {self.name!r} was not set up")
        return self._matrix

    # ------------------------------------------------------------------- apply

    @abc.abstractmethod
    def apply(self, r: DistributedVector, out: DistributedVector) -> None:
        """``out = P r`` with per-node cost charging."""

    # -------------------------------------------------------- reconstruction

    def solve_restricted(self, ranks: Iterable[int], v: np.ndarray) -> np.ndarray:
        """Solve ``P_ff r_f = v`` for the rows of the failed ``ranks``.

        ``v`` is the concatenation of per-rank segments in ascending
        rank / local order; the result uses the same layout.  Only
        meaningful when :attr:`supports_reconstruction` is ``True``.
        """
        raise ReconstructionUnsupportedError(
            f"preconditioner {self.name!r} is not node-aligned block diagonal; "
            "exact state reconstruction cannot restrict it (use IMCR instead)"
        )

    def reconstruction_flops(self, ranks: Iterable[int]) -> float:
        """Flop estimate of :meth:`solve_restricted` (for cost charging)."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class BlockDiagonalPreconditioner(Preconditioner):
    """Base for node-aligned block-diagonal preconditioners.

    Subclasses provide, per node ``s``, a pair of local linear actions:

    * ``_apply_local(s, r_s)`` — the preconditioner action ``P_s r_s``;
    * ``_apply_inverse_local(s, v_s)`` — the action of ``M_s = P_s⁻¹``
      (used to solve ``P_ff r_f = v`` exactly in Alg. 2 line 6).
    """

    supports_reconstruction = True

    @abc.abstractmethod
    def _apply_local(self, rank: int, values: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _apply_inverse_local(self, rank: int, values: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def _apply_flops(self, rank: int) -> float:
        """Flops of one local application (for clock charging)."""

    def apply(self, r: DistributedVector, out: DistributedVector) -> None:
        """``out = P r``, executed by the cluster's kernel backend."""
        self.matrix.cluster.kernels.precond_apply(self, r, out)

    def flat_apply(self, values: np.ndarray, out: np.ndarray) -> None:
        """``out[:] = P @ values`` on the full flat vector (unbilled).

        Writes :meth:`_apply_local` of each rank's slice into the same
        slice of ``out``.  Subclasses whose action is one fused
        operation (a stacked block-diagonal matvec, a diagonal scale)
        override it; an override must be bit-identical to this per-rank
        form.  ``out`` never shares ``values``' storage.
        """
        partition = self.matrix.partition
        for rank in range(partition.n_nodes):
            lo, hi = partition.bounds(rank)
            out[lo:hi] = self._apply_local(rank, values[lo:hi])

    def charge_profile(self) -> tuple[tuple[int, float], ...]:
        """Cached ``(rank, flops)`` bill of one application (rank ascending)."""
        profile = getattr(self, "_charge_profile", None)
        if profile is None:
            profile = tuple(
                (rank, self._apply_flops(rank))
                for rank in range(self.matrix.partition.n_nodes)
            )
            self._charge_profile = profile
        return profile

    def solve_restricted(self, ranks: Iterable[int], v: np.ndarray) -> np.ndarray:
        ranks = tuple(sorted({int(r) for r in ranks}))
        partition = self.matrix.partition
        expected = sum(partition.size_of(r) for r in ranks)
        v = np.asarray(v, dtype=np.float64)
        if v.size != expected:
            raise ConfigurationError(
                f"restricted RHS has {v.size} entries, failed rows have {expected}"
            )
        pieces: list[np.ndarray] = []
        offset = 0
        for rank in ranks:
            size = partition.size_of(rank)
            pieces.append(self._apply_inverse_local(rank, v[offset : offset + size]))
            offset += size
        return np.concatenate(pieces) if pieces else np.empty(0)

    def reconstruction_flops(self, ranks: Iterable[int]) -> float:
        return float(sum(self._apply_flops(r) for r in set(ranks)))
