"""Mutable solver state shared between the PCG engine and the strategies.

The paper (§1.1) defines the *state* of the solver as all dynamic data:
the vectors x (iterand), r (residual), z (preconditioned residual),
p (search direction) and the replicated scalars.  A given state fully
determines the solver's subsequent trajectory — that is the property
exact state reconstruction relies on.
"""

from __future__ import annotations

import dataclasses

from ..distribution.vector import DistributedVector

#: Names of the distributed state vectors, in canonical order.
STATE_VECTOR_NAMES = ("x", "r", "z", "p")


@dataclasses.dataclass
class PCGState:
    """Dynamic data of the PCG solver (Alg. 1 variables).

    ``beta`` holds β^{(j-1)} while iteration j executes (the scalar the
    ESR reconstruction retrieves from a surviving node); ``rz`` holds
    r^{(j)}ᵀ z^{(j)}.  Static data (matrix, preconditioner, b) is *not*
    part of the state — it survives failures in safe storage.
    """

    x: DistributedVector
    r: DistributedVector
    z: DistributedVector
    p: DistributedVector
    #: Work buffer for ϱ = A p (its contents are derived data, not state).
    rho: DistributedVector
    #: r·z of the current iterate.
    rz: float = 0.0
    #: β^{(j-1)}; None before the first β is computed.
    beta: float | None = None
    #: ‖b‖₂, replicated on every node for the convergence test.
    b_norm: float = 0.0

    def vector(self, name: str) -> DistributedVector:
        """Access a state vector by canonical name."""
        if name not in STATE_VECTOR_NAMES:
            raise KeyError(f"unknown state vector {name!r}")
        return getattr(self, name)

    def vectors(self) -> dict[str, DistributedVector]:
        """All four state vectors, keyed by canonical name."""
        return {name: getattr(self, name) for name in STATE_VECTOR_NAMES}
