"""Pluggable compute-kernel backends — numerics decoupled from accounting.

Every solve executes the paper's distributed PCG through two separable
concerns: the *numerics* (vector updates, SpMV data movement,
preconditioner application) and the *accounting* (simulated per-node
clocks, per-channel byte/message statistics, failure semantics).  This
package separates them behind the :class:`KernelBackend` protocol.

Backend comparison
------------------

=============  ====================================  ==========================
backend        semantics / fusion level              when to pick it
=============  ====================================  ==========================
``looped``     Per-rank reference loops; charges     Verification only: it is
               incurred inside the numeric loop,     the oracle the property
               exactly like a rank-per-process       suite pins ``vectorized``
               implementation.  No fusion; dots      against.  Deprecated for
               are the shared ``flat_dot``.          production use.
``vectorized`` Fused flat-array numpy: whole-array   Everything else (the
               elementwise ops, the halo exchange    default) — pure
               billed without a ghost copy, one      numpy/scipy, uniformly
               in-place CSR matvec of the global     faster than ``looped``.
               matrix, ASpMV stashes written as
               one dict per recipient,
               preconditioners applied in place,
               the PCG tail as one hook, billing
               declared analytically as
               whole-vector adds.
=============  ====================================  ==========================

Both backends reduce with the same function,
:func:`~repro.kernels.base.flat_dot`: BLAS ``ddot`` over consecutive
:data:`~repro.kernels.base.REDUCTION_CHUNK`-entry slices of the flat
vectors, summed in ascending order — one association for every node
count and every BLAS thread count.

All backends are **bit-identical** and **accounting-identical** by
contract (full statement in :mod:`repro.kernels.base`): same
floating-point results, same
:class:`~repro.cluster.statistics.ClusterStats`, same simulated clocks,
same cost-noise RNG consumption — across backends, for every strategy
and failure scenario.  ``tests/properties/test_backend_equivalence.py``
enforces it; ``benchmarks/bench_kernels.py`` measures and gates the
speedup of ``vectorized`` over ``looped`` (``BENCH_kernels.json``).

Selection and registration
--------------------------

Backends live in the :data:`repro.api.registry.KERNELS` registry; the
built-ins are ordinary registrations and third-party backends join via
:func:`repro.api.register_backend`::

    from repro.api import register_backend
    from repro.kernels import KernelBackend

    @register_backend("my_backend")
    class MyBackend(KernelBackend):
        ...

The backend is a property of the virtual cluster
(``VirtualCluster(n, kernels="looped")``, reassignable at any time);
the service layer selects it per session
(``SolverSession(..., backend="looped")``) or per request
(``SolveRequest(backend="looped")``), and campaign specs sweep it
(``CampaignSpec(backends=("looped", "vectorized"))``) so stored
records can A/B backends.  Where no backend is named,
:data:`DEFAULT_BACKEND` (``"vectorized"``) runs.
"""

from __future__ import annotations

from .base import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from .looped import LoopedBackend
from .vectorized import VectorizedBackend

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "LoopedBackend",
    "VectorizedBackend",
    "available_backends",
    "resolve_backend",
]
