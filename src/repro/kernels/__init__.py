"""Pluggable compute-kernel backends — numerics decoupled from accounting.

Every solve executes the paper's distributed PCG through two separable
concerns: the *numerics* (vector updates, SpMV data movement,
preconditioner application) and the *accounting* (simulated per-node
clocks, per-channel byte/message statistics, failure semantics).  This
package separates them behind the :class:`KernelBackend` protocol.

The built-in backend
--------------------

``vectorized`` (the default, and the only built-in) runs fused
flat-array numpy: whole-array elementwise ops, the halo exchange billed
without a ghost copy, one in-place CSR matvec of the global matrix,
ASpMV stashes written as one dict per recipient, preconditioners
applied in place, the PCG tail as one hook, and every bill declared
analytically as whole-vector adds.  Every dot product is
:func:`~repro.kernels.base.flat_dot`: BLAS ``ddot`` over consecutive
:data:`~repro.kernels.base.REDUCTION_CHUNK`-entry slices of the flat
vectors, summed in ascending order — one association for every node
count and every BLAS thread count.

:mod:`repro.kernels.replay` holds an unregistered per-solve twin of
it that a :class:`~repro.api.session.SolverSession` uses to replay a
solve that stays on a cached reference trajectory: it makes the
solve's bills without its arithmetic.

What pins it (full statement in :mod:`repro.kernels.base`):

* **numerics** — ``tests/oracle.py``, a serial textbook PCG over one
  global operator per preconditioner; ``tests/properties/test_oracle.py``
  requires the engine's iterates and residual history to equal it bit
  for bit for every value-independent strategy;
* **accounting** — ``tests/properties/accounting_pin.json``, the
  clocks and per-channel statistics of noisy solves recorded while a
  per-rank reference backend still agreed with this one, and
  ``TestAccountingFastPaths`` (compiled bills equal per-item charges).

Plugins
-------

Backends live in the :data:`repro.api.registry.KERNELS` registry; the
built-in is an ordinary registration and a plugin (for instance a
timing wrapper around the default) joins via
:func:`repro.api.register_backend`::

    from repro.api import register_backend
    from repro.kernels import KernelBackend

    @register_backend("my_backend")
    class MyBackend(KernelBackend):
        ...

The backend is a property of the virtual cluster
(``VirtualCluster(n, kernels="my_backend")``, reassignable at any
time); the service layer selects it per session
(``SolverSession(..., backend="my_backend")``) or per request
(``SolveRequest(backend="my_backend")``).  Where no backend is named,
:data:`DEFAULT_BACKEND` (``"vectorized"``) runs.
"""

from __future__ import annotations

from .base import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    resolve_backend,
)
from .vectorized import VectorizedBackend

__all__ = [
    "DEFAULT_BACKEND",
    "KernelBackend",
    "VectorizedBackend",
    "available_backends",
    "resolve_backend",
]
