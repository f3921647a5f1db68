"""The canonical programmatic surface of :mod:`repro`.

Three layers, from declarative to imperative:

* **Registries** (:mod:`repro.api.registry`) — decorator-based plugin
  points for strategies, preconditioners, named test problems and
  compute-kernel backends; the built-in components are ordinary
  registrations.
* **Requests/Reports** (:mod:`repro.api.request`) — a
  :class:`SolveRequest` describes one resilient solve declaratively
  (validated eagerly, JSON round-trippable); a :class:`SolveReport` is
  its flat, JSON-friendly outcome.
* **Sessions** (:mod:`repro.api.session`) — a :class:`SolverSession`
  owns the virtual cluster, partition, distributed matrix and
  factorised preconditioners *once* and serves many solves against
  them, caching reference trajectories per (preconditioner, rtol).

Quickstart::

    from repro.api import SolverSession, SolveRequest

    session = SolverSession.from_problem("emilia_923_like", scale="tiny",
                                         n_nodes=8)
    report = session.solve(SolveRequest(strategy="esrp", T=10, phi=2,
                                        failures=[{"iteration": 50,
                                                   "ranks": [0, 1]}]),
                           with_reference=True)
    print(report.converged, report.total_overhead)

This ``__init__`` imports the registry eagerly (it has no heavy
dependencies — the component modules import it while the package is
still being assembled) and loads the session/request layer lazily via
PEP 562 so ``repro.core`` → ``repro.api.registry`` stays cycle-free.
"""

from __future__ import annotations

import importlib

from .registry import (
    KERNELS,
    MATRICES,
    PRECONDITIONERS,
    STRATEGIES,
    Registry,
    register_backend,
    register_matrix,
    register_preconditioner,
    register_strategy,
)

__all__ = [
    "KERNELS",
    "MATRICES",
    "PRECONDITIONERS",
    "STRATEGIES",
    "ReferenceTrajectory",
    "Registry",
    "SolveReport",
    "SolveRequest",
    "SolverSession",
    "register_backend",
    "register_matrix",
    "register_preconditioner",
    "register_strategy",
]

_LAZY = {
    "SolveRequest": ".request",
    "SolveReport": ".request",
    "SolverSession": ".session",
    "ReferenceTrajectory": ".session",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(target, __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
