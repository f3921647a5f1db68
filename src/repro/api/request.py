"""Declarative solve requests and their flat outcome reports.

A :class:`SolveRequest` captures everything about one resilient solve
*except* the problem itself (the matrix/right-hand side belong to the
:class:`~repro.api.session.SolverSession` serving the request).  It

* validates eagerly — unknown strategy/preconditioner names,
  ``strategy_params`` the strategy's builder does not take, ``T < 1``,
  ``phi < 1``, ``maxiter < 1`` and ``phi >= n_nodes`` (when the target
  cluster size is stated) all raise
  :class:`~repro.exceptions.ConfigurationError` at construction, not
  mid-solve;
* canonicalises component names through the registries, so aliases
  (``"li"``, ``"cr"``, ``"Block-Jacobi"``) normalise to their
  registered names;
* round-trips losslessly through plain dicts and JSON strings.

A :class:`SolveReport` is the JSON-friendly outcome: the request, the
headline solver figures, per-channel communication statistics, and —
when the session has the matching reference trajectory — the paper's
overhead metrics against t₀/C.  The in-memory report also carries the
full :class:`~repro.solvers.engine.SolveResult` (solution vector,
event log); that part is dropped by :meth:`SolveReport.to_dict`.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Mapping

from ..cluster.failures import FailureEvent, FailureSchedule
from ..exceptions import ConfigurationError
from ..faults.events import SDCEvent, event_from_dict
from .registry import KERNELS, PRECONDITIONERS, STRATEGIES, check_strategy_params


def _normalise_failures(failures) -> tuple:
    """Accept a schedule, events, dicts or (iteration, ranks) pairs.

    Beyond the historical fail-stop shapes, fault-taxonomy events pass
    through: ``SDCEvent``/``ChurnEvent`` instances, and mappings with a
    ``"kind"`` key (dispatched by :func:`repro.faults.events.event_from_dict`).
    """
    if failures is None:
        return ()
    if isinstance(failures, (FailureEvent, SDCEvent)):
        failures = [failures]
    events: list = []
    for item in failures:
        if isinstance(item, (FailureEvent, SDCEvent)):
            events.append(item)
        elif isinstance(item, Mapping):
            events.append(event_from_dict(item))
        else:
            iteration, ranks = item
            events.append(FailureEvent(int(iteration), tuple(ranks)))
    return tuple(events)


@dataclasses.dataclass(frozen=True)
class SolveRequest:
    """One declarative resilient-solve description (eagerly validated)."""

    strategy: str = "esrp"
    T: int = 20
    phi: int = 1
    preconditioner: str = "block_jacobi"
    #: Extra keyword arguments for the preconditioner builder.
    precond_params: dict[str, Any] = dataclasses.field(default_factory=dict)
    #: Extra keyword arguments for the strategy builder (e.g.
    #: ``threshold``/``mode`` for ``pv``, ``error_bound``/``ratio`` for
    #: ``lossy_imcr``).  A key the builder does not take is refused at
    #: construction.
    strategy_params: dict[str, Any] = dataclasses.field(default_factory=dict)
    rtol: float = 1e-8
    maxiter: int | None = None
    failures: tuple[FailureEvent, ...] = ()
    #: ASpMV extra-entry selection rule (``"paper"`` or ``"greedy"``).
    rule: str = "paper"
    #: Designated-destination policy (``"eq1"`` or ``"switch_aware"``).
    destinations: str = "eq1"
    #: Compute-kernel backend executing the numerics (``None``: the
    #: library default, ``"vectorized"``).  Any name registered via
    #: :func:`repro.api.register_backend`, e.g. a plugin that times the
    #: default (see :mod:`repro.kernels`).
    backend: str | None = None
    #: Initial guess policy.  ``None`` starts from zero; ``"previous"``
    #: warm-starts from the final iterate of the session's previous
    #: solve (explicit initial-guess arrays go through
    #: ``SolverSession.solve(x0=...)`` — they do not belong in a
    #: JSON-round-trippable request).
    x0: str | None = None
    #: Cluster noise seed for this solve (``None``: inherit the
    #: session's seed, which is the default).
    seed: int | None = None
    #: Target cluster size, when known at request time.  Stating it
    #: moves the ϕ < n_nodes and failure-rank checks to construction;
    #: the session re-checks against its own cluster either way.
    n_nodes: int | None = None
    #: Free-form tag echoed into the report (batch bookkeeping).
    label: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategy", STRATEGIES.resolve(self.strategy))
        object.__setattr__(
            self, "preconditioner", PRECONDITIONERS.resolve(self.preconditioner)
        )
        object.__setattr__(self, "precond_params", dict(self.precond_params))
        object.__setattr__(self, "strategy_params", dict(self.strategy_params))
        check_strategy_params(self.strategy, self.strategy_params)
        object.__setattr__(self, "failures", _normalise_failures(self.failures))
        if self.backend is not None:
            object.__setattr__(self, "backend", KERNELS.resolve(self.backend))
        if self.x0 is not None and self.x0 != "previous":
            raise ConfigurationError(
                f"x0 must be None or 'previous', got {self.x0!r} (explicit "
                "initial-guess arrays go through SolverSession.solve(x0=...))"
            )
        if self.T < 1:
            raise ConfigurationError(f"T must be >= 1, got {self.T}")
        if self.phi < 1:
            raise ConfigurationError(f"phi must be >= 1, got {self.phi}")
        if self.rtol <= 0:
            raise ConfigurationError(f"rtol must be > 0, got {self.rtol}")
        if self.maxiter is not None and self.maxiter < 1:
            raise ConfigurationError(f"maxiter must be >= 1, got {self.maxiter}")
        if self.n_nodes is not None:
            self.validate_for(self.n_nodes)

    def validate_for(self, n_nodes: int) -> None:
        """Check the parts that depend on the executing cluster's size."""
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if self.n_nodes is not None and self.n_nodes != n_nodes:
            raise ConfigurationError(
                f"request targets n_nodes={self.n_nodes}, "
                f"but the session cluster has {n_nodes} nodes"
            )
        if self.strategy != "reference" and self.phi >= n_nodes:
            raise ConfigurationError(
                f"phi={self.phi} out of range [1, {n_nodes - 1}] for "
                f"{n_nodes} nodes"
            )
        for event in self.failures:
            bad = [r for r in event.ranks if not 0 <= r < n_nodes]
            if bad:
                raise ConfigurationError(
                    f"failure at iteration {event.iteration} names ranks {bad} "
                    f"outside [0, {n_nodes})"
                )

    # ------------------------------------------------------------ conveniences

    def schedule(self) -> FailureSchedule:
        """The request's failures (fail-stop and silent) as a fresh schedule."""
        return FailureSchedule(self.failures)

    @property
    def precond_key(self) -> str:
        """Stable cache key for the (preconditioner, params) pair."""
        if not self.precond_params:
            return self.preconditioner
        params = json.dumps(self.precond_params, sort_keys=True, default=repr)
        return f"{self.preconditioner}:{params}"

    # ------------------------------------------------------------ round-trips

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        # Each event serialises its own shape: plain failures keep the
        # historical {iteration, ranks} form; taxonomy events add "kind".
        data["failures"] = [e.to_dict() for e in self.failures]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveRequest":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown solve request keys: {sorted(unknown)}")
        return cls(**dict(data))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveRequest":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid solve request JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclasses.dataclass(frozen=True)
class SolveReport:
    """Flat, JSON-friendly outcome of one :class:`SolveRequest`."""

    request: SolveRequest
    #: Canonical name of the strategy that actually ran (ESRP with
    #: T ≤ 2 degenerates to ESR, so this may differ from the request).
    strategy: str
    converged: bool
    iterations: int
    executed_iterations: int
    relative_residual: float
    modeled_time: float
    recovery_time: float
    wall_time: float
    n_failures: int
    failure_iterations: tuple[int, ...]
    #: Per-channel message/byte statistics of the virtual cluster.
    stats: dict[str, float]
    #: Compute-kernel backend that executed the numerics.
    backend: str | None = None
    # Reference-trajectory comparison (None when not requested/cached).
    reference_time: float | None = None
    reference_iterations: int | None = None
    total_overhead: float | None = None
    recovery_overhead: float | None = None
    solution_error: float | None = None
    #: The full in-memory result (solution vector, event log).  Not
    #: serialised; ``None`` on reports loaded from dicts/JSON.
    result: Any = dataclasses.field(default=None, compare=False, repr=False)

    @property
    def wasted_iterations(self) -> int:
        """Iterations re-executed after rollbacks."""
        return self.executed_iterations - self.iterations

    @property
    def x(self):
        """Gathered solution vector (requires the in-memory result)."""
        if self.result is None:
            raise ConfigurationError(
                "this report was deserialised; the solution vector was not stored"
            )
        return self.result.x

    # ------------------------------------------------------------ round-trips

    def to_dict(self) -> dict[str, Any]:
        # Not dataclasses.asdict: that would deep-copy the attached
        # SolveResult (solution vector, event log) only to drop it.
        data = {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name != "result"
        }
        data["request"] = self.request.to_dict()
        data["failure_iterations"] = list(self.failure_iterations)
        data["stats"] = dict(self.stats)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SolveReport":
        payload = {k: v for k, v in data.items() if k != "result"}
        payload["request"] = SolveRequest.from_dict(payload["request"])
        payload["failure_iterations"] = tuple(
            int(i) for i in payload.get("failure_iterations") or ()
        )
        payload["stats"] = dict(payload.get("stats") or {})
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SolveReport":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid solve report JSON: {exc}") from exc
        return cls.from_dict(data)
