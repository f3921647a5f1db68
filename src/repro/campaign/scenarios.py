"""Failure-scenario generators for campaign sweeps.

A scenario spec names a *generator kind* plus its parameters; the
concrete :class:`~repro.cluster.failures.FailureSchedule` is resolved
per run, because the paper anchors failure timing to the reference
iteration count C of the problem at hand ("the interval containing
iteration C/2", MTBF expressed in iterations, ...).

Kinds
-----
``failure_free``
    No failures (baseline / failure-free-overhead rows).
``worst_case``
    The paper's §5 protocol: one contiguous block of ψ = ϕ ranks fails
    two iterations before the end of the checkpoint interval containing
    C/2 (placement from :func:`place_worst_case_failure`).
``fraction``
    One contiguous-block failure at iteration ``fraction * C``.
``multi_node``
    Simultaneous multi-node failure (arXiv:1907.13077 regime): a block
    of ``width`` ranks fails at once at a chosen iteration fraction.
``storm``
    ``count`` separate failure events spread evenly over the solve,
    with rotating block positions (the repeated-failure stress regime).
``mtbf``
    Exponential inter-arrival (Poisson) schedule driven by a mean time
    between failures expressed in iterations or as a fraction of C.
``sdc``
    Silent-data-corruption strikes from seeded per-node Bernoulli
    trials (:class:`repro.faults.SDCModel`); pair with the ``pv``
    detection strategies.
``lossy``
    Fail-stop events that exercise lossy-checkpoint restores, carrying
    the compressor's ``error_bound``/``ratio`` parameters
    (:class:`repro.faults.LossyCheckpointModel`); pair with
    ``lossy_imcr``.
``churn``
    Epoch-based node leave/rejoin churn with critical/sufficient
    cluster-size accounting (:class:`repro.faults.ChurnModel`).

Every generator clamps the failing-block width to ``min(width, ϕ,
N - 1)`` so the produced scenario is recoverable by construction —
campaign rows measure overhead, not data loss.

:data:`SCENARIO_KINDS` is the one table of schedule generators: the
fault-taxonomy kinds build their model from :mod:`repro.faults` with
the spec's parameters, and every kind rejects a parameter it does not
take with :class:`~repro.exceptions.ConfigurationError`, already in
:meth:`ScenarioSpec.make` (so a campaign spec, a queue submission or a
request that declares a misspelled parameter fails up front).
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Any, Callable, Mapping

from ..api.registry import builder_signature
from ..cluster.failures import (
    FailureEvent,
    FailureSchedule,
    block_failure_ranks,
    contiguous_ranks,
    poisson_schedule,
)
from ..exceptions import ConfigurationError
from ..faults import ChurnModel, LossyCheckpointModel, SDCModel


@dataclasses.dataclass(frozen=True)
class ScenarioContext:
    """Per-run facts a generator may anchor to."""

    n_nodes: int
    phi: int
    strategy: str
    T: int
    #: Reference iteration count C of this problem configuration.
    reference_iterations: int
    #: Run-derived seed for stochastic generators.
    seed: int

    def clamp_width(self, width: int | None) -> int:
        """Recoverable block width: at least 1, at most min(ϕ, N-1)."""
        limit = max(1, min(self.phi, self.n_nodes - 1))
        if width is None:
            return limit
        if width < 1:
            raise ConfigurationError(f"scenario width must be >= 1, got {width}")
        return min(int(width), limit)

    def clamp_iteration(self, iteration: int) -> int:
        """Keep the event inside the undisturbed trajectory [1, C-1]."""
        upper = max(self.reference_iterations - 1, 1)
        return max(1, min(int(iteration), upper))


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """A named generator plus its parameters (hashable, JSON-friendly)."""

    kind: str
    #: Sorted ``(key, value)`` pairs — kept as a tuple so RunSpecs hash.
    params: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def make(cls, kind: str, **params: Any) -> "ScenarioSpec":
        """A spec of ``kind``, checked against its generator's signature.

        An unknown kind or a parameter the generator does not take
        raises :class:`~repro.exceptions.ConfigurationError` here, when
        a campaign is declared, not when a run generates its schedule.
        Parameter values are checked by the generator itself.
        """
        if kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {kind!r}; available: {', '.join(scenario_kinds())}"
            )
        try:
            builder_signature(SCENARIO_KINDS[kind]).bind(None, **params)
        except TypeError as exc:
            raise ConfigurationError(f"bad parameters for scenario {kind!r}: {exc}") from exc
        # Sequence-valued parameters (e.g. per-node corruption_chances)
        # arrive as JSON lists; coerce to tuples so RunSpecs stay
        # hashable (json re-serialises tuples as lists, so round-trips
        # are stable).
        params = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in params.items()
        }
        return cls(kind=kind, params=tuple(sorted(params.items())))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        payload = dict(data)
        try:
            kind = payload.pop("kind")
        except KeyError as exc:
            raise ConfigurationError(f"scenario spec {data!r} lacks 'kind'") from exc
        return cls.make(kind, **payload)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, **dict(self.params)}

    @property
    def injects_failures(self) -> bool:
        return self.kind != "failure_free"

    @property
    def label(self) -> str:
        """Compact stable label used inside run ids."""
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"


# ----------------------------------------------------------------- generators


def place_worst_case_failure(strategy: str, T: int, reference_iterations: int) -> int:
    """The paper's failure placement (§5).

    "We introduce a node failure in the interval between checkpoints
    that contains the iteration C/2 ... two iterations before its end."

    Checkpoint/recovery points per strategy:

    * ESR (or ESRP with T ≤ 2): every iteration is a recovery point —
      the failure goes to C/2 itself;
    * ESRP (T ≥ 3): storage stages complete at iterations kT+1 (k ≥ 1);
    * IMCR: checkpoints are taken at iterations kT (k ≥ 1).
    """
    if reference_iterations < 1:
        raise ConfigurationError("reference_iterations must be >= 1")
    half = reference_iterations // 2
    key = strategy.lower()
    if key == "esr" or (key == "esrp" and T <= 2):
        return max(half, 1)
    if key == "esrp":
        # recovery points: kT+1; interval containing `half` ends at the
        # next recovery point; failure 2 iterations before that.
        k = max((half - 1) // T, 0)
        next_point = (k + 1) * T + 1
        return max(next_point - 2, 1)
    if key == "imcr":
        k = max(half // T, 0)
        next_point = (k + 1) * T
        return max(next_point - 2, 1)
    raise ConfigurationError(f"no worst-case placement rule for strategy {strategy!r}")


def _failure_free(ctx: ScenarioContext) -> FailureSchedule:
    return FailureSchedule()


def _worst_case(
    ctx: ScenarioContext, location: str = "start", width: int | None = None
) -> FailureSchedule:
    width = ctx.clamp_width(width)
    iteration = ctx.clamp_iteration(
        place_worst_case_failure(ctx.strategy, ctx.T, ctx.reference_iterations)
    )
    ranks = block_failure_ranks(location, width, ctx.n_nodes)
    return FailureSchedule([FailureEvent(iteration, ranks)])


def _fraction(
    ctx: ScenarioContext,
    fraction: float = 0.5,
    location: str = "start",
    width: int | None = None,
) -> FailureSchedule:
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    width = ctx.clamp_width(width)
    iteration = ctx.clamp_iteration(round(float(fraction) * ctx.reference_iterations))
    ranks = block_failure_ranks(location, width, ctx.n_nodes)
    return FailureSchedule([FailureEvent(iteration, ranks)])


def _multi_node(
    ctx: ScenarioContext,
    width: int | None = None,
    fraction: float = 0.5,
    start: int = 0,
) -> FailureSchedule:
    if not 0.0 < fraction < 1.0:
        raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
    width = ctx.clamp_width(width)
    iteration = ctx.clamp_iteration(round(fraction * ctx.reference_iterations))
    ranks = contiguous_ranks(int(start) % ctx.n_nodes, width, ctx.n_nodes)
    return FailureSchedule([FailureEvent(iteration, ranks)])


def _storm(
    ctx: ScenarioContext,
    count: int = 3,
    width: int | None = None,
    first_fraction: float = 0.25,
    last_fraction: float = 0.75,
) -> FailureSchedule:
    """``count`` block failures spread evenly across the solve.

    Block positions rotate around the ring so successive events hit
    different nodes (replacements included), like a rolling outage.
    """
    if count < 1:
        raise ConfigurationError(f"storm count must be >= 1, got {count}")
    if not 0.0 < first_fraction <= last_fraction < 1.0:
        raise ConfigurationError(
            f"need 0 < first_fraction <= last_fraction < 1, got "
            f"({first_fraction}, {last_fraction})"
        )
    width = ctx.clamp_width(width)
    C = ctx.reference_iterations
    upper = max(C - 1, 1)
    events: list[FailureEvent] = []
    used: set[int] = set()
    for i in range(count):
        if count == 1:
            frac = first_fraction
        else:
            frac = first_fraction + (last_fraction - first_fraction) * i / (count - 1)
        iteration = ctx.clamp_iteration(round(frac * C))
        while iteration in used and iteration <= upper:
            iteration += 1  # keep events on distinct iterations
        if iteration > upper:
            # The trajectory is too short to hold more distinct events;
            # emit fewer rather than place events that can never fire.
            continue
        used.add(iteration)
        start = (i * width) % ctx.n_nodes
        events.append(FailureEvent(iteration, contiguous_ranks(start, width, ctx.n_nodes)))
    return FailureSchedule(events)


def _mtbf(
    ctx: ScenarioContext,
    mtbf_iterations: int | None = None,
    mtbf_fraction: float = 0.5,
    mtbf_floor: int = 1,
    width: int | None = None,
    min_gap: int | None = None,
    min_gap_floor: int = 2,
) -> FailureSchedule:
    """MTBF-driven exponential schedule (Young/Daly regime).

    The MTBF is ``max(mtbf_floor, mtbf_fraction * C)`` unless an
    absolute ``mtbf_iterations`` is given; events are at least
    ``max(T, min_gap_floor)`` iterations apart unless ``min_gap``
    overrides that too.  The floors let small quick-mode problems keep
    the failure density of the full-scale regime.
    """
    if mtbf_iterations is None:
        if mtbf_fraction <= 0:
            raise ConfigurationError(f"mtbf_fraction must be > 0, got {mtbf_fraction}")
        mtbf_iterations = max(
            1, mtbf_floor, round(mtbf_fraction * ctx.reference_iterations)
        )
    width = ctx.clamp_width(width)
    if min_gap is None:
        min_gap = max(ctx.T, min_gap_floor, 2)
    schedule = poisson_schedule(
        mtbf_iterations=mtbf_iterations,
        horizon=max(ctx.reference_iterations - 1, 1),
        width=width,
        n_nodes=ctx.n_nodes,
        seed=ctx.seed,
        min_gap=min_gap,
    )
    # poisson_schedule may draw an arrival inside iteration 0; campaign
    # events must fire strictly inside the solve (iteration >= 1).
    return FailureSchedule([e for e in schedule if e.iteration >= 1])


def _from_model(model: type) -> Callable[..., FailureSchedule]:
    """The generator ``model(**params).schedule(ctx)``, with the
    signature ``(ctx, <model's parameters>)`` that
    :meth:`ScenarioSpec.make` checks."""

    def generate(ctx: ScenarioContext, **params: Any) -> FailureSchedule:
        return model(**params).schedule(ctx)

    signature = inspect.signature(model)
    ctx = inspect.Parameter("ctx", inspect.Parameter.POSITIONAL_OR_KEYWORD)
    generate.__signature__ = signature.replace(
        parameters=[ctx, *signature.parameters.values()]
    )
    return generate


SCENARIO_KINDS: dict[str, Callable[..., FailureSchedule]] = {
    "failure_free": _failure_free,
    "worst_case": _worst_case,
    "fraction": _fraction,
    "multi_node": _multi_node,
    "storm": _storm,
    "mtbf": _mtbf,
    "sdc": _from_model(SDCModel),
    "lossy": _from_model(LossyCheckpointModel),
    "churn": _from_model(ChurnModel),
}


def scenario_kinds() -> tuple[str, ...]:
    """Names accepted by :meth:`ScenarioSpec.make`."""
    return tuple(sorted(SCENARIO_KINDS))


def generate_schedule(spec: ScenarioSpec, ctx: ScenarioContext) -> FailureSchedule:
    """Resolve a scenario spec into a concrete failure schedule."""
    try:
        generator = SCENARIO_KINDS[spec.kind]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown scenario kind {spec.kind!r}; available: {', '.join(scenario_kinds())}"
        ) from exc
    try:
        return generator(ctx, **dict(spec.params))
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for scenario {spec.kind!r}: {exc}"
        ) from exc
