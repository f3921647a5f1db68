"""Strategy registrations and factory.

The built-in resilience strategies are ordinary registrations in the
pluggable strategy registry (:data:`repro.api.registry.STRATEGIES`);
third-party strategies join via ``@register_strategy``.  The paper's
prescription that ESRP with T ∈ {1, 2} *is* ESR (§3: "For T = 2 it no
longer makes sense... for T = 1 ... this corresponds to regular ESR")
lives in the ``esrp`` builder.
"""

from __future__ import annotations

from ..api.registry import STRATEGIES, builder_signature, register_strategy
from ..solvers.engine import NoResilience, ResilienceStrategy
from .baselines import (
    FullRestartStrategy,
    LeastSquaresRecovery,
    LinearInterpolationRecovery,
)
from .esr import ESRStrategy
from .esrp import ESRPStrategy
from .imcr import IMCRStrategy
from .lossy import LossyIMCRStrategy
from .pv import PV_THRESHOLD, PeriodicVerificationStrategy

#: Canonical built-in strategy names (kept for backward compatibility;
#: the authoritative list — including plugins — is
#: :func:`available_strategies`).
STRATEGY_NAMES = (
    "reference",
    "esr",
    "esrp",
    "imcr",
    "full_restart",
    "linear_interpolation",
    "least_squares",
    "pv",
    "pv_forward",
    "lossy_imcr",
)


def available_strategies() -> tuple[str, ...]:
    """Names accepted by :func:`make_strategy` (built-ins + plugins)."""
    return STRATEGIES.names()


@register_strategy("reference", aliases=("none", "pcg"))
def _build_reference() -> ResilienceStrategy:
    return NoResilience()


@register_strategy("esr")
def _build_esr(phi: int = 1, rule: str = "paper", destinations: str = "eq1"):
    return ESRStrategy(phi=phi, rule=rule, destinations=destinations)


@register_strategy("esrp")
def _build_esrp(
    T: int = 1, phi: int = 1, rule: str = "paper", destinations: str = "eq1"
):
    if T <= 2:
        # The paper's degenerate cases: ESRP with T in {1,2} is ESR.
        return ESRStrategy(phi=phi, rule=rule, destinations=destinations)
    return ESRPStrategy(T=T, phi=phi, rule=rule, destinations=destinations)


@register_strategy("imcr", aliases=("cr", "checkpoint"))
def _build_imcr(T: int = 1, phi: int = 1) -> ResilienceStrategy:
    return IMCRStrategy(T=max(T, 1), phi=phi)


@register_strategy("full_restart")
def _build_full_restart() -> ResilienceStrategy:
    return FullRestartStrategy()


@register_strategy("linear_interpolation", aliases=("lininterp", "li"))
def _build_linear_interpolation() -> ResilienceStrategy:
    return LinearInterpolationRecovery()


@register_strategy("least_squares", aliases=("lsq",))
def _build_least_squares() -> ResilienceStrategy:
    return LeastSquaresRecovery()


@register_strategy("pv", aliases=("periodic_verification",))
def _build_pv(
    T: int = 1, phi: int = 1, threshold: float = PV_THRESHOLD, mode: str = "backward"
) -> ResilienceStrategy:
    return PeriodicVerificationStrategy(
        T=max(T, 1), phi=phi, threshold=threshold, mode=mode
    )


@register_strategy("pv_forward", aliases=("pvf",))
def _build_pv_forward(
    T: int = 1, phi: int = 1, threshold: float = PV_THRESHOLD
) -> ResilienceStrategy:
    return PeriodicVerificationStrategy(
        T=max(T, 1), phi=phi, threshold=threshold, mode="forward"
    )


@register_strategy("lossy_imcr", aliases=("lossy_cr",))
def _build_lossy_imcr(
    T: int = 1,
    phi: int = 1,
    error_bound: float = 1e-4,
    ratio: float = 4.0,
    seed: int = 0,
) -> ResilienceStrategy:
    return LossyIMCRStrategy(
        T=max(T, 1), phi=phi, error_bound=error_bound, ratio=ratio, seed=seed
    )


def make_strategy(
    name: str,
    T: int = 1,
    phi: int = 1,
    rule: str = "paper",
    destinations: str = "eq1",
    **extra,
) -> ResilienceStrategy:
    """Instantiate a resilience strategy by registered name.

    Parameters
    ----------
    name:
        A name (or alias) registered in the strategy registry; the
        built-ins are :data:`STRATEGY_NAMES`.
    T:
        Checkpoint/storage interval (ESRP and IMCR).
    phi:
        Number of redundant copies / supported simultaneous failures.
    rule:
        ASpMV extra-entry selection rule: ``"paper"`` (corrected closed
        form) or ``"greedy"`` (minimal sends).
    destinations:
        Designated-destination policy for redundant copies: ``"eq1"``
        (the paper's nearest neighbours) or ``"switch_aware"`` (prefer
        other fat-tree leaves — survives whole-switch faults).
    **extra:
        Strategy-specific parameters forwarded verbatim to the builder
        (e.g. ``threshold``/``mode`` for ``pv``, ``error_bound``/
        ``ratio`` for ``lossy_imcr``).

    The builder gets those of ``T``, ``phi``, ``rule`` and
    ``destinations`` it names, or all four if it takes ``**kwargs``.
    """
    builder = STRATEGIES.get(name)
    knobs = {"T": T, "phi": phi, "rule": rule, "destinations": destinations}
    parameters = builder_signature(builder).parameters
    if not any(p.kind is p.VAR_KEYWORD for p in parameters.values()):
        knobs = {key: value for key, value in knobs.items() if key in parameters}
    return builder(**knobs, **extra)
