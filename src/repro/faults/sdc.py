"""Silent-data-corruption fault model.

Strikes are drawn per node and per iteration from seeded Bernoulli
trials — either a uniform ``probability`` or an explicit per-node
``corruption_chances`` profile (heterogeneous hardware: some nodes are
flakier than others).  Each strike perturbs one element of one owned
vector block, silently; detection is the job of a verification
strategy (``pv`` / ``pv_forward`` in :mod:`repro.core.pv`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cluster.failures import FailureSchedule
from ..exceptions import ConfigurationError
from .events import CORRUPTIBLE_VECTORS, SDC_MODES, SDCEvent


class SDCModel:
    """Seeded per-node Bernoulli corruption strikes.

    Parameters
    ----------
    probability:
        Uniform per-node, per-trial strike probability (ignored when
        ``corruption_chances`` is given).
    corruption_chances:
        Per-node strike probabilities; shorter sequences are cycled
        over the ranks, so ``(0.1, 0.0)`` makes every even rank flaky.
    period:
        Trials happen every ``period`` iterations (1 = every iteration).
    vector / mode / magnitude:
        Forwarded to each :class:`SDCEvent`.
    max_events:
        Optional hard cap on the number of strikes per run.
    """

    def __init__(
        self,
        probability: float = 0.02,
        corruption_chances: Sequence[float] | None = None,
        period: int = 1,
        vector: str = "x",
        mode: str = "bitflip",
        magnitude: float = 1e-2,
        max_events: int | None = None,
    ):
        if corruption_chances is None:
            if not 0.0 <= probability <= 1.0:
                raise ConfigurationError(
                    f"sdc probability must be in [0, 1], got {probability}"
                )
        else:
            chances = tuple(float(c) for c in corruption_chances)
            if not chances:
                raise ConfigurationError("corruption_chances must be non-empty")
            if any(not 0.0 <= c <= 1.0 for c in chances):
                raise ConfigurationError(
                    f"corruption_chances must lie in [0, 1], got {chances}"
                )
            corruption_chances = chances
        if period < 1:
            raise ConfigurationError(f"sdc period must be >= 1, got {period}")
        if vector not in CORRUPTIBLE_VECTORS:
            raise ConfigurationError(
                f"sdc vector must be one of {CORRUPTIBLE_VECTORS}, got {vector!r}"
            )
        if mode not in SDC_MODES:
            raise ConfigurationError(f"sdc mode must be one of {SDC_MODES}, got {mode!r}")
        if max_events is not None and max_events < 0:
            raise ConfigurationError(f"max_events must be >= 0, got {max_events}")
        self.probability = float(probability)
        self.corruption_chances = corruption_chances
        self.period = int(period)
        self.vector = vector
        self.mode = mode
        self.magnitude = float(magnitude)
        self.max_events = max_events

    def _chances(self, n_nodes: int) -> tuple[float, ...]:
        if self.corruption_chances is None:
            return (self.probability,) * n_nodes
        profile = self.corruption_chances
        return tuple(profile[r % len(profile)] for r in range(n_nodes))

    def schedule(self, ctx) -> FailureSchedule:
        rng = np.random.default_rng(ctx.seed)
        chances = self._chances(ctx.n_nodes)
        upper = max(ctx.reference_iterations - 1, 1)
        events: list[SDCEvent] = []
        for iteration in range(1, upper + 1, self.period):
            # One draw per rank per trial, in rank order — the event
            # count and placement depend only on (seed, C, N, params).
            draws = rng.random(ctx.n_nodes)
            for rank in range(ctx.n_nodes):
                if draws[rank] < chances[rank]:
                    events.append(
                        SDCEvent(
                            iteration=iteration,
                            rank=rank,
                            vector=self.vector,
                            mode=self.mode,
                            magnitude=self.magnitude,
                            seed=int(rng.integers(0, 2**31)),
                        )
                    )
        if self.max_events is not None:
            events = events[: self.max_events]
        return FailureSchedule(events)
