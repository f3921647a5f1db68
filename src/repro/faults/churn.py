"""Epoch-based node-churn fault model.

Time is cut into fixed-length epochs; at each epoch boundary a seeded
draw decides whether a contiguous block of members leaves the cluster.
Departures are :class:`~repro.faults.events.ChurnEvent`s — fail-stop
events tagged with the epoch index and the critical/sufficient
cluster-size accounting of membership-based systems: ``critical_size``
is the floor below which recovery is impossible (``N - ϕ`` survivors is
the redundancy limit), ``sufficient_size`` the full-capacity size the
rejoin (recovery replacement) restores.
"""

from __future__ import annotations

import numpy as np

from ..cluster.failures import FailureSchedule, contiguous_ranks
from ..exceptions import ConfigurationError
from .events import ChurnEvent


class ChurnModel:
    """Seeded epoch-boundary leave/rejoin churn.

    Parameters
    ----------
    epoch_iterations:
        Absolute epoch length; defaults to ``epoch_fraction * C``
        (floored at 2) so quick-mode problems keep the churn density.
    leave_probability:
        Chance that an epoch boundary loses a block of members.
    width:
        Departing-block width (clamped to the recoverable ``min(ϕ,
        N-1)``, like every generator).
    """

    def __init__(
        self,
        epoch_iterations: int | None = None,
        epoch_fraction: float = 0.2,
        leave_probability: float = 0.5,
        width: int | None = None,
    ):
        if epoch_iterations is not None and epoch_iterations < 1:
            raise ConfigurationError(
                f"epoch_iterations must be >= 1, got {epoch_iterations}"
            )
        if not 0.0 < epoch_fraction <= 1.0:
            raise ConfigurationError(
                f"epoch_fraction must be in (0, 1], got {epoch_fraction}"
            )
        if not 0.0 <= leave_probability <= 1.0:
            raise ConfigurationError(
                f"leave_probability must be in [0, 1], got {leave_probability}"
            )
        self.epoch_iterations = epoch_iterations
        self.epoch_fraction = float(epoch_fraction)
        self.leave_probability = float(leave_probability)
        self.width = width

    def schedule(self, ctx) -> FailureSchedule:
        rng = np.random.default_rng(ctx.seed)
        C = ctx.reference_iterations
        epoch_len = self.epoch_iterations or max(2, round(self.epoch_fraction * C))
        max_width = ctx.clamp_width(self.width)
        sufficient = ctx.n_nodes
        critical = ctx.n_nodes - max(1, min(ctx.phi, ctx.n_nodes - 1))
        upper = max(C - 1, 1)
        events: list[ChurnEvent] = []
        used: set[int] = set()
        epoch = 0
        boundary = epoch_len
        while boundary <= upper:
            epoch += 1
            # Fixed three draws per boundary (leave?, width, start) so
            # the stream position — hence every later epoch — depends
            # only on the seed, not on earlier outcomes.
            leave = rng.random() < self.leave_probability
            width = int(rng.integers(1, max_width + 1))
            start = int(rng.integers(0, ctx.n_nodes))
            iteration = ctx.clamp_iteration(boundary)
            if leave and iteration not in used:
                used.add(iteration)
                events.append(
                    ChurnEvent(
                        iteration=iteration,
                        ranks=contiguous_ranks(start, width, ctx.n_nodes),
                        epoch=epoch,
                        critical_size=critical,
                        sufficient_size=sufficient,
                    )
                )
            boundary += epoch_len
        return FailureSchedule(events)
