"""Lossy-checkpoint fault model and its compression error model.

Lossy checkpointing (arXiv:1804.11268) trades checkpoint volume for a
bounded compression error: a checkpoint restored after a failure is
only accurate to the compressor's error bound, and that error feeds
back into CG convergence.  :class:`CompressionModel` realises an
SZ-style absolute-error-bound quantiser — deterministic, seeded, and
backend-invariant (pure elementwise numpy on owned blocks) — and
:class:`LossyCheckpointModel` is the scenario-side fault model that
schedules the fail-stop events which force those degraded restores to
actually happen.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cost_model import BYTES_PER_FLOAT
from ..cluster.failures import FailureEvent, FailureSchedule, contiguous_ranks
from ..exceptions import ConfigurationError


class CompressionModel:
    """Absolute-error-bound uniform quantiser with seeded dither.

    ``compress`` rounds each value to a grid of step ``2 * error_bound``
    shifted by a seeded dither offset, so the pointwise error is at most
    ``error_bound`` and two models with the same seed agree bit-for-bit.
    ``compressed_bytes`` models the wire/storage footprint at a fixed
    compression ``ratio``.
    """

    def __init__(self, error_bound: float = 1e-6, ratio: float = 4.0, seed: int = 0):
        if error_bound <= 0:
            raise ConfigurationError(f"error_bound must be > 0, got {error_bound}")
        if ratio < 1.0:
            raise ConfigurationError(f"compression ratio must be >= 1, got {ratio}")
        self.error_bound = float(error_bound)
        self.ratio = float(ratio)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        # One dither offset per model: breaks the zero-is-on-grid
        # special case so even converged (tiny) values incur error.
        self._offset = float(rng.uniform(-self.error_bound, self.error_bound))

    def compress(self, block: np.ndarray) -> np.ndarray:
        """Quantised copy of ``block`` (|error| <= error_bound)."""
        step = 2.0 * self.error_bound
        return np.round((block + self._offset) / step) * step - self._offset

    def compressed_bytes(self, nbytes: int) -> int:
        """Modelled post-compression size of an ``nbytes`` payload."""
        if nbytes <= 0:
            return 0
        return max(BYTES_PER_FLOAT, int(round(nbytes / self.ratio)))


class LossyCheckpointModel:
    """Fail-stop events that exercise lossy-checkpoint restores.

    The compression itself lives in the ``lossy_imcr`` strategy (the
    checkpoint *content* is a strategy concern); this model supplies
    the failure schedule — ``count`` contiguous-block events spread
    over the solve — plus the error-model parameters that campaign
    specs attach to the run via ``strategy_params``.
    """

    def __init__(
        self,
        count: int = 1,
        fraction: float = 0.5,
        width: int | None = None,
        location: str = "start",
        error_bound: float = 1e-4,
        ratio: float = 4.0,
    ):
        if count < 1:
            raise ConfigurationError(f"lossy count must be >= 1, got {count}")
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1), got {fraction}")
        if location not in ("start", "center"):
            raise ConfigurationError(
                f"unknown failure location {location!r}; expected start|center"
            )
        # Validate the error-model parameters eagerly, even though the
        # strategy consumes them.
        CompressionModel(error_bound=error_bound, ratio=ratio)
        self.count = int(count)
        self.fraction = float(fraction)
        self.width = width
        self.location = location
        self.error_bound = float(error_bound)
        self.ratio = float(ratio)

    def schedule(self, ctx) -> FailureSchedule:
        width = ctx.clamp_width(self.width)
        C = ctx.reference_iterations
        upper = max(C - 1, 1)
        base = ctx.n_nodes // 2 if self.location == "center" else 0
        events: list[FailureEvent] = []
        used: set[int] = set()
        for i in range(self.count):
            # Single event sits at ``fraction * C``; multiple events
            # spread evenly from fraction*C to the end of the solve.
            if self.count == 1:
                frac = self.fraction
            else:
                last = max(self.fraction, 0.9)
                frac = self.fraction + (last - self.fraction) * i / (self.count - 1)
            iteration = ctx.clamp_iteration(round(frac * C))
            while iteration in used and iteration <= upper:
                iteration += 1
            if iteration > upper:
                continue
            used.add(iteration)
            start = (base + i * width) % ctx.n_nodes
            events.append(
                FailureEvent(iteration, contiguous_ranks(start, width, ctx.n_nodes))
            )
        return FailureSchedule(events)
