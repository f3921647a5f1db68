"""Machine cost model for the virtual cluster.

The paper measures wall-clock runtimes on 128 nodes of the VSC3 cluster.
We re-execute the distributed algorithms inside one Python process; real
wall-clock time would then be dominated by interpreter overhead rather
than by the communication/computation trade-offs the paper studies.  The
virtual cluster therefore advances *simulated* per-node clocks using the
classic postal/LogGP-flavoured model below, and the harness reports the
simulated makespan as "runtime".

Model
-----
* point-to-point message of ``b`` bytes over ``h`` hops:
  ``alpha * (1 + hop_penalty*(h-1)) + b * beta`` seconds
  (the sender is busy for the same duration; the receiver cannot proceed
  before the message arrived);
* ``f`` floating-point operations on one node: ``f * gamma`` seconds,
  where ``gamma`` is the reciprocal of an *effective* sparse-kernel flop
  rate (memory-bound, far below peak);
* local memory traffic of ``b`` bytes (e.g. checkpoint copies into a
  buddy buffer, starred copies): ``b * mu`` seconds;
* an allreduce of ``b`` bytes across ``n`` nodes costs
  ``2*ceil(log2 n) * (alpha + b*beta)`` (binomial reduce + broadcast);
* optional multiplicative log-normal noise emulates machine variability
  so the paper's "median of >= 5 repetitions" protocol is meaningful.

The default constants are calibrated in :mod:`repro.harness.calibration`
so that the *composition* of a failure-free PCG iteration (local SpMV
compute vs. halo exchange vs. reductions) at our reduced scale resembles
the regime of the paper's experiments.  Absolute times are not the
object of the reproduction; relative overheads are.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ..exceptions import ConfigurationError

#: Bytes per double-precision floating-point value.
BYTES_PER_FLOAT = 8


@dataclasses.dataclass(frozen=True)
class CostModel:
    """Immutable bundle of machine constants.

    Attributes
    ----------
    alpha:
        Message start-up latency in seconds.
    beta:
        Per-byte network transfer time in seconds (1/bandwidth).
    gamma:
        Per-flop compute time in seconds (1/effective flop rate).
    mu:
        Per-byte local memory-copy time in seconds.
    hop_penalty:
        Fractional latency increase per additional network hop beyond
        the first (``h`` hops cost ``alpha*(1+hop_penalty*(h-1))``).
    noise:
        Standard deviation of multiplicative log-normal noise applied to
        every charged cost; ``0`` disables noise and makes the simulated
        clock fully deterministic.
    """

    alpha: float = 6.0e-7
    beta: float = 1.6e-10
    gamma: float = 6.0e-10
    mu: float = 1.5e-11
    hop_penalty: float = 0.15
    noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "mu"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(f"cost-model constant {name!r} must be >= 0, got {value}")
        if self.hop_penalty < 0:
            raise ConfigurationError("hop_penalty must be >= 0")
        if self.noise < 0:
            raise ConfigurationError("noise must be >= 0")

    # -- elementary charges -------------------------------------------------

    def message_time(self, nbytes: int, hops: int = 1) -> float:
        """Time for one point-to-point message of ``nbytes`` over ``hops``."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        hops = max(1, int(hops))
        latency = self.alpha * (1.0 + self.hop_penalty * (hops - 1))
        return latency + nbytes * self.beta

    def payload_time(self, nbytes: int) -> float:
        """Incremental cost of adding ``nbytes`` to an *existing* message.

        Used for ASpMV extra entries that piggy-back on a natural halo
        message: no additional start-up latency is paid.
        """
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes * self.beta

    def compute_time(self, flops: float) -> float:
        """Time for ``flops`` floating-point operations on one node."""
        if flops < 0:
            raise ConfigurationError(f"flops must be >= 0, got {flops}")
        return flops * self.gamma

    def memcpy_time(self, nbytes: int) -> float:
        """Time for a local memory copy of ``nbytes`` on one node."""
        if nbytes < 0:
            raise ConfigurationError(f"nbytes must be >= 0, got {nbytes}")
        return nbytes * self.mu

    def allreduce_time(self, nbytes: int, n_nodes: int) -> float:
        """Time for an allreduce of ``nbytes`` across ``n_nodes``."""
        if n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {n_nodes}")
        if n_nodes == 1:
            return 0.0
        rounds = 2 * math.ceil(math.log2(n_nodes))
        return rounds * (self.alpha + nbytes * self.beta)

    # -- noise ---------------------------------------------------------------

    def perturb(self, seconds: float, rng: np.random.Generator | None) -> float:
        """Apply multiplicative log-normal noise to a cost, if enabled."""
        if self.noise == 0.0 or rng is None or seconds == 0.0:
            return seconds
        return float(seconds * rng.lognormal(mean=0.0, sigma=self.noise))

    def with_noise(self, noise: float) -> "CostModel":
        """Return a copy of this model with a different noise level."""
        return dataclasses.replace(self, noise=float(noise))


#: Constants used by the paper-reproduction benchmarks.  See
#: :mod:`repro.harness.calibration` for the rationale.
VSC3_LIKE = CostModel()

#: The calibrated deterministic model of the benchmarks and campaigns
#: (noise added on request; rationale in :mod:`repro.harness.calibration`).
BENCH_COST_MODEL = CostModel(
    alpha=6.0e-7,
    beta=1.6e-10,
    gamma=1.0e-9,
    mu=1.5e-11,
    hop_penalty=0.15,
    noise=0.0,
)


def zero_cost_model() -> CostModel:
    """A model in which everything is free.

    Useful in tests that only care about numerical results and
    communication bookkeeping, not about timing.
    """
    return CostModel(alpha=0.0, beta=0.0, gamma=0.0, mu=0.0, hop_penalty=0.0, noise=0.0)
