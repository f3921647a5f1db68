"""Fault events beyond fail-stop.

The fail-stop machinery models exactly one event shape: a set of ranks
dies (:class:`~repro.cluster.failures.FailureEvent`).  This module adds

* :class:`SDCEvent` — a silent-data-corruption strike: one element of
  one node's owned block of a state vector is perturbed, *without* any
  failure notification (the solver only notices if a detection
  strategy recomputes an invariant, cf. arXiv:1511.04478);
* :class:`ChurnEvent` — an epoch-tagged node departure (a
  :class:`FailureEvent` subclass, so the existing recovery machinery
  handles the leave/rejoin cycle) carrying the critical/sufficient
  cluster-size bookkeeping of epoch-based membership models.

:class:`~repro.cluster.failures.FailureSchedule` carries both families:
``pop_due`` serves the fail-stop events, ``pop_corruptions`` the
corruption events.

Every event is a frozen dataclass with a ``fault_kind`` tag and a
``to_dict`` serialisation, so mixed schedules round-trip losslessly
through :class:`~repro.api.request.SolveRequest` JSON.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..cluster.failures import FailureEvent
from ..exceptions import ConfigurationError

#: Vector names an SDC event may target (the PCG state vectors).
CORRUPTIBLE_VECTORS = ("x", "r", "z", "p")
#: Corruption modes: flip one high mantissa bit, or add a relative
#: perturbation (both finite — exponent/sign flips would produce
#: inf/NaN, which is a crash, not a *silent* error).
SDC_MODES = ("bitflip", "scale")


@dataclasses.dataclass(frozen=True)
class SDCEvent:
    """Silently corrupt one element of ``vector``'s block on ``rank``.

    The strike lands at the fail-stop injection point of iteration
    ``iteration`` (right after the SpMV), but — unlike a failure — the
    solver receives no signal.  ``seed`` makes the corrupted index and
    bit position deterministic, and the corruption itself is a plain
    in-place block mutation, so it is identical under every kernel
    backend (blocks are bit-identical by the backend contract).
    """

    iteration: int
    rank: int
    vector: str = "x"
    mode: str = "bitflip"
    #: Relative perturbation size for ``mode="scale"``.
    magnitude: float = 1e-2
    #: Per-event seed (index/bit selection).
    seed: int = 0

    fault_kind = "sdc"

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ConfigurationError(f"SDC iteration must be >= 0, got {self.iteration}")
        if self.rank < 0:
            raise ConfigurationError(f"SDC rank must be >= 0, got {self.rank}")
        if self.vector not in CORRUPTIBLE_VECTORS:
            raise ConfigurationError(
                f"SDC vector must be one of {CORRUPTIBLE_VECTORS}, got {self.vector!r}"
            )
        if self.mode not in SDC_MODES:
            raise ConfigurationError(
                f"SDC mode must be one of {SDC_MODES}, got {self.mode!r}"
            )

    @property
    def ranks(self) -> tuple[int, ...]:
        """Uniform rank view (validation shares the fail-stop path)."""
        return (self.rank,)

    @property
    def width(self) -> int:
        return 1

    def apply(self, block: np.ndarray) -> dict:
        """Corrupt one element of ``block`` in place; return what changed."""
        if block.size == 0:
            return {"skipped": True}
        rng = np.random.default_rng(self.seed)
        index = int(rng.integers(0, block.size))
        old = float(block[index])
        if self.mode == "bitflip":
            # Flip one of the high mantissa bits (32..51): a relative
            # perturbation between ~1e-6 and 0.5 — silent, finite, and
            # large enough for residual-gap detection.
            bit = int(rng.integers(32, 52))
            new = float(
                np.uint64(np.float64(old).view(np.uint64) ^ np.uint64(1 << bit)).view(
                    np.float64
                )
            )
        else:  # "scale"
            new = old + self.magnitude * (1.0 + abs(old))
        block[index] = new
        return {"index": index, "old": old, "new": float(new)}

    def to_dict(self) -> dict:
        return {
            "kind": self.fault_kind,
            "iteration": self.iteration,
            "rank": self.rank,
            "vector": self.vector,
            "mode": self.mode,
            "magnitude": self.magnitude,
            "seed": self.seed,
        }


@dataclasses.dataclass(frozen=True)
class ChurnEvent(FailureEvent):
    """Epoch-based departure of ``ranks`` (rejoin via recovery).

    Mechanically a node failure — the existing strategy ``recover``
    hooks handle it, and the replacement that recovery brings in *is*
    the rejoining member.  The extra fields carry the membership
    accounting of epoch-based churn models: ``critical_size`` is the
    minimum cluster size below which recovery is impossible
    (``n_nodes - ϕ`` survivors), ``sufficient_size`` the size at which
    the epoch runs at full capacity.
    """

    epoch: int = 0
    critical_size: int = 1
    sufficient_size: int = 0

    fault_kind = "churn"

    def to_dict(self) -> dict:
        return {
            "kind": self.fault_kind,
            "iteration": self.iteration,
            "ranks": list(self.ranks),
            "epoch": self.epoch,
            "critical_size": self.critical_size,
            "sufficient_size": self.sufficient_size,
        }


def event_from_dict(data) -> FailureEvent | SDCEvent:
    """Deserialise one fault event (the inverse of every ``to_dict``).

    Plain ``{iteration, ranks}`` mappings — the historical fail-stop
    shape — load as :class:`FailureEvent`; a ``kind`` key dispatches to
    the richer event classes.
    """
    payload = dict(data)
    kind = payload.pop("kind", "node_failure")
    if kind == "sdc":
        return SDCEvent(**payload)
    if kind == "churn":
        payload["ranks"] = tuple(payload["ranks"])
        return ChurnEvent(**payload)
    if kind == "node_failure":
        return FailureEvent(int(payload["iteration"]), tuple(payload["ranks"]))
    raise ConfigurationError(f"unknown fault event kind {kind!r}")
