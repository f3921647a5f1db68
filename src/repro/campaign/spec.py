"""Declarative campaign specs and their deterministic expansion.

A :class:`CampaignSpec` is the cartesian sweep description; a
:class:`RunSpec` is one fully-resolved solver run.  Expansion is

* **deterministic** — the same spec always yields the same runs in the
  same order (the order is the sorted cartesian product, not dict or
  set iteration order);
* **duplicate-free** — aliases that collapse to the same configuration
  (e.g. ``esrp`` with T = 1 *is* ESR; the reference solver ignores
  T/ϕ/scenario) are merged;
* **seeded** — every run derives its own RNG seed from the campaign
  base seed and a stable hash of the run identity, so repetitions and
  distinct configurations decorrelate while re-expansion reproduces
  the exact same seeds (the hash is SHA-256, not Python's randomized
  ``hash``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Mapping

from ..exceptions import ConfigurationError
from .scenarios import ScenarioSpec


@dataclasses.dataclass(frozen=True)
class StrategySpec:
    """One strategy row family: a name plus its interval sweep."""

    name: str
    intervals: tuple[int, ...] = (1,)

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ConfigurationError(f"strategy {self.name!r} needs >= 1 interval")
        for T in self.intervals:
            if T < 1:
                raise ConfigurationError(f"interval must be >= 1, got {T}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any] | str) -> "StrategySpec":
        if isinstance(data, str):
            return cls(name=data)
        payload = dict(data)
        name = payload.pop("name", None)
        if name is None:
            raise ConfigurationError(f"strategy spec {data!r} lacks 'name'")
        intervals = payload.pop("intervals", None)
        if "T" in payload:  # scalar convenience form
            intervals = [payload.pop("T")]
        if payload:
            raise ConfigurationError(f"unknown strategy spec keys: {sorted(payload)}")
        if intervals is None:
            intervals = (1,)
        return cls(name=str(name), intervals=tuple(int(T) for T in intervals))

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "intervals": list(self.intervals)}


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One fully-resolved solver run (picklable: crosses process pools)."""

    problem: str
    scale: str
    n_nodes: int
    preconditioner: str
    strategy: str
    T: int
    phi: int
    scenario: ScenarioSpec
    repetition: int
    #: Per-run seed (cluster noise, stochastic scenario generators).
    seed: int
    #: Campaign base seed (matrix generation — same matrix for all runs).
    problem_seed: int
    rtol: float
    #: Compute-kernel backend executing the run's numerics (a
    #: registered plugin may time or trace the default; it is not part
    #: of the run's identity).
    backend: str = "vectorized"

    @property
    def run_id(self) -> str:
        """Stable human-readable identity (also the dedup/seed key)."""
        return (
            f"{self.config_key}:{self.strategy}:T{self.T}:phi{self.phi}"
            f":{self.scenario.label}:rep{self.repetition}"
        )

    @property
    def config_key(self) -> str:
        """The session-defining part of the run identity.

        Two runs with the same config key share all per-worker warm-up
        state: the :class:`~repro.api.session.SolverSession` (matrix,
        cluster, partition, factorised preconditioners) is memoised on
        (problem, scale, n_nodes) and the reference-trajectory cache on
        the preconditioner, so this prefix of :attr:`run_id` is what
        configuration-affine queue claiming groups by.  (The serve
        layer pools on the session part alone — see
        :attr:`repro.serve.service.ServeRequest.session_key` — because
        a pool slot *is* a session.)
        """
        return (
            f"{self.problem}:{self.scale}:n{self.n_nodes}:{self.preconditioner}"
        )

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["scenario"] = self.scenario.to_dict()
        data["run_id"] = self.run_id
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        payload = {k: v for k, v in data.items() if k != "run_id"}
        payload["scenario"] = ScenarioSpec.from_dict(payload["scenario"])
        payload.setdefault("backend", "vectorized")
        return cls(**payload)


def derive_seed(base_seed: int, run_key: str) -> int:
    """Per-run seed: stable across processes and interpreter restarts."""
    digest = hashlib.sha256(f"{base_seed}|{run_key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclasses.dataclass(frozen=True)
class CampaignSpec:
    """Declarative sweep description (see :mod:`repro.campaign` docstring)."""

    name: str = "campaign"
    problems: tuple[tuple[str, str], ...] = (("emilia_923_like", "tiny"),)
    n_nodes: int = 8
    preconditioners: tuple[str, ...] = ("block_jacobi",)
    strategies: tuple[StrategySpec, ...] = (
        StrategySpec("esr"),
        StrategySpec("esrp", (20,)),
        StrategySpec("imcr", (20,)),
    )
    phis: tuple[int, ...] = (1, 2)
    scenarios: tuple[ScenarioSpec, ...] = (
        ScenarioSpec.make("failure_free"),
        ScenarioSpec.make("worst_case", location="start"),
    )
    repetitions: int = 1
    seed: int = 2020
    rtol: float = 1e-8

    def __post_init__(self) -> None:
        if self.n_nodes < 2:
            raise ConfigurationError("campaigns need at least 2 nodes")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if not self.problems:
            raise ConfigurationError("campaign needs at least one problem")
        if not self.strategies:
            raise ConfigurationError("campaign needs at least one strategy")
        if not self.scenarios:
            raise ConfigurationError("campaign needs at least one scenario")
        for phi in self.phis:
            if not 1 <= phi < self.n_nodes:
                raise ConfigurationError(
                    f"phi={phi} out of range [1, {self.n_nodes - 1}] for "
                    f"{self.n_nodes} nodes"
                )

    # ------------------------------------------------------------ (de)serialise

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        payload = dict(data)
        # Specs stored while campaigns swept kernel backends list the
        # one that remains; any other backend cannot be honoured.
        backends = payload.pop("backends", ["vectorized"])
        if list(backends) != ["vectorized"]:
            raise ConfigurationError(
                f"campaign spec sweeps kernel backends {list(backends)!r}; "
                "only 'vectorized' exists"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(f"unknown campaign spec keys: {sorted(unknown)}")
        if "problems" in payload:
            payload["problems"] = tuple(
                _parse_problem(p) for p in payload["problems"]
            )
        if "strategies" in payload:
            payload["strategies"] = tuple(
                StrategySpec.from_dict(s) for s in payload["strategies"]
            )
        if "scenarios" in payload:
            payload["scenarios"] = tuple(
                ScenarioSpec.from_dict(s) for s in payload["scenarios"]
            )
        for key in ("preconditioners", "phis"):
            if key in payload:
                payload[key] = tuple(payload[key])
        return cls(**payload)

    @classmethod
    def from_json(cls, path) -> "CampaignSpec":
        try:
            with open(path, encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as exc:
            raise ConfigurationError(f"cannot read campaign spec {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid spec JSON: {exc}") from exc

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "problems": [{"name": p, "scale": s} for p, s in self.problems],
            "n_nodes": self.n_nodes,
            "preconditioners": list(self.preconditioners),
            "strategies": [s.to_dict() for s in self.strategies],
            "phis": list(self.phis),
            "scenarios": [s.to_dict() for s in self.scenarios],
            "repetitions": self.repetitions,
            "seed": self.seed,
            "rtol": self.rtol,
        }


def _parse_problem(p) -> tuple[str, str]:
    """One 'problems' entry: a name, {"name", "scale"}, or a (name, scale) pair."""
    if isinstance(p, str):
        return (p, "tiny")
    if isinstance(p, Mapping):
        if "name" not in p:
            raise ConfigurationError(f"problem spec {p!r} lacks 'name'")
        return (str(p["name"]), str(p.get("scale", "tiny")))
    pair = tuple(p)
    if len(pair) != 2:
        raise ConfigurationError(
            f"problem spec {p!r} must be a name, a {{name, scale}} object, "
            "or a (name, scale) pair"
        )
    return (str(pair[0]), str(pair[1]))


def _canonical_strategy(name: str, T: int) -> tuple[str, int]:
    """Collapse aliases so duplicates merge during expansion.

    ESRP with T <= 2 degenerates to ESR (paper §3), and ESR itself is
    interval-free (every iteration stores), so its canonical T is 1.
    """
    key = name.lower().replace("-", "_")
    if key == "esrp" and T <= 2:
        key = "esr"
    if key in ("esr", "reference"):
        T = 1
    return key, T


def expand_spec(spec: CampaignSpec) -> list[RunSpec]:
    """Deterministic, duplicate-free expansion into concrete runs.

    The reference strategy, when present, is only paired with the
    failure-free scenario (a node failure is fatal to it), and ϕ is
    pinned to 1 since it stores nothing.
    """
    runs: dict[str, RunSpec] = {}
    for problem, scale in spec.problems:
        for preconditioner in spec.preconditioners:
            for strategy_spec in spec.strategies:
                for T_raw in strategy_spec.intervals:
                    for phi in spec.phis:
                        for scenario in spec.scenarios:
                            strategy, T = _canonical_strategy(
                                strategy_spec.name, T_raw
                            )
                            if strategy == "reference":
                                if scenario.injects_failures:
                                    continue
                                phi = 1
                            for repetition in range(spec.repetitions):
                                run = RunSpec(
                                    problem=problem,
                                    scale=scale,
                                    n_nodes=spec.n_nodes,
                                    preconditioner=preconditioner,
                                    strategy=strategy,
                                    T=T,
                                    phi=phi,
                                    scenario=scenario,
                                    repetition=repetition,
                                    seed=0,
                                    problem_seed=spec.seed,
                                    rtol=spec.rtol,
                                )
                                seed = derive_seed(spec.seed, run.run_id)
                                run = dataclasses.replace(run, seed=seed)
                                runs.setdefault(run.run_id, run)
    return list(runs.values())


def demo_spec(
    scale: str = "tiny",
    repetitions: int = 2,
    n_nodes: int = 8,
) -> CampaignSpec:
    """The built-in demo sweep used by ``repro campaign run``.

    3 resilient strategies × 2 ϕ × 2 scenario generators × 2
    repetitions = 24 runs, covering the paper's worst-case single
    failure and the MTBF-driven multi-failure regime.
    """
    return CampaignSpec(
        name=f"demo-{scale}",
        problems=(("emilia_923_like", scale),),
        n_nodes=n_nodes,
        strategies=(
            StrategySpec("esr"),
            StrategySpec("esrp", (20,)),
            StrategySpec("imcr", (20,)),
        ),
        phis=(1, 2),
        scenarios=(
            ScenarioSpec.make("worst_case", location="start"),
            ScenarioSpec.make("mtbf", mtbf_fraction=0.4),
        ),
        repetitions=repetitions,
    )


#: The paper's §5 constellation: ESRP with T ∈ {1 (=ESR), 20, 50, 100},
#: IMCR with T ∈ {20, 50, 100}, ϕ = ψ ∈ {1, 3, 8}, two failure locations.
PAPER_ESRP_INTERVALS = (1, 20, 50, 100)
PAPER_IMCR_INTERVALS = (20, 50, 100)
PAPER_PHIS = (1, 3, 8)
PAPER_LOCATIONS = ("start", "center")


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name} must be an integer, got {raw!r}") from exc


def paper_table_spec(problem: str, quick: bool = False) -> CampaignSpec:
    """The paper's Table 2/3 grid for one problem (§5 protocol).

    One reference run (→ t₀, C), then every (strategy, T, ϕ) cell
    failure-free and with ψ = ϕ nodes failing in a contiguous block at
    the start and at the centre of the cluster, at the worst-case
    iteration.  ``quick`` drops ϕ = 8 and T = 100.

    Environment overrides (so CI and laptops can dial the cost):

    * ``REPRO_SCALE`` — matrix scale tier (default ``bench``, ``small``
      when quick),
    * ``REPRO_NODES`` — cluster size (default 32, 8 when quick).
    """
    if quick:
        scale, n_nodes = "small", 8
        phis, esrp_intervals, imcr_intervals = (1, 3), (1, 20, 50), (20, 50)
    else:
        # ψ/N governs the reconstruction-cost fraction; 32 nodes keeps
        # the worst case (ψ=8) at 25 % of the domain.  The paper's 128
        # nodes (ψ/N ≤ 6 %) is reachable via REPRO_NODES at higher wall
        # cost.
        scale, n_nodes = "bench", 32
        phis, esrp_intervals, imcr_intervals = (
            PAPER_PHIS, PAPER_ESRP_INTERVALS, PAPER_IMCR_INTERVALS
        )
    return CampaignSpec(
        name=f"paper-{problem}",
        problems=((problem, os.environ.get("REPRO_SCALE", scale)),),
        n_nodes=_env_int("REPRO_NODES", n_nodes),
        strategies=(
            StrategySpec("reference"),
            StrategySpec("esrp", esrp_intervals),
            StrategySpec("imcr", imcr_intervals),
        ),
        phis=phis,
        scenarios=(ScenarioSpec.make("failure_free"),)
        + tuple(
            ScenarioSpec.make("worst_case", location=location)
            for location in PAPER_LOCATIONS
        ),
    )


def faults_spec(
    scale: str = "tiny",
    repetitions: int = 2,
    n_nodes: int = 8,
) -> CampaignSpec:
    """The fault-taxonomy demo sweep (``repro campaign run --demo faults``).

    A/Bs the detection/lossy strategies against the paper's baselines
    under the new fault regimes: ``pv``/``pv_forward`` vs ESR/ESRP
    under silent corruption, and ``lossy_imcr`` vs exact IMCR under
    the lossy-checkpoint regime.  The report's Table-2-style overhead
    columns gain the ``inj``/``det``/``rb`` fault counters.
    """
    return CampaignSpec(
        name=f"faults-{scale}",
        problems=(("emilia_923_like", scale),),
        n_nodes=n_nodes,
        strategies=(
            StrategySpec("esr"),
            StrategySpec("esrp", (20,)),
            StrategySpec("pv", (10,)),
            StrategySpec("pv_forward", (10,)),
            StrategySpec("imcr", (20,)),
            StrategySpec("lossy_imcr", (20,)),
        ),
        phis=(1,),
        scenarios=(
            ScenarioSpec.make("sdc", probability=0.01, mode="bitflip"),
            ScenarioSpec.make("lossy", fraction=0.5, error_bound=1e-4, ratio=4.0),
        ),
        repetitions=repetitions,
    )
