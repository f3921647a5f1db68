"""Typed campaign result store: records, persistence, aggregation.

A :class:`CampaignRunRecord` is the flat, JSON/CSV-friendly outcome of
one :class:`~repro.campaign.spec.RunSpec`; a :class:`CampaignResult`
bundles the spec with all records and knows how to

* round-trip itself through JSON (lossless) and CSV (records only),
* aggregate medians per (strategy, T, ϕ, scenario) cell,
* render a Table-2-shaped run-time-overhead comparison.

Records are **canonically ordered**: a :class:`CampaignResult` sorts
its records by run key at construction, so the JSON/CSV it writes is
independent of execution order (serial loop, process pool, or
distributed queue workers finishing in any order all produce the same
bytes).  Records deliberately carry no measured host wall-clock time —
every field is a deterministic function of the :class:`RunSpec`, which
is what makes stored results comparable across runs and lets the queue
collector verify duplicate records by equality.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import pathlib
import statistics
from typing import Any, Iterable, Mapping

from ..exceptions import ConfigurationError
from .scenarios import ScenarioSpec

#: ``faults[...]`` counter keys (see
#: :class:`~repro.cluster.statistics.ClusterStats`) that count *injected*
#: faults, as opposed to the solver's reactions to them.
_INJECTED_FAULT_KINDS = ("node_failure", "sdc", "churn")


def median(values: Iterable[float]) -> float:
    """Median of a non-empty iterable (paper: median of ≥5 repetitions)."""
    data = list(values)
    if not data:
        raise ConfigurationError("median of an empty sequence")
    return float(statistics.median(data))


def _cell_median(values: Iterable[Any]) -> float | None:
    """Median over the non-``None`` entries of a cell, ``None`` if empty.

    Stored baseline files may carry ``null`` for fields their code
    revision could not compute (e.g. overheads of a run that never got
    a reference); a report cell over such records renders "no data"
    rather than crashing the whole comparison.
    """
    present = [v for v in values if v is not None]
    return median(present) if present else None


def _faults_injected(stats: Mapping[str, float]) -> float:
    """Total injected-fault count recorded in one run's stats."""
    return sum(
        stats.get(f"faults[{kind}]", 0.0) for kind in _INJECTED_FAULT_KINDS
    )


@dataclasses.dataclass(frozen=True)
class CampaignRunRecord:
    """Outcome of one campaign run (all fields JSON/CSV representable)."""

    run_id: str
    problem: str
    scale: str
    n_nodes: int
    preconditioner: str
    strategy: str
    T: int
    phi: int
    scenario_kind: str
    scenario_params: dict[str, Any]
    repetition: int
    seed: int
    converged: bool
    iterations: int
    executed_iterations: int
    relative_residual: float
    modeled_time: float
    recovery_time: float
    reference_time: float
    reference_iterations: int
    total_overhead: float
    recovery_overhead: float
    n_failures: int
    failure_iterations: tuple[int, ...]
    solution_error: float
    #: Per-channel communication statistics of the virtual cluster
    #: (``bytes[spmv_halo]``, ``messages[aspmv_extra]``, ... — see
    #: :class:`repro.cluster.statistics.ClusterStats`), so
    #: communication-volume regressions can be swept campaign-style.
    stats: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Residual drift of the converged solve (Eq. 2 of the paper, the
    #: Table 4 metric); ``None`` on records stored before the column.
    residual_drift: float | None = None

    @property
    def wasted_iterations(self) -> int:
        return self.executed_iterations - self.iterations

    @property
    def scenario_label(self) -> str:
        """Same formatter as :attr:`ScenarioSpec.label` (labels must not drift
        between stored run_ids and freshly aggregated report rows)."""
        return ScenarioSpec.make(self.scenario_kind, **self.scenario_params).label

    def to_dict(self) -> dict[str, Any]:
        data = dataclasses.asdict(self)
        data["failure_iterations"] = list(self.failure_iterations)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignRunRecord":
        payload = dict(data)
        payload["scenario_params"] = dict(payload.get("scenario_params") or {})
        payload["failure_iterations"] = tuple(
            int(i) for i in payload.get("failure_iterations") or ()
        )
        # Records written before the stats column existed load as {};
        # records written while campaigns swept kernel backends load
        # without their backend column (every backend agreed bit for bit).
        payload["stats"] = dict(payload.get("stats") or {})
        payload.pop("backend", None)
        # Records written while a measured host wall-clock column still
        # existed load without it (it was nondeterministic noise).
        payload.pop("wall_time", None)
        return cls(**payload)


#: CSV value converters per column (CSV stringifies everything).
_CSV_CONVERTERS: dict[str, Any] = {
    "n_nodes": int,
    "T": int,
    "phi": int,
    "repetition": int,
    "seed": int,
    "iterations": int,
    "executed_iterations": int,
    "reference_iterations": int,
    "n_failures": int,
    "relative_residual": float,
    "modeled_time": float,
    "recovery_time": float,
    "reference_time": float,
    "total_overhead": float,
    "recovery_overhead": float,
    "solution_error": float,
    "converged": lambda raw: raw in ("True", "true", "1"),
    "scenario_params": json.loads,
    "failure_iterations": lambda raw: tuple(int(i) for i in raw.split(";") if i),
    "stats": lambda raw: json.loads(raw) if raw else {},
    "residual_drift": lambda raw: float(raw) if raw else None,
}


def run_sort_key(record: CampaignRunRecord) -> str:
    """The canonical record order: lexicographic by run id.

    The run id is the stable, fully-resolved run identity (see
    :attr:`~repro.campaign.spec.RunSpec.run_id`), so sorting by it is
    deterministic across processes, hosts and execution order.
    """
    return record.run_id


class CampaignResult:
    """All records of one campaign plus the spec that produced them.

    Records are kept in canonical order (sorted by run key) regardless
    of the order they were produced or loaded in, so two results over
    the same runs always serialise byte-identically.
    """

    def __init__(self, spec: Mapping[str, Any], records: Iterable[CampaignRunRecord]):
        self.spec = dict(spec)
        self.records = sorted(records, key=run_sort_key)

    @classmethod
    def merge(
        cls, spec: Mapping[str, Any], parts: Iterable[Iterable[CampaignRunRecord]]
    ) -> "CampaignResult":
        """Merge record shards (e.g. per-worker queue spools) into one result.

        Duplicate run ids are allowed **only** when the records are
        equal — campaign records are deterministic functions of their
        :class:`RunSpec`, so a crash-recovered re-execution of an
        already-spooled task yields the identical record; anything else
        is a determinism bug worth failing loudly on.
        """
        by_id: dict[str, CampaignRunRecord] = {}
        for part in parts:
            for record in part:
                existing = by_id.get(record.run_id)
                if existing is None:
                    by_id[record.run_id] = record
                elif existing != record:
                    raise ConfigurationError(
                        f"conflicting duplicate records for run {record.run_id!r} "
                        "(two shards disagree; campaign runs are expected to be "
                        "deterministic)"
                    )
        return cls(spec=spec, records=by_id.values())

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def name(self) -> str:
        return str(self.spec.get("name", "campaign"))

    # ----------------------------------------------------------- persistence

    def to_json(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        payload = {
            "spec": self.spec,
            "records": [record.to_dict() for record in self.records],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def from_json(cls, path) -> "CampaignResult":
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except OSError as exc:
            raise ConfigurationError(f"cannot read campaign results {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid campaign JSON: {exc}") from exc
        return cls(
            spec=payload.get("spec", {}),
            records=[CampaignRunRecord.from_dict(r) for r in payload.get("records", [])],
        )

    def to_csv(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        fields = [f.name for f in dataclasses.fields(CampaignRunRecord)]
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for record in self.records:
                row = record.to_dict()
                row["scenario_params"] = json.dumps(
                    record.scenario_params, sort_keys=True
                )
                row["failure_iterations"] = ";".join(
                    str(i) for i in record.failure_iterations
                )
                row["stats"] = json.dumps(record.stats, sort_keys=True)
                writer.writerow(row)
        return path

    @classmethod
    def from_csv(cls, path, spec: Mapping[str, Any] | None = None) -> "CampaignResult":
        records = []
        try:
            handle = pathlib.Path(path).open(newline="")
        except OSError as exc:
            raise ConfigurationError(f"cannot read campaign CSV {path}: {exc}") from exc
        with handle:
            for row in csv.DictReader(handle):
                payload = {
                    key: _CSV_CONVERTERS.get(key, str)(value)
                    for key, value in row.items()
                }
                records.append(CampaignRunRecord.from_dict(payload))
        return cls(spec=spec or {}, records=records)

    # ----------------------------------------------------------- aggregation

    def problems(self) -> tuple[str, ...]:
        return tuple(sorted({r.problem for r in self.records}))

    def overhead_rows(self, problem: str | None = None) -> list[dict[str, Any]]:
        """Median overheads per (strategy, T, scenario, ϕ) cell.

        The campaign analogue of the paper's Table-2 cells: each row
        carries the median total overhead vs. the reference solver and
        the median reconstruction (recovery) overhead, over the
        repetitions that landed in the cell.
        """
        groups: dict[tuple, list[CampaignRunRecord]] = {}
        for record in self.records:
            if problem is not None and record.problem != problem:
                continue
            if record.strategy == "reference":
                continue
            key = (record.strategy, record.T, record.scenario_label, record.phi)
            groups.setdefault(key, []).append(record)
        rows = []
        for (strategy, T, scenario, phi), cell in sorted(groups.items()):
            rows.append(
                {
                    "strategy": strategy,
                    "T": T,
                    "scenario": scenario,
                    "phi": phi,
                    "runs": len(cell),
                    "converged": all(r.converged for r in cell),
                    "total_overhead": _cell_median([r.total_overhead for r in cell]),
                    "recovery_overhead": _cell_median(
                        [r.recovery_overhead for r in cell]
                    ),
                    "wasted_iterations": _cell_median(
                        [float(r.wasted_iterations) for r in cell]
                    ),
                    "faults_injected": _cell_median(
                        [_faults_injected(r.stats) for r in cell]
                    ),
                    "faults_detected": _cell_median(
                        [r.stats.get("faults[sdc_detected]", 0.0) for r in cell]
                    ),
                    "rollbacks": _cell_median(
                        [r.stats.get("faults[rollback]", 0.0) for r in cell]
                    ),
                }
            )
        return rows

    def communication_rows(self, problem: str | None = None) -> list[dict[str, Any]]:
        """Median per-channel traffic per (strategy, T, scenario, ϕ) cell.

        One row per cell and channel, with median byte and message
        counts over the repetitions — the sweepable form of the
        :class:`~repro.cluster.statistics.ClusterStats` channels
        (``spmv_halo``, ``aspmv_extra``, ``checkpoint``, ...).
        """
        groups: dict[tuple, list[CampaignRunRecord]] = {}
        for record in self.records:
            if problem is not None and record.problem != problem:
                continue
            if not record.stats:
                continue
            key = (record.strategy, record.T, record.scenario_label, record.phi)
            groups.setdefault(key, []).append(record)
        rows = []
        for (strategy, T, scenario, phi), cell in sorted(groups.items()):
            channels = sorted(
                {
                    key[len("bytes["):-1]
                    for record in cell
                    for key in record.stats
                    if key.startswith("bytes[")
                }
            )
            for channel in channels:
                rows.append(
                    {
                        "strategy": strategy,
                        "T": T,
                        "scenario": scenario,
                        "phi": phi,
                        "channel": channel,
                        "runs": len(cell),
                        "bytes": median(
                            [r.stats.get(f"bytes[{channel}]", 0.0) for r in cell]
                        ),
                        "messages": median(
                            [r.stats.get(f"messages[{channel}]", 0.0) for r in cell]
                        ),
                    }
                )
        return rows

    # -------------------------------------------------------------- comparison

    def compare(
        self, baseline: "CampaignResult", problem: str | None = None
    ) -> list[dict[str, Any]]:
        """Per-cell overhead deltas of ``self`` against a ``baseline``.

        The A/B view for two stored campaign result files (two code
        revisions, two machine models): cells are matched on
        (strategy, T, scenario, ϕ); each row carries both
        medians and their difference in percentage points (``None``
        where a cell exists on only one side).
        """
        ours = {
            (r["strategy"], r["T"], r["scenario"], r["phi"]): r
            for r in self.overhead_rows(problem)
        }
        theirs = {
            (r["strategy"], r["T"], r["scenario"], r["phi"]): r
            for r in baseline.overhead_rows(problem)
        }
        rows: list[dict[str, Any]] = []
        for key in sorted(set(ours) | set(theirs)):
            strategy, T, scenario, phi = key
            a, b = ours.get(key), theirs.get(key)

            def _side(row, field: str):
                # ``.get``: rows computed from old stored baselines may
                # lack newer columns; the cell then reads "no data"
                # instead of raising.
                return row.get(field) if row else None

            def _delta(field: str):
                va, vb = _side(a, field), _side(b, field)
                if va is None or vb is None:
                    return None
                return va - vb

            rows.append(
                {
                    "strategy": strategy,
                    "T": T,
                    "scenario": scenario,
                    "phi": phi,
                    "runs": a["runs"] if a else 0,
                    "baseline_runs": b["runs"] if b else 0,
                    "total_overhead": _side(a, "total_overhead"),
                    "baseline_total_overhead": _side(b, "total_overhead"),
                    "delta_total_overhead": _delta("total_overhead"),
                    "recovery_overhead": _side(a, "recovery_overhead"),
                    "baseline_recovery_overhead": _side(b, "recovery_overhead"),
                    "delta_recovery_overhead": _delta("recovery_overhead"),
                }
            )
        return rows

    def compare_communication(
        self, baseline: "CampaignResult", problem: str | None = None
    ) -> list[dict[str, Any]]:
        """Per-cell, per-channel communication-volume deltas vs. a baseline.

        The communication analogue of :meth:`compare`: cells are
        matched on (strategy, T, scenario, ϕ, channel); each
        row carries the median byte/message counts of both sides and
        their absolute and relative deltas (``None`` where a cell
        exists on only one side; relative deltas are against the
        baseline volume and ``None`` when the baseline is zero).
        """
        def keyed(result: "CampaignResult") -> dict[tuple, dict[str, Any]]:
            return {
                (r["strategy"], r["T"], r["scenario"], r["phi"], r["channel"]): r
                for r in result.communication_rows(problem)
            }

        ours, theirs = keyed(self), keyed(baseline)
        rows: list[dict[str, Any]] = []
        for key in sorted(set(ours) | set(theirs)):
            strategy, T, scenario, phi, channel = key
            a, b = ours.get(key), theirs.get(key)

            def _delta(field: str):
                if a is None or b is None:
                    return None
                return a[field] - b[field]

            def _ratio(field: str):
                if a is None or b is None or not b[field]:
                    return None
                return (a[field] - b[field]) / b[field]

            rows.append(
                {
                    "strategy": strategy,
                    "T": T,
                    "scenario": scenario,
                    "phi": phi,
                    "channel": channel,
                    "runs": a["runs"] if a else 0,
                    "baseline_runs": b["runs"] if b else 0,
                    "bytes": a["bytes"] if a else None,
                    "baseline_bytes": b["bytes"] if b else None,
                    "delta_bytes": _delta("bytes"),
                    "rel_bytes": _ratio("bytes"),
                    "messages": a["messages"] if a else None,
                    "baseline_messages": b["messages"] if b else None,
                    "delta_messages": _delta("messages"),
                    "rel_messages": _ratio("messages"),
                }
            )
        return rows

    def render_communication_comparison(self, baseline: "CampaignResult") -> str:
        """A/B text report of per-channel communication volumes."""
        lines = [
            f"communication volume: campaign {self.name!r} vs. "
            f"baseline {baseline.name!r}"
        ]
        problems = tuple(sorted(set(self.problems()) | set(baseline.problems())))
        for problem in problems:
            rows = self.compare_communication(baseline, problem=problem)
            if not rows:
                continue
            lines.append("")
            lines.append(f"problem {problem}")
            header = (
                f"{'Strategy':9s} {'T':>4s} | {'Scenario':34s} | {'phi':>3s} | "
                f"{'Channel':12s} | {'bytes':>12s} {'base':>12s} {'Δ%':>7s} | "
                f"{'msgs':>9s} {'base':>9s} {'Δ%':>7s}"
            )
            lines.append(header)
            lines.append("-" * len(header))

            def num(value, width):
                return f"{value:{width}.0f}" if value is not None else " " * (width - 1) + "-"

            def pct(value, width=7):
                return f"{100 * value:{width}.2f}" if value is not None else " " * (width - 1) + "-"

            for row in rows:
                lines.append(
                    f"{row['strategy']:9s} {row['T']:>4d} | {row['scenario']:34s} | "
                    f"{row['phi']:>3d} | {row['channel']:12s} | "
                    f"{num(row['bytes'], 12)} {num(row['baseline_bytes'], 12)} "
                    f"{pct(row['rel_bytes'])} | "
                    f"{num(row['messages'], 9)} {num(row['baseline_messages'], 9)} "
                    f"{pct(row['rel_messages'])}"
                )
        if len(lines) == 1:
            lines.append("")
            lines.append("no per-channel statistics found in either campaign")
        return "\n".join(lines)

    def render_comparison(self, baseline: "CampaignResult") -> str:
        """A/B text report: per-cell overhead deltas against ``baseline``."""
        if not self.records and not baseline.records:
            raise ConfigurationError("both campaigns are empty; nothing to compare")
        lines = [
            f"campaign {self.name!r} ({len(self.records)} runs) vs. "
            f"baseline {baseline.name!r} ({len(baseline.records)} runs)"
        ]
        problems = tuple(sorted(set(self.problems()) | set(baseline.problems())))
        for problem in problems:
            rows = self.compare(baseline, problem=problem)
            if not rows:
                continue
            lines.append("")
            lines.append(f"problem {problem}")
            header = (
                f"{'Strategy':9s} {'T':>4s} | {'Scenario':34s} | {'phi':>3s} | "
                f"{'total%':>8s} {'base%':>8s} {'Δpp':>7s} | "
                f"{'recov%':>8s} {'base%':>8s} {'Δpp':>7s}"
            )
            lines.append(header)
            lines.append("-" * len(header))

            def cell(value, scale=100.0, width=8):
                return f"{scale * value:{width}.2f}" if value is not None else " " * (width - 1) + "-"

            for row in rows:
                lines.append(
                    f"{row['strategy']:9s} {row['T']:>4d} | {row['scenario']:34s} | "
                    f"{row['phi']:>3d} | "
                    f"{cell(row['total_overhead'])} "
                    f"{cell(row['baseline_total_overhead'])} "
                    f"{cell(row['delta_total_overhead'], width=7)} | "
                    f"{cell(row['recovery_overhead'])} "
                    f"{cell(row['baseline_recovery_overhead'])} "
                    f"{cell(row['delta_recovery_overhead'], width=7)}"
                )
        if len(lines) == 1:
            lines.append("")
            lines.append("no overlapping or comparable cells found")
        return "\n".join(lines)

    # -------------------------------------------------------------- rendering

    def render_summary(self) -> str:
        """Table-2-shaped text report: overheads per strategy/T/scenario/ϕ."""
        if not self.records:
            raise ConfigurationError("campaign has no records to summarise")
        lines: list[str] = []
        converged = sum(1 for r in self.records if r.converged)
        lines.append(
            f"campaign {self.name!r}: {len(self.records)} runs, "
            f"{converged} converged"
        )
        for problem in self.problems():
            sample = next(r for r in self.records if r.problem == problem)
            t0 = (
                f"{sample.reference_time:.4g} s"
                if sample.reference_time is not None
                else "-"
            )
            lines.append("")
            lines.append(
                f"problem {problem} (scale={sample.scale}, N={sample.n_nodes}, "
                f"t0 = {t0}, C = {sample.reference_iterations})"
            )
            phis = sorted(
                {r.phi for r in self.records
                 if r.problem == problem and r.strategy != "reference"}
            )
            total_hdr = " ".join(f"phi={phi:<3d}" for phi in phis)
            header = (
                f"{'Strategy':9s} {'T':>4s} | {'Scenario':34s} | "
                f"{'Total overhead [%]':^{max(len(total_hdr), 20)}s} | "
                f"{'Reconstruction [%]':^{max(len(total_hdr), 20)}s} | "
                f"{'wasted':>7s} | {'inj':>5s} {'det':>5s} {'rb':>5s}"
            )
            lines.append(header)
            lines.append("-" * len(header))
            cells: dict[tuple, dict[int, dict]] = {}
            for row in self.overhead_rows(problem):
                key = (row["strategy"], row["T"], row["scenario"])
                cells.setdefault(key, {})[row["phi"]] = row
            last_strategy_T = None
            for (strategy, T, scenario), by_phi in sorted(
                cells.items(), key=lambda item: (item[0][0] != "esr", item[0])
            ):
                label = "ESR" if strategy == "esr" and T == 1 else strategy.upper()
                first = (strategy, T) != last_strategy_T
                last_strategy_T = (strategy, T)

                def band(field: str) -> str:
                    # One cell per ϕ; "no data" for an absent ϕ *or* a
                    # cell whose median could not be computed (all-None
                    # records from an old baseline file).
                    cells = []
                    for phi in phis:
                        value = by_phi.get(phi, {}).get(field)
                        cells.append(
                            f"{100 * value:6.1f} " if value is not None else "    -  "
                        )
                    return " ".join(cells)

                def peak(field: str) -> float:
                    return max(
                        (
                            row[field]
                            for row in by_phi.values()
                            if row.get(field) is not None
                        ),
                        default=0.0,
                    )

                total = band("total_overhead")
                rec = band("recovery_overhead")
                lines.append(
                    f"{label if first else '':9s} {(str(T) if first else ''):>4s} | "
                    f"{scenario:34s} | "
                    f"{total:^{max(len(total_hdr), 20)}s} | "
                    f"{rec:^{max(len(total_hdr), 20)}s} | "
                    f"{peak('wasted_iterations'):7.1f} | "
                    f"{peak('faults_injected'):5.1f} "
                    f"{peak('faults_detected'):5.1f} "
                    f"{peak('rollbacks'):5.1f}"
                )
        return "\n".join(lines)
