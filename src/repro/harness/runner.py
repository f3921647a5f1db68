"""Experiment runner: executes the paper's §5 protocol.

For each cell of the test constellation (strategy × T × ϕ × location):

1. run the non-resilient reference solver (→ t₀, C);
2. run the resilient solver without failures (→ failure-free overhead);
3. run it with ψ = ϕ simultaneous failures placed *two iterations
   before the end of the checkpoint interval containing iteration C/2*
   (worst case: almost the whole interval's progress is wasted);
4. repeat with seeded noise and take medians.
"""

from __future__ import annotations

import dataclasses

from ..api.request import SolveRequest
from ..api.session import SolverSession
from ..campaign.scenarios import place_worst_case_failure
from ..cluster.failures import FailureEvent, block_failure_ranks
from ..exceptions import ConfigurationError
from ..matrices import suite
from ..solvers.engine import SolveResult
from .calibration import BENCH_COST_MODEL
from .config import ExperimentConfig
from .metrics import drift_from_result, median, relative_overhead


@dataclasses.dataclass(frozen=True)
class RunRecord:
    """One solver run within an experiment grid."""

    strategy: str
    T: int
    phi: int
    psi: int
    location: str | None
    repetition: int
    modeled_time: float
    recovery_time: float
    iterations: int
    executed_iterations: int
    converged: bool
    relative_residual: float
    residual_drift: float
    wall_time: float
    stats: dict[str, float]

    @property
    def wasted_iterations(self) -> int:
        return self.executed_iterations - self.iterations


@dataclasses.dataclass
class CellSummary:
    """Median figures for one table cell."""

    strategy: str
    T: int
    phi: int
    location: str | None
    failure_free_overhead: float | None = None
    total_overhead: float | None = None
    reconstruction_overhead: float | None = None


class ExperimentRunner:
    """Executes the paper's experiment grid for one test problem."""

    def __init__(self, config: ExperimentConfig, cost_model=None):
        self.config = config
        base_model = cost_model if cost_model is not None else BENCH_COST_MODEL
        self.cost_model = base_model.with_noise(config.noise)
        self.matrix_csr, self.b, self.meta = suite.load(
            config.problem, scale=config.scale, seed=config.seed
        )
        self.n = self.matrix_csr.shape[0]
        #: One session serves the whole grid: the cluster, partition,
        #: distributed matrix and factorised preconditioner are set up
        #: once and reused by every cell/repetition.
        self.session = SolverSession(
            self.matrix_csr,
            self.b,
            n_nodes=config.n_nodes,
            cost_model=self.cost_model,
            seed=config.seed,
            meta=self.meta,
        )
        self._reference_times: list[float] = []
        self._reference_iterations: int | None = None
        self.records: list[RunRecord] = []

    # ------------------------------------------------------------ single runs

    def _run(
        self,
        strategy_name: str,
        T: int,
        phi: int,
        repetition: int,
        failures=(),
    ) -> SolveResult:
        """One solver run against the shared session (seeded per rep)."""
        request = SolveRequest(
            strategy=strategy_name,
            T=T,
            phi=phi,
            preconditioner=self.config.preconditioner,
            rtol=self.config.rtol,
            failures=failures,
            rule=self.config.aspmv_rule,
            seed=self.config.seed + 7919 * repetition,
        )
        return self.session.solve(request).result

    def _record(
        self,
        result: SolveResult,
        strategy: str,
        T: int,
        phi: int,
        psi: int,
        location: str | None,
        repetition: int,
    ) -> RunRecord:
        record = RunRecord(
            strategy=strategy,
            T=T,
            phi=phi,
            psi=psi,
            location=location,
            repetition=repetition,
            modeled_time=result.modeled_time,
            recovery_time=result.recovery_time,
            iterations=result.iterations,
            executed_iterations=result.executed_iterations,
            converged=result.converged,
            relative_residual=result.relative_residual,
            residual_drift=drift_from_result(self.matrix_csr, self.b, result),
            wall_time=result.wall_time,
            stats=result.stats,
        )
        self.records.append(record)
        return record

    # ----------------------------------------------------------- reference t0

    def run_reference(self) -> tuple[float, int]:
        """(t₀, C): median reference runtime and its iteration count."""
        if self._reference_times:
            return median(self._reference_times), int(self._reference_iterations or 0)
        for rep in range(self.config.repetitions):
            result = self._run("reference", T=1, phi=1, repetition=rep)
            self._reference_times.append(result.modeled_time)
            self._reference_iterations = result.iterations
            self._record(result, "reference", 0, 0, 0, None, rep)
        return median(self._reference_times), int(self._reference_iterations or 0)

    @property
    def reference_iterations(self) -> int:
        _, iterations = self.run_reference()
        return iterations

    # ------------------------------------------------------------------ cells

    def run_cell(
        self,
        strategy: str,
        T: int,
        phi: int,
        location: str | None,
    ) -> CellSummary:
        """Median overheads for one (strategy, T, ϕ[, location]) cell.

        ``location=None`` runs the failure-free case; otherwise ψ = ϕ
        nodes fail in a contiguous block at the given location, at the
        worst-case iteration.
        """
        t0, C = self.run_reference()
        summary = CellSummary(strategy=strategy, T=T, phi=phi, location=location)

        runtimes: list[float] = []
        recoveries: list[float] = []
        for rep in range(self.config.repetitions):
            if location is None:
                failures = ()
                psi = 0
            else:
                iteration = place_worst_case_failure(strategy, T, C)
                ranks = block_failure_ranks(location, phi, self.config.n_nodes)
                failures = (FailureEvent(iteration, ranks),)
                psi = phi
            result = self._run(strategy, T, phi, rep, failures=failures)
            self._record(result, strategy, T, phi, psi, location, rep)
            runtimes.append(result.modeled_time)
            recoveries.append(result.recovery_time)

        if location is None:
            summary.failure_free_overhead = median(
                [relative_overhead(t, t0) for t in runtimes]
            )
        else:
            summary.total_overhead = median([relative_overhead(t, t0) for t in runtimes])
            summary.reconstruction_overhead = median([rt / t0 for rt in recoveries])
        return summary

    # ------------------------------------------------------------- full table

    def grid_cells(self) -> list[tuple[str, int]]:
        """The (strategy, T) rows of the paper's tables."""
        rows: list[tuple[str, int]] = []
        for T in self.config.esrp_intervals:
            rows.append(("esrp", T))
        for T in self.config.imcr_intervals:
            rows.append(("imcr", T))
        return rows

    def run_table(self) -> dict:
        """Run the whole constellation; returns the nested results dict.

        Layout: ``results[(strategy, T)][phi]`` is a dict with keys
        ``"failure_free"`` and ``(location, "total"|"reconstruction")``.
        """
        t0, C = self.run_reference()
        results: dict = {
            "t0": t0,
            "C": C,
            "problem": self.meta.name,
            "n": self.meta.n,
            "nnz": self.meta.nnz,
            "cells": {},
        }
        for strategy, T in self.grid_cells():
            for phi in self.config.phis:
                cell: dict = {}
                summary = self.run_cell(strategy, T, phi, location=None)
                cell["failure_free"] = summary.failure_free_overhead
                for location in self.config.locations:
                    summary = self.run_cell(strategy, T, phi, location=location)
                    cell[(location, "total")] = summary.total_overhead
                    cell[(location, "reconstruction")] = summary.reconstruction_overhead
                results["cells"][(strategy, T, phi)] = cell
        return results

    # ------------------------------------------------------------------ drift

    def drift_summary(self) -> dict[str, float]:
        """Table-4 row: reference / median / minimum residual drift."""
        reference = [r for r in self.records if r.psi == 0]
        with_failures = [r for r in self.records if r.psi > 0]
        if not reference:
            raise ConfigurationError("run the grid before computing drift")
        out = {"reference": median([r.residual_drift for r in reference])}
        if with_failures:
            drifts = [r.residual_drift for r in with_failures]
            out["median"] = median(drifts)
            out["minimum"] = min(drifts)
        return out
