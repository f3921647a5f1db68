"""Plain-text renderers mirroring the paper's table layout.

:func:`paper_table` turns the result of a
:func:`~repro.campaign.spec.paper_table_spec` campaign into the layout
:func:`render_overhead_table` and the figure helpers of
:mod:`repro.harness.figures` take.
"""

from __future__ import annotations

from typing import Mapping

from ..campaign.results import CampaignResult, median
from ..campaign.scenarios import ScenarioSpec
from ..campaign.spec import PAPER_LOCATIONS, CampaignSpec
from ..exceptions import ConfigurationError
from ..matrices import suite


def paper_table(result: CampaignResult, problem: str) -> dict:
    """One problem's Table 2/3 cells and Table 4 drift row.

    Layout: ``t0``, ``C``, ``problem``, ``n``, ``nnz``, ``drift`` and
    ``cells[(strategy, T, phi)]``, a dict with ``"failure_free"`` and
    ``(location, "total"|"reconstruction")`` overheads (medians over
    repetitions).  ESR is keyed as ``("esrp", 1, phi)``, as the paper
    prints it in the ESRP rows.
    """
    reference = next(
        (r for r in result if r.problem == problem and r.strategy == "reference"),
        None,
    )
    if reference is None:
        raise ConfigurationError(f"campaign has no reference run of {problem!r}")
    seed = result.spec.get("seed", CampaignSpec.seed)  # CSV results carry no spec
    _, _, meta = suite.load(problem, scale=reference.scale, seed=seed)

    columns = {ScenarioSpec.make("failure_free").label: ("failure_free",)}
    for location in PAPER_LOCATIONS:
        label = ScenarioSpec.make("worst_case", location=location).label
        columns[label] = ((location, "total"), (location, "reconstruction"))
    cells: dict = {}
    for row in result.overhead_rows(problem):
        keys = columns.get(row["scenario"])
        if keys is None:
            continue
        strategy = "esrp" if row["strategy"] == "esr" else row["strategy"]
        cell = cells.setdefault((strategy, row["T"], row["phi"]), {})
        cell.update(zip(keys, (row["total_overhead"], row["recovery_overhead"])))

    # Table 4: the reference row is every failure-free run (the
    # reference solver's included), median and minimum every run with
    # node failures.
    drift: dict[str, list[float]] = {"failure_free": [], "failures": []}
    for r in result:
        if r.problem == problem and r.residual_drift is not None:
            kind = "failure_free" if r.scenario_kind == "failure_free" else "failures"
            drift[kind].append(r.residual_drift)
    drift_row = {}
    if drift["failure_free"]:
        drift_row["reference"] = median(drift["failure_free"])
    if drift["failures"]:
        drift_row["median"] = median(drift["failures"])
        drift_row["minimum"] = min(drift["failures"])

    return {
        "t0": reference.modeled_time,
        "C": reference.iterations,
        "problem": meta.name,
        "n": meta.n,
        "nnz": meta.nnz,
        "drift": drift_row,
        "cells": cells,
    }


def _pct(value: float | None) -> str:
    """Format a fractional overhead as percent (paper prints one decimal)."""
    if value is None:
        return "   - "
    return f"{100.0 * value:5.1f}"


def _pct_paper(value: float | None) -> str:
    """Format an already-percent paper value."""
    if value is None:
        return "   - "
    return f"{value:5.1f}"


def render_overhead_table(
    results: Mapping,
    phis: tuple[int, ...],
    locations: tuple[str, ...] = ("start", "center"),
    title: str = "",
    paper: Mapping | None = None,
) -> str:
    """Render a Table-2/3-style report from :func:`paper_table`.

    If ``paper`` (the matching ``PAPER_TABLE*`` dict) is given, the
    paper's percentages are printed in parentheses next to ours.
    """
    cells = results.get("cells")
    if cells is None:
        raise ConfigurationError("results dict lacks 'cells' (see paper_table())")
    phi_header = " ".join(f"phi={phi:<3d}" for phi in phis)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"t0 = {results['t0']:.4g} s (model), C = {results['C']} iterations, "
        f"n = {results.get('n', '?')}, nnz = {results.get('nnz', '?')}"
    )
    if paper is not None:
        lines.append(
            f"[paper: t0 = {paper['t0']} s, C = {paper['C']}; paper values in parentheses]"
        )
    lines.append("")
    header = (
        f"{'Strategy':9s} {'T':>4s} | {'Failure-free overhead [%]':^30s} | "
        f"{'Location':8s} | {'Overhead with failures [%]':^30s} | "
        f"{'Reconstruction overhead [%]':^30s}"
    )
    lines.append(header)
    lines.append(
        f"{'':9s} {'':>4s} | {phi_header:^30s} | {'':8s} | "
        f"{phi_header:^30s} | {phi_header:^30s}"
    )
    lines.append("-" * len(header))

    rows = sorted(
        {(s, t) for (s, t, _phi) in cells},
        key=lambda st: (st[0] != "esrp", st[0], st[1]),
    )
    for strategy, T in rows:
        per_phi = {phi: cells.get((strategy, T, phi), {}) for phi in phis}
        strategy_label = "ESRP" if strategy == "esrp" else strategy.upper()
        if strategy == "esrp" and T == 1:
            strategy_label = "ESR"
        ff = " ".join(_format_pair(per_phi[phi].get("failure_free"),
                                   _paper_value(paper, strategy, T, "failure_free", phi))
                      for phi in phis)
        first = True
        for location in locations:
            total = " ".join(
                _format_pair(
                    per_phi[phi].get((location, "total")),
                    _paper_value(paper, strategy, T, (location, "total"), phi),
                )
                for phi in phis
            )
            rec = " ".join(
                _format_pair(
                    per_phi[phi].get((location, "reconstruction")),
                    _paper_value(paper, strategy, T, (location, "reconstruction"), phi),
                )
                for phi in phis
            )
            lines.append(
                f"{strategy_label if first else '':9s} "
                f"{(str(T) if first else ''):>4s} | {ff if first else '':^30s} | "
                f"{location.capitalize():8s} | {total:^30s} | {rec:^30s}"
            )
            first = False
    return "\n".join(lines)


def _paper_value(paper, strategy, T, key, phi):
    if paper is None:
        return None
    cell = paper.get("cells", {}).get((strategy, T))
    if cell is None:
        return None
    values = cell.get(key)
    if values is None:
        return None
    return values.get(phi)


def _format_pair(measured: float | None, paper_pct: float | None) -> str:
    base = _pct(measured)
    if paper_pct is None:
        return base
    return f"{base}({_pct_paper(paper_pct).strip():>4s})"


def render_drift_table(
    drift: Mapping[str, Mapping[str, float]],
    paper: Mapping[str, Mapping[str, float]] | None = None,
) -> str:
    """Render a Table-4-style residual-drift report.

    ``drift`` maps problem name -> {"reference": .., "median": ..,
    "minimum": ..}.
    """
    lines = [
        f"{'Matrix':24s} {'Reference':>12s} {'Median':>12s} {'Minimum':>12s}",
        "-" * 64,
    ]
    for name, row in drift.items():
        lines.append(
            f"{name:24s} {row.get('reference', float('nan')):>12.3e} "
            f"{row.get('median', float('nan')):>12.3e} "
            f"{row.get('minimum', float('nan')):>12.3e}"
        )
        if paper and name in paper:
            p = paper[name]
            lines.append(
                f"{'  [paper]':24s} {p['reference']:>12.3e} "
                f"{p['median']:>12.3e} {p['minimum']:>12.3e}"
            )
    return "\n".join(lines)
