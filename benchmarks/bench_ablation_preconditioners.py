"""Ablation A1 — preconditioner study (the paper's §6 future work).

"An important step to take in future work is to evaluate ESRP using
different preconditioners."  This bench runs ESRP and IMCR under every
preconditioner in the library on the Emilia-like problem and reports:

* iterations to convergence (preconditioner quality),
* failure-free overhead,
* overhead with a worst-case ϕ=2 block failure,
* reconstruction overhead (the part the paper expects to improve with
  better inner-system preconditioning),
* whether exact reconstruction is possible at all — the polynomial
  (Neumann) preconditioner is a *global* operator and only IMCR can
  protect it, a structural trade-off this table makes visible.
"""

from __future__ import annotations

import pytest
from conftest import is_quick, write_artifact

import repro
from repro.campaign.scenarios import place_worst_case_failure
from repro.exceptions import ReconstructionUnsupportedError
from repro.harness.calibration import BENCH_COST_MODEL

PHI = 2
T = 20
N_NODES = 8

PRECONDITIONERS = (
    "identity",
    "jacobi",
    "block_jacobi",
    "block_ssor",
    "block_ichol",
    "polynomial",
)


def run_study():
    scale = "tiny" if is_quick() else "small"
    # One session serves the whole study: the matrix is distributed
    # once, each preconditioner is factorised once, and each reference
    # trajectory is computed once and reused by both strategies.
    session = repro.SolverSession.from_problem(
        "emilia_923_like", scale=scale, n_nodes=N_NODES,
        cost_model=BENCH_COST_MODEL,
    )
    rows = []
    for name in PRECONDITIONERS:
        reference = session.reference(preconditioner=name)
        row = {"preconditioner": name, "iterations": reference.C}
        for strategy in ("esrp", "imcr"):
            try:
                ff = session.solve(
                    repro.SolveRequest(strategy=strategy, T=T, phi=PHI,
                                       preconditioner=name),
                    with_reference=True,
                )
                j_fail = place_worst_case_failure(strategy, T, reference.C)
                failed = session.solve(
                    repro.SolveRequest(
                        strategy=strategy, T=T, phi=PHI, preconditioner=name,
                        failures=[repro.FailureEvent(j_fail, (2, 3))],
                    ),
                    with_reference=True,
                )
                row[strategy] = {
                    "ff": ff.total_overhead,
                    "total": failed.total_overhead,
                    "reconstruction": failed.recovery_overhead,
                }
            except ReconstructionUnsupportedError:
                row[strategy] = None
        rows.append(row)
    return rows


def render(rows) -> str:
    lines = [
        "Ablation A1: ESRP vs IMCR across preconditioners (phi=2, T=20)",
        "",
        f"{'preconditioner':15s} {'iters':>6s} | {'ESRP ff':>8s} {'ESRP tot':>9s} {'ESRP rec':>9s} | "
        f"{'IMCR ff':>8s} {'IMCR tot':>9s}",
        "-" * 80,
    ]
    for row in rows:
        esrp = row["esrp"]
        imcr = row["imcr"]
        esrp_txt = (
            f"{100 * esrp['ff']:7.2f}% {100 * esrp['total']:8.2f}% "
            f"{100 * esrp['reconstruction']:8.2f}%"
            if esrp
            else f"{'unsupported':>27s}"
        )
        imcr_txt = f"{100 * imcr['ff']:7.2f}% {100 * imcr['total']:8.2f}%"
        lines.append(
            f"{row['preconditioner']:15s} {row['iterations']:>6d} | {esrp_txt} | {imcr_txt}"
        )
    lines.append("")
    lines.append("note: the polynomial (Neumann) preconditioner is a global operator;")
    lines.append("exact state reconstruction cannot restrict it, so only IMCR applies.")
    return "\n".join(lines)


def test_ablation_preconditioners(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    table = render(rows)
    print("\n" + table)
    write_artifact("ablation_a1_preconditioners.txt", table)

    by_name = {row["preconditioner"]: row for row in rows}
    assert by_name["polynomial"]["esrp"] is None
    assert by_name["polynomial"]["imcr"] is not None
    assert by_name["block_jacobi"]["esrp"] is not None
    # a real preconditioner beats identity on iterations
    assert by_name["block_jacobi"]["iterations"] < by_name["identity"]["iterations"]
