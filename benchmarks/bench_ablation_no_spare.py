"""Ablation A5 — ESR without spare nodes (extension [22]).

The paper assumes spare nodes; its related work [22] continues on the
survivors instead.  This bench compares, for the same worst-case
failure, recovery with spares (ESRP) against shrinking the cluster
(no-spare ESR): total modeled time, iterations, and final accuracy.
"""

from __future__ import annotations

import numpy as np
from conftest import is_quick, write_artifact

import repro
from repro.campaign.scenarios import place_worst_case_failure
from repro.core.no_spare import solve_without_spares
from repro.harness.calibration import BENCH_COST_MODEL

N_NODES = 8
PHI = 2


def run_comparison():
    scale = "tiny" if is_quick() else "small"
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale=scale)
    reference = repro.solve(
        matrix, b, n_nodes=N_NODES, strategy="reference", cost_model=BENCH_COST_MODEL
    )
    t0, C = reference.modeled_time, reference.iterations
    j_fail = place_worst_case_failure("esrp", 20, C)
    failure = repro.FailureEvent(j_fail, (2, 3))

    with_spares = repro.solve(
        matrix, b, n_nodes=N_NODES, strategy="esrp", T=20, phi=PHI,
        failures=[failure], cost_model=BENCH_COST_MODEL,
    )
    no_spares = solve_without_spares(
        matrix, b, n_nodes=N_NODES, failure=failure, phi=PHI,
        cost_model=BENCH_COST_MODEL,
    )
    err_spare = float(
        np.linalg.norm(with_spares.x - reference.x) / np.linalg.norm(reference.x)
    )
    err_no_spare = float(
        np.linalg.norm(no_spares.result.x - reference.x) / np.linalg.norm(reference.x)
    )
    return {
        "C": C,
        "t0": t0,
        "j_fail": j_fail,
        "with": (with_spares.modeled_time, with_spares.iterations, err_spare),
        "without": (
            no_spares.result.modeled_time,
            j_fail + no_spares.result.iterations,
            err_no_spare,
        ),
        "survivors": no_spares.survivors,
    }


def test_ablation_no_spare(benchmark):
    data = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    t0 = data["t0"]
    w_time, w_iters, w_err = data["with"]
    n_time, n_iters, n_err = data["without"]
    lines = [
        f"Ablation A5: spare vs no-spare recovery (failure of 2 nodes at "
        f"iteration {data['j_fail']}, undisturbed C = {data['C']})",
        "",
        f"{'mode':28s} {'nodes after':>12s} {'total iters':>12s} {'overhead':>10s} {'|dx|/|x|':>10s}",
        "-" * 80,
        f"{'ESRP with spare nodes':28s} {8:>12d} {w_iters:>12d} "
        f"{100 * (w_time - t0) / t0:>9.2f}% {w_err:>10.2e}",
        f"{'no-spare ESR (shrink to 6)':28s} {data['survivors']:>12d} {n_iters:>12d} "
        f"{100 * (n_time - t0) / t0:>9.2f}% {n_err:>10.2e}",
        "",
        "reading: with spares the exact trajectory continues (same iteration",
        "count); without spares the cluster shrinks, the node-aligned",
        "preconditioner changes and the recursion restarts from the exact",
        "iterand — more iterations, each on fewer nodes, but no spare pool.",
    ]
    table = "\n".join(lines)
    print("\n" + table)
    write_artifact("ablation_a5_no_spare.txt", table)

    assert w_err < 1e-6 and n_err < 1e-6
    assert data["survivors"] == N_NODES - 2
    assert w_iters == data["C"]  # spares preserve the trajectory exactly
