"""Ablation A7 — residual replacement vs. residual drift (Table 4 add-on).

The paper's §5 measures the drift between the recursive and the true
residual (citing Van der Vorst & Ye [27]) and uses it to argue ESRP
does not hurt accuracy.  [27]'s actual remedy — periodic residual
replacement — is implemented in
:mod:`repro.solvers.residual_replacement`; this bench quantifies how
much of the drift it removes, with and without node failures.
"""

from __future__ import annotations

import numpy as np
from conftest import is_quick, write_artifact

import repro
from repro.cluster import FailureSchedule, VirtualCluster
from repro.core import ESRPStrategy
from repro.distribution import BlockRowPartition, DistributedMatrix
from repro.harness.calibration import BENCH_COST_MODEL
from repro.solvers import drift_from_result
from repro.preconditioners import make_preconditioner
from repro.solvers import NoResilience, PCGEngine, SolveOptions
from repro.solvers.residual_replacement import ResidualReplacer

N_NODES = 8


def run_study():
    scale = "tiny" if is_quick() else "small"
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale=scale)
    probe = repro.solve(
        matrix, b, n_nodes=N_NODES, strategy="reference", cost_model=BENCH_COST_MODEL
    )
    j_fail = probe.iterations // 2

    def build(strategy, failures=None):
        cluster = VirtualCluster(N_NODES, cost_model=BENCH_COST_MODEL, seed=0)
        partition = BlockRowPartition.uniform(matrix.shape[0], N_NODES)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        return PCGEngine(
            matrix=dmatrix,
            b=b,
            preconditioner=make_preconditioner("block_jacobi"),
            strategy=strategy,
            options=SolveOptions(rtol=1e-8),
            failures=FailureSchedule(failures or []),
        )

    rows = []
    for label, use_replacement, failures in [
        ("PCG", False, None),
        ("PCG + replacement", True, None),
        ("ESRP, 2 failures", False, [repro.FailureEvent(j_fail, (2, 3))]),
        ("ESRP + replacement", True, [repro.FailureEvent(j_fail, (2, 3))]),
    ]:
        strategy = (
            NoResilience() if failures is None else ESRPStrategy(T=20, phi=2)
        )
        engine = build(strategy, failures)
        if use_replacement:
            ResidualReplacer(engine, interval=20).attach()
        result = engine.solve()
        assert result.converged
        rows.append((label, drift_from_result(matrix, b, result), result.iterations))
    return rows


def test_ablation_residual_replacement(benchmark):
    rows = benchmark.pedantic(run_study, rounds=1, iterations=1)
    lines = [
        "Ablation A7: residual drift (Eq. 2) with and without residual replacement",
        "",
        f"{'configuration':22s} {'drift':>12s} {'iterations':>11s}",
        "-" * 50,
    ]
    for label, drift, iterations in rows:
        lines.append(f"{label:22s} {drift:>12.3e} {iterations:>11d}")
    lines.append("")
    lines.append("reading: replacement pins the recursive residual to the true one;")
    lines.append("at this scale (C ~ 10^2) both drifts sit at round-off level --")
    lines.append("the paper's percent-level drift needs its C ~ 10^4 runs.")
    table = "\n".join(lines)
    print("\n" + table)
    write_artifact("ablation_a7_residual_replacement.txt", table)

    drift = {label: d for label, d, _ in rows}
    # At laptop-scale iteration counts the drift is orders of magnitude
    # below the paper's (drift grows with C; paper: C ~ 10^4): the
    # defensible assertions are that replacement keeps the drift at
    # round-off scale and does not disturb convergence or recovery.
    assert abs(drift["PCG + replacement"]) < 1e-6
    assert abs(drift["ESRP + replacement"]) < 1e-6
