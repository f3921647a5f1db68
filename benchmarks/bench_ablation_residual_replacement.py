"""Ablation A7 — residual replacement vs. residual drift (Table 4 add-on).

The paper's §5 measures the drift between the recursive and the true
residual (citing Van der Vorst & Ye [27]) and uses it to argue ESRP
does not hurt accuracy.  [27]'s actual remedy — periodic residual
replacement — is implemented in
:mod:`repro.solvers.residual_replacement`; this bench quantifies how
much of the drift it removes, with and without node failures.
"""

from __future__ import annotations

from conftest import is_quick, write_artifact

import repro
from repro.api import STRATEGIES, register_strategy
from repro.core import make_strategy
from repro.harness.calibration import BENCH_COST_MODEL
from repro.solvers import ResidualReplacer, drift_from_result

N_NODES = 8
#: Registered for the study only: strategy ``base`` wrapped in a replacer.
REPLACED = "residual_replacement_study"


def _build_replaced(base: str = "reference", interval: int = 20, **params):
    return ResidualReplacer(make_strategy(base, **params), interval=interval).attach()


def run_study():
    scale = "tiny" if is_quick() else "small"
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale=scale)
    session = repro.SolverSession(
        matrix, b, n_nodes=N_NODES, cost_model=BENCH_COST_MODEL, seed=0
    )
    j_fail = session.reference().C // 2
    failure = [repro.FailureEvent(j_fail, (2, 3))]

    rows = []
    register_strategy(REPLACED, overwrite=True)(_build_replaced)
    try:
        for label, strategy, params, failures in [
            ("PCG", "reference", {}, []),
            ("PCG + replacement", REPLACED, {}, []),
            ("ESRP, 2 failures", "esrp", {}, failure),
            ("ESRP + replacement", REPLACED, {"base": "esrp"}, failure),
        ]:
            report = session.solve(
                strategy=strategy, strategy_params=params, T=20, phi=2,
                failures=failures,
            )
            assert report.converged
            rows.append(
                (label, drift_from_result(matrix, b, report.result), report.iterations)
            )
    finally:
        STRATEGIES.unregister(REPLACED)
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
