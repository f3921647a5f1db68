"""Ablation A6 — topology-aware redundancy placement vs. Eq. (1).

The paper justifies contiguous-block failures with switch faults, and
notes that optimising the redundancy destinations for the network
topology is "ongoing work" (§2.2.1).  This bench makes the problem
concrete: with Eq. (1), a node's copies go to its *nearest ranks* —
which live under the *same leaf switch* and die together with it.  The
``switch_aware`` policy prefers destinations under other leaves.

The interesting regime is ψ > ϕ: with ϕ copies, *any* ψ ≤ ϕ failure
is recoverable regardless of placement (ϕ+1 holders minus ψ ≥ 1), but a
whole radix-2 switch fault kills ψ = 2 nodes while we only pay ϕ = 1 —
recoverable **iff** the copies sit under a different switch.  We sweep
whole-switch faults across every leaf and count exact recoveries vs.
restart fallbacks for both policies.
"""

from __future__ import annotations

from conftest import is_quick, write_artifact

import repro
from repro.cluster.topology import FatTree
from repro.distribution import RedundancyPlan
from repro.events import EventKind
from repro.harness.calibration import BENCH_COST_MODEL

N_NODES = 8
RADIX = 2
PHI = 1  # a whole-switch fault kills RADIX=2 nodes: psi > phi!


def run_sweep():
    scale = "tiny" if is_quick() else "small"
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale=scale)
    session = repro.SolverSession(
        matrix, b, n_nodes=N_NODES, topology=FatTree(N_NODES, radix=RADIX),
        cost_model=BENCH_COST_MODEL, seed=0,
    )
    topology = session.cluster.topology
    j_fail = session.reference().C // 2

    outcomes: dict[str, dict[str, int]] = {}
    traffic: dict[str, int] = {}
    for policy in ("eq1", "switch_aware"):
        exact = restarts = 0
        for leaf in range(topology.n_leaves):
            report = session.solve(
                strategy="esr", phi=PHI, destinations=policy,
                failures=[repro.FailureEvent(j_fail, topology.ranks_under_leaf(leaf))],
            )
            assert report.converged
            if report.result.events.first(EventKind.RESTART) is None:
                exact += 1
            else:
                restarts += 1
        plan = RedundancyPlan(
            session.matrix.plan, PHI, destinations=policy,
            topology=topology if policy == "switch_aware" else None,
        )
        traffic[policy] = plan.extra_entries()
        outcomes[policy] = {"exact": exact, "restart": restarts}
    return topology.n_leaves, j_fail, outcomes, traffic


def test_ablation_switch_aware_destinations(benchmark):
    n_leaves, j_fail, outcomes, traffic = benchmark.pedantic(
        run_sweep, rounds=1, iterations=1
    )
    lines = [
        f"Ablation A6: whole-switch faults ({n_leaves} leaves x {RADIX} nodes, "
        f"phi={PHI}, failure at iteration {j_fail})",
        "",
        f"{'policy':14s} {'exact recoveries':>17s} {'restart fallbacks':>18s} "
        f"{'extra entries/ASpMV':>20s}",
        "-" * 75,
    ]
    for policy in ("eq1", "switch_aware"):
        lines.append(
            f"{policy:14s} {outcomes[policy]['exact']:>17d} "
            f"{outcomes[policy]['restart']:>18d} {traffic[policy]:>20d}"
        )
    lines.append("")
    lines.append("reading: Eq.(1) places copies on nearest ranks — under the failed")
    lines.append("switch itself — so whole-switch faults can destroy all copies and")
    lines.append("force a restart; switch-aware placement always recovers exactly,")
    lines.append("at the cost of shipping extras further (and forgoing piggybacking);")
    lines.append("with psi <= phi both policies always recover (the phi-invariant).")
    table = "\n".join(lines)
    print("\n" + table)
    write_artifact("ablation_a6_switch_aware.txt", table)

    assert outcomes["switch_aware"]["restart"] == 0
    assert outcomes["switch_aware"]["exact"] == n_leaves
    # with psi=2 > phi=1, Eq.(1)'s nearest-rank copies die with their
    # switch: every whole-switch fault forces a restart
    assert outcomes["eq1"]["restart"] == n_leaves
