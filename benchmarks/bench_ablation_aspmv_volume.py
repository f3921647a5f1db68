"""Ablation A4 — ASpMV traffic vs. sparsity pattern and ϕ (paper §2.2).

"The exact communication overhead depends on the sparsity pattern of
the matrix.  In general, denser matrices will have lower overheads for
ASpMV, since more information has to be sent anyway ... it is
convenient if the matrix is banded."  This bench quantifies exactly
that on a random banded SPD family: extra entries per augmented
product as a function of bandwidth and ϕ, compared against the natural
halo volume and against IMCR's per-checkpoint buddy traffic, plus the
peak redundant-memory footprints of both schemes.
"""

from __future__ import annotations

from conftest import write_artifact

from repro.distribution import BlockRowPartition, RedundancyPlan, SpMVPlan
from repro.matrices import random_banded_spd

N = 2048
N_NODES = 16
BANDWIDTHS = (1, 8, 32, 96, 192)
PHIS = (1, 3, 8)


def run_sweep():
    rows = []
    for bandwidth in BANDWIDTHS:
        matrix = random_banded_spd(N, bandwidth=bandwidth, density=0.6, seed=3)
        spmv_plan = SpMVPlan(matrix, BlockRowPartition.uniform(N, N_NODES))
        natural = spmv_plan.total_halo_entries()
        per_phi = {}
        for phi in PHIS:
            plan = RedundancyPlan(spmv_plan, phi, rule="paper")
            greedy = RedundancyPlan(spmv_plan, phi, rule="greedy")
            imcr_entries = phi * 4 * N  # phi buddies x 4 state vectors
            per_phi[phi] = {
                "extra": plan.extra_entries(),
                "greedy": greedy.extra_entries(),
                "imcr": imcr_entries,
            }
        rows.append((bandwidth, natural, per_phi))
    return rows


def render(rows) -> str:
    lines = [
        f"Ablation A4: ASpMV extra entries per product (n = {N}, {N_NODES} nodes)",
        "vs natural halo and IMCR per-checkpoint buddy entries",
        "",
        f"{'bandwidth':>9s} {'halo':>8s} | "
        + " | ".join(f"phi={phi}: extra greedy  IMCR" for phi in PHIS),
        "-" * 100,
    ]
    for bandwidth, natural, per_phi in rows:
        cells = " | ".join(
            f"{per_phi[phi]['extra']:>11d} {per_phi[phi]['greedy']:>6d} {per_phi[phi]['imcr']:>5d}"
            for phi in PHIS
        )
        lines.append(f"{bandwidth:>9d} {natural:>8d} | {cells}")
    lines.append("")
    lines.append("reading: wider bands ship more entries naturally, so the augmented")
    lines.append("product needs fewer explicit extras (the paper's density argument);")
    lines.append("ESRP stores 2 copies per stage vs IMCR's 4 vectors x phi buddies.")
    return "\n".join(lines)


def test_ablation_aspmv_volume(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = render(rows)
    print("\n" + table)
    write_artifact("ablation_a4_aspmv_volume.txt", table)

    # denser matrices -> fewer extras (paper's claim), at every phi
    for phi in PHIS:
        extras = [per_phi[phi]["extra"] for _bw, _nat, per_phi in rows]
        assert extras[0] >= extras[-1], f"extras must shrink with bandwidth (phi={phi})"
    # natural halo grows with bandwidth
    naturals = [natural for _bw, natural, _p in rows]
    assert naturals == sorted(naturals)
    # greedy never ships more than the paper rule
    for _bw, _nat, per_phi in rows:
        for phi in PHIS:
            assert per_phi[phi]["greedy"] <= per_phi[phi]["extra"]
