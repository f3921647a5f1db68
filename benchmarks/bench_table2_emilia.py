"""Table 2 — Emilia_923(-like): runtime overheads of ESRP/ESR/IMCR.

Regenerates the full test constellation of the paper's Table 2:
strategies ESRP (T ∈ {1=ESR, 20, 50, 100}) and IMCR (T ∈ {20, 50,
100}), ϕ = ψ ∈ {1, 3, 8}, contiguous block failures at ranks 0
("start") and N/2 ("center") placed two iterations before the end of
the interval containing C/2, one noise-free run per cell.  Prints our
percentages with the paper's in parentheses.

Shape assertions (the claims that must reproduce):
* ESR failure-free overhead ≫ ESRP failure-free overhead, for every ϕ;
* ESRP failure-free overhead decreases with T and increases with ϕ;
* IMCR reconstruction overhead ≈ 0, far below ESRP's;
* with failures, IMCR total ≤ ESRP total (paper §5: "CR is faster if
  node failures happen").
"""

from __future__ import annotations

from conftest import intervals, write_artifact

from repro.harness import PAPER_TABLES, render_overhead_table


def _cell(results, strategy, T, phi):
    return results["cells"][(strategy, T, phi)]


def assert_table_shape(results, phis, esrp_intervals, imcr_intervals) -> list[str]:
    notes = []
    big_T = max(t for t in esrp_intervals if t > 2)
    for phi in phis:
        esr_ff = _cell(results, "esrp", 1, phi)["failure_free"]
        esrp_ff = _cell(results, "esrp", big_T, phi)["failure_free"]
        assert esr_ff > esrp_ff, (
            f"ESR ff overhead ({esr_ff:.3%}) must exceed ESRP T={big_T} ({esrp_ff:.3%})"
        )
        notes.append(f"phi={phi}: ESR ff {esr_ff:.2%} > ESRP(T={big_T}) ff {esrp_ff:.2%}")

    # phi monotonicity of ESR failure-free overhead
    ff_by_phi = [_cell(results, "esrp", 1, phi)["failure_free"] for phi in phis]
    assert ff_by_phi == sorted(ff_by_phi), "ESR ff overhead must grow with phi"

    # IMCR reconstruction ~ 0 compared to ESRP's
    for T in imcr_intervals:
        for phi in phis:
            imcr_rec = _cell(results, "imcr", T, phi)[("start", "reconstruction")]
            esrp_T = T if T in esrp_intervals and T > 2 else big_T
            esrp_rec = _cell(results, "esrp", esrp_T, phi)[("start", "reconstruction")]
            assert imcr_rec < 0.1 * max(esrp_rec, 1e-9), (
                f"IMCR reconstruction ({imcr_rec:.4%}) must be negligible vs "
                f"ESRP ({esrp_rec:.4%})"
            )

    # With failures, IMCR <= ESRP at matching T ("CR is faster if node
    # failures happen", §5): ESRP pays gathering + inner solves on top
    # of the same wasted iterations.  Strict for multi-node failures
    # (where reconstruction cost is large); small slack for phi < 3.
    for T in imcr_intervals:
        if T not in esrp_intervals:
            continue
        for phi in phis:
            slack = 1.10 if phi >= 3 else 1.40
            imcr_total = _cell(results, "imcr", T, phi)[("start", "total")]
            esrp_total = _cell(results, "esrp", T, phi)[("start", "total")]
            assert imcr_total <= esrp_total * slack + 0.01, (
                f"IMCR with failures ({imcr_total:.3%}) should not exceed "
                f"ESRP ({esrp_total:.3%}) at T={T}, phi={phi}"
            )
    return notes


def render_and_check(benchmark, grid, problem, title, artifact):
    """Render one Table 2/3, check its shape, write the artefact."""
    spec, results = grid
    ((_, scale),) = spec.problems

    def regenerate():
        return render_overhead_table(
            results,
            phis=spec.phis,
            title=f"{title} (scale={scale}, N={spec.n_nodes})",
            paper=PAPER_TABLES.get(problem),
        )

    table = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print("\n" + table)
    notes = assert_table_shape(
        results, spec.phis, intervals(spec, "esrp"), intervals(spec, "imcr")
    )
    print("\nshape checks passed:\n  " + "\n  ".join(notes))
    write_artifact(artifact, table)


def test_table2_emilia(benchmark, emilia_grid):
    render_and_check(
        benchmark, emilia_grid, "emilia_923_like",
        "Table 2: Results for matrix Emilia_923-like", "table2_emilia.txt",
    )
