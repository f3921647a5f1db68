"""Table 3 — audikw_1(-like): runtime overheads of ESRP/ESR/IMCR.

Same constellation as Table 2 on the denser vector-valued problem; the
additional expectation specific to Table 3 is that the denser rows make
the *relative* ASpMV overhead milder than the checkpoint traffic, so
failure-free ESRP and IMCR are closer together than on Emilia.
"""

from __future__ import annotations

from bench_table2_emilia import render_and_check


def test_table3_audikw(benchmark, audikw_grid):
    render_and_check(
        benchmark, audikw_grid, "audikw_1_like",
        "Table 3: Results for matrix audikw_1-like", "table3_audikw.txt",
    )


def test_iteration_count_ratio_matches_paper(benchmark, emilia_grid, audikw_grid):
    """Paper: C(audikw) / C(Emilia) = 5543 / 10279 ≈ 0.54."""
    _, emilia = emilia_grid
    _, audikw = audikw_grid

    def ratio():
        return audikw["C"] / emilia["C"]

    value = benchmark.pedantic(ratio, rounds=1, iterations=1)
    print(f"\nC(audikw-like)/C(emilia-like) = {value:.2f} (paper: 0.54)")
    assert 0.25 < value < 0.9
