"""Table 4 — residual drift (Eq. 2 of the paper).

``drift = (‖r_end‖₂ − ‖b − A x_end‖₂) / ‖b − A x_end‖₂`` computed after
convergence: the reference row uses all failure-free runs, the median
and minimum rows all runs with node failures, across the full Table-2/3
grids.  The paper's claim: "In the median, ESRP with node failures does
not differ significantly from PCG" — i.e. reconstruction does not
degrade accuracy.
"""

from __future__ import annotations

from conftest import write_artifact

from repro.harness import PAPER_TABLE4, render_drift_table


def test_table4_residual_drift(benchmark, emilia_grid, audikw_grid):
    _, emilia = emilia_grid
    _, audikw = audikw_grid

    def regenerate():
        return {"emilia_923_like": emilia["drift"], "audikw_1_like": audikw["drift"]}

    drift = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    paper = {
        "emilia_923_like": PAPER_TABLE4["Emilia_923"],
        "audikw_1_like": PAPER_TABLE4["audikw_1"],
    }
    table = "Table 4: Residual drift (Eq. 2)\n" + render_drift_table(drift, paper=paper)
    print("\n" + table)
    write_artifact("table4_drift.txt", table)

    for name, row in drift.items():
        # the paper's qualitative claims
        assert row["minimum"] <= row["median"] + 1e-12
        assert abs(row["median"] - row["reference"]) < max(
            5 * abs(row["reference"]), 0.25
        ), f"{name}: median drift with failures deviates wildly from reference"
