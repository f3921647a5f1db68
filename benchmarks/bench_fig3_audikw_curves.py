"""Figure 3 — audikw: median runtime overhead vs. checkpoint interval.

Same presentation as Fig. 2 on the denser vector-valued problem.
"""

from __future__ import annotations

from bench_fig2_emilia_curves import render_figure
from conftest import write_artifact

from repro.harness import overhead_series


def test_fig3_audikw_overhead_curves(benchmark, audikw_grid):
    spec, results = audikw_grid

    def regenerate():
        return render_figure(results, spec, "Fig. 3 audikw-like:")

    figure = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print("\n" + figure)
    write_artifact("fig3_audikw_curves.txt", figure)

    # Shape: with failures, overheads at the largest phi exceed the
    # phi=1 ones for the ESR line (paper Fig. 3b's rising markers).
    series = overhead_series(results, phis=spec.phis, with_failures=True)
    esr = next(s for s in series if s.strategy == "esrp" and s.T == 1)
    assert esr.values[-1] > esr.values[0]
