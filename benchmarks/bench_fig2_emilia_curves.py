"""Figure 2 — Emilia: median runtime overhead vs. checkpoint interval.

Two panels as in the paper: (a) failure-free, (b) with ψ = ϕ node
failures (markers aggregated over the two locations).  Series: ESRP at
each T, ESR (the T=1 line replicated per cluster), IMCR at each T;
within a cluster the markers left→right are ϕ = 1, 3, 8.  Rendered as
an ASCII log-scale plot plus the raw series values.
"""

from __future__ import annotations

from conftest import intervals, write_artifact

from repro.harness import overhead_series
from repro.harness.figures import ascii_log_plot


def render_figure(results, spec, title_prefix):
    clusters = tuple(t for t in intervals(spec, "esrp") if t > 2)
    blocks = []
    for with_failures, panel in ((False, "(a) Failure-free solver"), (True, "(b) Node failures introduced")):
        series = overhead_series(results, phis=spec.phis, with_failures=with_failures)
        plot = ascii_log_plot(
            series, intervals=clusters, title=f"{title_prefix} {panel}"
        )
        rows = []
        for s in sorted(series, key=lambda s: (s.strategy, s.T)):
            label = "ESR " if (s.strategy == "esrp" and s.T == 1) else s.strategy.upper()
            values = ", ".join(
                f"phi={phi}: {100 * v:.2f}%" for phi, v in zip(s.phis, s.values)
            )
            rows.append(f"  {label:5s} T={s.T:<4d} {values}")
        blocks.append(plot + "\nseries:\n" + "\n".join(rows))
    return "\n\n".join(blocks)


def test_fig2_emilia_overhead_curves(benchmark, emilia_grid):
    spec, results = emilia_grid

    def regenerate():
        return render_figure(results, spec, "Fig. 2 Emilia-like:")

    figure = benchmark.pedantic(regenerate, rounds=1, iterations=1)
    print("\n" + figure)
    write_artifact("fig2_emilia_curves.txt", figure)

    # Shape: in the failure-free panel the ESR line sits above every
    # ESRP line for the largest phi (paper Fig. 2a).
    series = overhead_series(results, phis=spec.phis, with_failures=False)
    esr = next(s for s in series if s.strategy == "esrp" and s.T == 1)
    top_phi = len(spec.phis) - 1
    for s in series:
        if s.strategy == "esrp" and s.T > 2:
            assert esr.values[top_phi] > s.values[top_phi]
