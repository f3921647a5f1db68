"""Figure regeneration: data series + ASCII renderings.

* Figures 2 and 3 of the paper plot, per checkpoint interval T, the
  median runtime overhead of ESRP / ESR / IMCR with markers for
  ϕ ∈ {1, 3, 8}, on a log axis — once failure-free, once with ψ = ϕ
  failures.  :func:`overhead_series` extracts exactly those series from
  a :func:`~repro.harness.tables.paper_table` result and
  :func:`ascii_log_plot` renders them in the terminal (markers on a log
  scale), which is what the benches print.
* Figure 1 shows the redundancy-queue evolution; :func:`render_queue_trace`
  reproduces it from an actual ESRP run's event log.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping, Sequence

from ..events import EventKind, EventLog
from ..exceptions import ConfigurationError


@dataclasses.dataclass(frozen=True)
class OverheadSeries:
    """One plotted line: strategy at interval T, values per ϕ."""

    strategy: str
    T: int
    phis: tuple[int, ...]
    #: Median overhead per ϕ (fractions, not percent).
    values: tuple[float, ...]


def overhead_series(
    results: Mapping,
    phis: Sequence[int],
    with_failures: bool,
    locations: Sequence[str] = ("start", "center"),
) -> list[OverheadSeries]:
    """Extract Fig. 2/3 series from a :func:`~repro.harness.tables.paper_table` result.

    With failures, the paper's markers aggregate (median) over the
    failure locations; failure-free uses the failure-free column.  The
    ESR line (T = 1) is replicated for every interval cluster by the
    plot renderer, matching the paper's presentation.
    """
    cells = results.get("cells")
    if cells is None:
        raise ConfigurationError("results dict lacks 'cells'")
    series: list[OverheadSeries] = []
    for strategy, T in sorted({(s, t) for (s, t, _p) in cells}):
        values: list[float] = []
        for phi in phis:
            cell = cells.get((strategy, T, phi))
            if cell is None:
                values.append(math.nan)
                continue
            if with_failures:
                totals = [
                    cell.get((loc, "total"))
                    for loc in locations
                    if cell.get((loc, "total")) is not None
                ]
                if not totals:
                    values.append(math.nan)
                    continue
                totals.sort()
                mid = len(totals) // 2
                if len(totals) % 2:
                    values.append(float(totals[mid]))
                else:
                    values.append(0.5 * (totals[mid - 1] + totals[mid]))
            else:
                ff = cell.get("failure_free")
                values.append(math.nan if ff is None else float(ff))
        series.append(
            OverheadSeries(strategy=strategy, T=T, phis=tuple(phis), values=tuple(values))
        )
    return series


def ascii_log_plot(
    series: Sequence[OverheadSeries],
    intervals: Sequence[int],
    title: str,
    width: int = 72,
    height: int = 18,
) -> str:
    """Fig. 2/3-style ASCII plot: T clusters on x, log overhead on y.

    Markers: ``E`` = ESRP, ``R`` = ESR (T = 1 line, replicated per
    cluster), ``I`` = IMCR; within each cluster the markers left→right
    correspond to increasing ϕ, exactly as in the paper's figures.
    """
    marker_of = {"esrp": "E", "esr": "R", "imcr": "I"}
    esr_line = next((s for s in series if s.strategy == "esrp" and s.T == 1), None)

    points: list[tuple[int, float, str]] = []  # (column, value, marker)
    n_clusters = len(intervals)
    cluster_width = max(width // max(n_clusters, 1), 12)
    for ci, T in enumerate(intervals):
        base = ci * cluster_width + 2
        lanes = []
        for s in series:
            if s.T == T and s.strategy == "esrp" and T != 1:
                lanes.append(("esrp", s))
        if esr_line is not None:
            lanes.append(("esr", esr_line))
        for s in series:
            if s.T == T and s.strategy == "imcr":
                lanes.append(("imcr", s))
        for li, (kind, s) in enumerate(lanes):
            for pi, value in enumerate(s.values):
                if not (value == value) or value <= 0:  # NaN or non-positive
                    continue
                col = base + li * (cluster_width // max(len(lanes), 1)) + pi * 2
                points.append((col, value, marker_of.get(kind, "?")))

    finite = [v for (_c, v, _m) in points]
    if not finite:
        return f"{title}\n(no positive overhead values to plot)"
    lo = min(finite)
    hi = max(finite)
    lo_log = math.floor(math.log10(lo) * 2) / 2
    hi_log = math.ceil(math.log10(hi) * 2) / 2
    if hi_log <= lo_log:
        hi_log = lo_log + 1.0

    grid = [[" "] * (width + 14) for _ in range(height)]
    for col, value, marker in points:
        frac = (math.log10(value) - lo_log) / (hi_log - lo_log)
        row = height - 1 - int(round(frac * (height - 1)))
        row = min(max(row, 0), height - 1)
        if col < width:
            grid[row][col + 10] = marker

    lines = [title]
    for i, row in enumerate(grid):
        frac = 1.0 - i / (height - 1)
        value = 10 ** (lo_log + frac * (hi_log - lo_log))
        label = f"{100 * value:7.2f}% |" if i % 4 == 0 or i == height - 1 else "         |"
        lines.append(label + "".join(row))
    axis = "         +" + "-" * width
    lines.append(axis)
    cluster_width = max(width // max(n_clusters, 1), 12)
    labels = [" "] * (width + 10)
    for ci, T in enumerate(intervals):
        text = f"T={T}"
        base = ci * cluster_width + 12
        for k, ch in enumerate(text):
            if base + k < len(labels):
                labels[base + k] = ch
    lines.append("".join(labels))
    lines.append("markers: E = ESRP, R = ESR (T=1), I = IMCR; left->right = increasing phi")
    return "\n".join(lines)


def render_queue_trace(log: EventLog, T: int, max_lines: int = 40) -> str:
    """Fig.-1-style trace of the redundancy queue from an ESRP event log."""
    lines = [
        f"Redundancy queue evolution (ESRP, T={T}); '<- recovery point j' marks",
        "the iteration the solver would reconstruct after a failure.",
        "",
    ]
    count = 0
    for event in log:
        if event.kind is not EventKind.STORAGE_STAGE:
            continue
        queue = event.detail.get("queue", "?")
        phase = event.detail.get("phase", "?")
        suffix = ""
        if phase == "complete":
            suffix = f"   <- recovery point {event.detail.get('recovery_point')}"
        lines.append(f"j = {event.iteration:>5d}  {queue:<36s} ({phase}){suffix}")
        count += 1
        if count >= max_lines:
            lines.append("... (truncated)")
            break
    return "\n".join(lines)
