"""Paper harness: renders the paper's tables & figures from campaign results.

The §5 grid itself is :func:`repro.campaign.paper_table_spec`, run by
:func:`repro.campaign.execute_campaign`; :func:`paper_table` turns its
:class:`~repro.campaign.CampaignResult` into the layout the renderers
below take.
"""

from .calibration import BENCH_COST_MODEL
from .paper import PAPER_TABLE2, PAPER_TABLE3, PAPER_TABLE4, PAPER_TABLES
from .tables import paper_table, render_drift_table, render_overhead_table
from .figures import OverheadSeries, ascii_log_plot, overhead_series, render_queue_trace

__all__ = [
    "BENCH_COST_MODEL",
    "OverheadSeries",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLES",
    "ascii_log_plot",
    "overhead_series",
    "paper_table",
    "render_drift_table",
    "render_overhead_table",
    "render_queue_trace",
]
