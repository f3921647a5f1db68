"""Scenario-campaign engine: declarative sweeps over the experiment space.

The paper's contribution is an *empirical comparison* of ESR/ESRP/IMCR
under varying failure scenarios.  This package turns that comparison
into a first-class subsystem: one declarative spec describes a whole
sweep, the engine expands it into a deterministic list of runs,
executes them on a process pool, and aggregates the results into the
paper's overhead tables.

Pipeline
--------
1. :class:`CampaignSpec` (:mod:`repro.campaign.spec`) — the declarative
   sweep description (matrices × preconditioners × strategies ×
   failure scenarios × checkpoint intervals × ϕ × repetitions);
2. :func:`expand_spec` — deterministic, duplicate-free expansion into
   :class:`RunSpec` objects, each with its own derived seed;
3. :func:`execute_campaign` (:mod:`repro.campaign.executor`) — run the
   specs serially, on a ``concurrent.futures.ProcessPoolExecutor``, or
   (``queue_dir=...``) through the durable on-disk work queue of
   :mod:`repro.queue`, which is crash-resumable and shareable across
   hosts (``repro campaign submit / worker / status / collect``);
4. :class:`CampaignResult` (:mod:`repro.campaign.results`) — typed
   record store with JSON/CSV export and Table-2-style overhead
   aggregation.

Spec schema (JSON)
------------------
A campaign spec file is a single JSON object::

    {
      "name": "demo",                      # campaign label
      "problems": [                        # matrices to sweep
        {"name": "emilia_923_like", "scale": "tiny"}
      ],
      "n_nodes": 8,                        # virtual cluster size
      "preconditioners": ["block_jacobi"], # preconditioner names
      "strategies": [                      # (strategy, interval) rows
        {"name": "esr"},                   #   T defaults to 1
        {"name": "esrp", "intervals": [20, 50]},
        {"name": "imcr", "intervals": [20]}
      ],
      "phis": [1, 2],                      # redundancy counts ϕ
      "scenarios": [                       # failure-scenario generators
        {"kind": "failure_free"},
        {"kind": "worst_case", "location": "start"},
        {"kind": "fraction", "fraction": 0.5, "location": "center"},
        {"kind": "multi_node", "width": 2},
        {"kind": "storm", "count": 3},
        {"kind": "mtbf", "mtbf_fraction": 0.4},
        {"kind": "sdc", "probability": 0.01},
        {"kind": "lossy", "error_bound": 1e-4, "ratio": 4.0},
        {"kind": "churn", "epoch_fraction": 0.2}
      ],
      "repetitions": 2,                    # seeded repetitions per cell
      "seed": 2020,                        # campaign base seed
      "rtol": 1e-08                        # solver tolerance
    }

Every scenario ``kind`` accepts the keyword parameters of the matching
generator in :mod:`repro.campaign.scenarios` (``scenario_kinds()``
lists them).  Scenario timing is resolved *per run* against the
reference iteration count C of that run's problem, exactly like the
paper places its failures relative to C.

The paper's own §5 grid (Tables 2 and 3) is :func:`paper_table_spec`;
:func:`repro.harness.paper_table` lays its result out as table cells.

Quickstart::

    from repro.campaign import demo_spec, execute_campaign

    result = execute_campaign(demo_spec(), workers=4)
    print(result.render_summary())
    result.to_json("campaign.json")

or from the command line::

    python -m repro campaign run --workers 4 --out campaign.json
    python -m repro campaign report --results campaign.json
"""

from __future__ import annotations

from .executor import execute_campaign, run_one
from .results import CampaignResult, CampaignRunRecord
from .scenarios import (
    SCENARIO_KINDS,
    ScenarioContext,
    ScenarioSpec,
    generate_schedule,
    scenario_kinds,
)
from .spec import (
    CampaignSpec,
    RunSpec,
    StrategySpec,
    demo_spec,
    expand_spec,
    faults_spec,
    paper_table_spec,
)

__all__ = [
    "CampaignResult",
    "CampaignRunRecord",
    "CampaignSpec",
    "RunSpec",
    "SCENARIO_KINDS",
    "ScenarioContext",
    "ScenarioSpec",
    "StrategySpec",
    "demo_spec",
    "execute_campaign",
    "expand_spec",
    "faults_spec",
    "generate_schedule",
    "paper_table_spec",
    "run_one",
    "scenario_kinds",
]
