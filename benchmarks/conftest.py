"""Shared fixtures for the paper-reproduction benchmarks.

The expensive experiment grids (Tables 2/3) are run once per session
as campaigns (:func:`repro.campaign.paper_table_spec` on a process
pool) and shared by the table, drift and figure benches.  Every bench
writes its rendered output under ``results/`` so EXPERIMENTS.md can
reference the artefacts.  Cells are billed noise-free, one run each.

Environment knobs (see also :func:`repro.campaign.paper_table_spec`):

* ``REPRO_QUICK=1``  — small problems, fewer cells (CI / iteration mode)
* ``REPRO_SCALE``    — matrix scale tier override
* ``REPRO_NODES``    — cluster size override
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.campaign import CampaignSpec, execute_campaign, paper_table_spec
from repro.harness import paper_table

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

QUICK = os.environ.get("REPRO_QUICK", "0") not in ("0", "", "false")


def is_quick() -> bool:
    return QUICK


def write_artifact(name: str, text: str) -> pathlib.Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    return path


def intervals(spec: CampaignSpec, strategy: str) -> tuple[int, ...]:
    """The checkpoint intervals ``spec`` sweeps for ``strategy``."""
    return next(s.intervals for s in spec.strategies if s.name == strategy)


class _GridCache:
    """Session-wide cache of full experiment grids per problem."""

    def __init__(self) -> None:
        self._cache: dict[str, tuple[CampaignSpec, dict]] = {}

    def get(self, problem: str) -> tuple[CampaignSpec, dict]:
        if problem not in self._cache:
            spec = paper_table_spec(problem, quick=QUICK)
            results = paper_table(execute_campaign(spec), problem)
            self._cache[problem] = (spec, results)
        return self._cache[problem]


@pytest.fixture(scope="session")
def grid_cache() -> _GridCache:
    return _GridCache()


@pytest.fixture(scope="session")
def emilia_grid(grid_cache):
    return grid_cache.get("emilia_923_like")


@pytest.fixture(scope="session")
def audikw_grid(grid_cache):
    return grid_cache.get("audikw_1_like")
