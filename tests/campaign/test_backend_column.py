"""The retired backend column: stored specs and records keep loading.

Campaigns once swept kernel backends (``CampaignSpec.backends``) and
stored a ``backend`` column per record.  One backend remains, so the
axis is gone; files written while it existed still load, and a stored
spec that asks for any other backend fails loudly.
"""

from __future__ import annotations

import pytest

from repro.campaign import (
    CampaignRunRecord,
    CampaignSpec,
    ScenarioSpec,
    execute_campaign,
)
from repro.campaign.spec import StrategySpec, derive_seed, expand_spec
from repro.exceptions import ConfigurationError


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="ab",
        problems=(("emilia_923_like", "tiny"),),
        n_nodes=4,
        strategies=(StrategySpec("esr"),),
        phis=(1,),
        scenarios=(ScenarioSpec.make("worst_case", location="start"),),
    )


def test_spec_backends_round_trip():
    spec = _spec()
    assert "backends" not in spec.to_dict()
    stored = {**spec.to_dict(), "backends": ["vectorized"]}
    assert CampaignSpec.from_dict(stored) == spec


def test_spec_requires_a_backend():
    for backends in ([], ["looped", "vectorized"], ["looped"]):
        stored = {**_spec().to_dict(), "backends": backends}
        with pytest.raises(ConfigurationError, match="vectorized"):
            CampaignSpec.from_dict(stored)


def test_default_backend_keeps_historical_run_ids():
    spec = _spec()
    (run,) = expand_spec(spec)
    assert run.run_id == (
        "emilia_923_like:tiny:n4:block_jacobi:esr:T1:phi1:worst_case(location=start):rep0"
    )
    assert run.seed == derive_seed(spec.seed, run.run_id)


def test_legacy_records_load_with_default_backend():
    payload = {
        "run_id": "x", "problem": "p", "scale": "tiny", "n_nodes": 4,
        "preconditioner": "block_jacobi", "strategy": "esr", "T": 1, "phi": 1,
        "scenario_kind": "failure_free", "scenario_params": {}, "repetition": 0,
        "seed": 0, "converged": True, "iterations": 10,
        "executed_iterations": 10, "relative_residual": 1e-9,
        "modeled_time": 1.0, "recovery_time": 0.0, "wall_time": 0.1,
        "reference_time": 1.0, "reference_iterations": 10,
        "total_overhead": 0.0, "recovery_overhead": 0.0, "n_failures": 0,
        "failure_iterations": (), "solution_error": 0.0,
    }
    for backend in (None, "vectorized", "looped"):
        stored = payload if backend is None else {**payload, "backend": backend}
        record = CampaignRunRecord.from_dict(stored)
        assert "backend" not in record.to_dict()
        assert record == CampaignRunRecord.from_dict(payload)


def test_compare_communication_deltas():
    result = execute_campaign(_spec(), workers=0)
    rows = result.compare_communication(result)
    assert rows
    channels = {row["channel"] for row in rows}
    assert "spmv_halo" in channels
    for row in rows:
        assert "backend" not in row
        assert row["delta_bytes"] == 0
        assert row["delta_messages"] == 0
        assert row["rel_bytes"] == 0 or row["rel_bytes"] is None
    text = result.render_communication_comparison(result)
    assert "spmv_halo" in text
    assert "[vectorized]" not in text
