"""Campaign-level fault contract: determinism and counters.

The acceptance bar of the fault subsystem: an ``sdc`` + ``lossy``
campaign is byte-identical across repeated seeded executions, and the
per-run ``faults[...]`` counters in each record's stats match the
injected schedule exactly (recomputable from the record's own scenario
params and seed).
"""

import dataclasses

import pytest

from repro.campaign import (
    ScenarioContext,
    execute_campaign,
    faults_spec,
    generate_schedule,
)
from repro.faults import SDCEvent

pytestmark = [pytest.mark.campaign, pytest.mark.smoke]


def small_faults_spec(**overrides):
    spec = faults_spec(scale="tiny", repetitions=1, n_nodes=4)
    base = dict(
        problems=(("poisson3d", "tiny"),),
        strategies=tuple(
            s for s in spec.strategies if s.name in ("esrp", "pv", "lossy_imcr")
        ),
    )
    base.update(overrides)
    return dataclasses.replace(spec, **base)


@pytest.fixture(scope="module")
def campaign():
    return execute_campaign(small_faults_spec(), workers=0)


class TestByteIdenticalResults:
    def test_repeated_runs_serialise_identically(self, campaign, tmp_path):
        again = execute_campaign(small_faults_spec(), workers=0)
        a = campaign.to_json(tmp_path / "a.json")
        b = again.to_json(tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_report_has_fault_columns(self, campaign):
        text = campaign.render_summary()
        assert "inj" in text and "det" in text and "rb" in text
        rows = campaign.overhead_rows()
        pv_sdc = [
            r for r in rows if r["strategy"] == "pv" and "sdc" in r["scenario"]
        ]
        assert pv_sdc and pv_sdc[0]["faults_injected"] > 0
        assert pv_sdc[0]["faults_detected"] >= 1
        assert pv_sdc[0]["rollbacks"] >= 1


class TestCountersMatchSchedule:
    def test_injected_counts_recompute_from_record(self, campaign):
        # Every record carries enough identity (scenario params + seed)
        # to regenerate its schedule; the faults[...] counters must
        # agree with it event for event.
        for rec in campaign.records:
            if rec.strategy == "reference":
                continue
            ctx = ScenarioContext(
                n_nodes=rec.n_nodes,
                phi=rec.phi,
                strategy=rec.strategy,
                T=rec.T,
                reference_iterations=rec.reference_iterations,
                seed=rec.seed,
            )
            from repro.campaign import ScenarioSpec

            schedule = generate_schedule(
                ScenarioSpec.make(rec.scenario_kind, **rec.scenario_params), ctx
            )
            sdc = sum(1 for e in schedule if isinstance(e, SDCEvent))
            fail_stop = len(schedule) - sdc
            assert rec.stats.get("faults[sdc]", 0.0) == sdc, rec.run_id
            injected_fail_stop = rec.stats.get(
                "faults[node_failure]", 0.0
            ) + rec.stats.get("faults[churn]", 0.0)
            assert injected_fail_stop == fail_stop, rec.run_id
            # n_failures counts every injected fault event, silent ones
            # included (it is len(request.failures)).
            assert rec.n_failures == len(schedule), rec.run_id
