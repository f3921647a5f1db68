"""The ``residual_drift`` record column (Eq. 2 of the paper, Table 4)."""

import dataclasses

import pytest

from repro.api import SolveRequest, SolverSession
from repro.campaign import (
    CampaignResult,
    CampaignRunRecord,
    CampaignSpec,
    ScenarioContext,
    ScenarioSpec,
    StrategySpec,
    execute_campaign,
    generate_schedule,
    run_one,
)
from repro.campaign.spec import expand_spec
from repro.cluster.cost_model import BENCH_COST_MODEL
from repro.solvers import drift_from_result

pytestmark = pytest.mark.campaign


def tiny_spec() -> CampaignSpec:
    return CampaignSpec(
        name="drift-unit",
        problems=(("emilia_923_like", "tiny"),),
        n_nodes=4,
        strategies=(StrategySpec("reference"), StrategySpec("esrp", (10,))),
        phis=(1,),
        scenarios=(
            ScenarioSpec.make("failure_free"),
            ScenarioSpec.make("worst_case", location="center"),
        ),
    )


@pytest.mark.parametrize("kind", ["failure_free", "worst_case"])
def test_column_equals_drift_of_a_direct_session_solve(kind):
    run = next(
        r for r in expand_spec(tiny_spec())
        if r.strategy == "esrp" and r.scenario.kind == kind
    )
    session = SolverSession.from_problem(
        run.problem, scale=run.scale, n_nodes=run.n_nodes,
        cost_model=BENCH_COST_MODEL, seed=run.problem_seed,
        problem_seed=run.problem_seed,
    )
    C = session.reference(preconditioner=run.preconditioner, rtol=run.rtol).C
    failures = generate_schedule(
        run.scenario,
        ScenarioContext(
            n_nodes=run.n_nodes, phi=run.phi, strategy=run.strategy, T=run.T,
            reference_iterations=C, seed=run.seed,
        ),
    )
    report = session.solve(
        SolveRequest(
            strategy=run.strategy, T=run.T, phi=run.phi,
            preconditioner=run.preconditioner, rtol=run.rtol,
            failures=failures, seed=run.seed,
        ),
        with_reference=True,
    )
    record = run_one(run)
    assert record.n_failures == len(failures)
    assert record.residual_drift == drift_from_result(
        session.matrix_csr, session.b, report.result
    )


def test_serial_pooled_and_queued_results_are_byte_identical(tmp_path):
    spec = tiny_spec()
    serial = execute_campaign(spec, workers=0).to_json(tmp_path / "serial.json")
    pooled = execute_campaign(spec, workers=2).to_json(tmp_path / "pooled.json")
    queued = execute_campaign(
        spec, workers=1, queue_dir=tmp_path / "queue"
    ).to_json(tmp_path / "queued.json")
    assert serial.read_bytes() == pooled.read_bytes() == queued.read_bytes()
    records = CampaignResult.from_json(serial).records
    assert all(r.residual_drift is not None for r in records)


def test_records_stored_without_the_column_load_as_none(tmp_path):
    result = execute_campaign(tiny_spec(), workers=0)
    record = result.records[0]
    assert record.residual_drift is not None

    payload = record.to_dict()
    del payload["residual_drift"]
    assert CampaignRunRecord.from_dict(payload).residual_drift is None

    path = result.to_csv(tmp_path / "result.csv")
    header, *rows = path.read_text().splitlines()
    columns = header.split(",")
    assert columns[-1] == "residual_drift"  # the newest column comes last
    old = tmp_path / "old.csv"
    old.write_text(
        "\n".join([",".join(columns[:-1])] + [row.rsplit(",", 1)[0] for row in rows])
        + "\n"
    )
    loaded = CampaignResult.from_csv(old)
    assert len(loaded) == len(result)
    assert all(r.residual_drift is None for r in loaded)
    # A present column round-trips, and an empty cell reads as None.
    assert [r.residual_drift for r in CampaignResult.from_csv(path)] == [
        r.residual_drift for r in result
    ]
    blank = CampaignResult(result.spec, [dataclasses.replace(record, residual_drift=None)])
    (reloaded,) = CampaignResult.from_csv(blank.to_csv(tmp_path / "blank.csv"))
    assert reloaded.residual_drift is None
