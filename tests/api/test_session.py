"""SolverSession: setup reuse, reference caching, shim equivalence."""

import gc

import numpy as np
import pytest

import repro
from repro.api import SolveRequest, SolverSession, solve_many
from repro.cluster import VirtualCluster, zero_cost_model
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def problem():
    return repro.matrices.load("emilia_923_like", scale="tiny")


class TestSetupReuse:
    def test_setup_events_counted_once_across_three_solves(self, problem):
        """Acceptance: >= 3 solves, setup and reference computed exactly once."""
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        requests = [
            SolveRequest(strategy="esr", phi=1),
            SolveRequest(strategy="esrp", T=10, phi=1),
            SolveRequest(strategy="imcr", T=10, phi=1),
        ]
        reports = session.solve_many(requests, with_reference=True)
        assert all(report.converged for report in reports)
        assert session.setup_events["cluster"] == 1
        assert session.setup_events["matrix"] == 1
        assert session.setup_events["preconditioner"] == 1
        assert session.setup_events["reference"] == 1
        # 3 requested solves + the one cached reference run
        assert session.setup_events["solve"] == 4

    def test_setup_seconds_accumulate_only_where_setup_happens(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        assert session.setup_seconds == {
            "matrix": 0.0, "preconditioner": 0.0, "reference": 0.0
        }
        session.solve(SolveRequest(strategy="esr", phi=1))
        cold = dict(session.setup_seconds)
        assert cold["matrix"] > 0.0 and cold["preconditioner"] > 0.0
        assert cold["reference"] == 0.0  # no reference was asked for
        session.solve(SolveRequest(strategy="esr", phi=1), with_reference=True)
        warm = dict(session.setup_seconds)
        assert warm["reference"] > 0.0
        # The reference solve reused the factorisation: stages do not nest.
        assert (warm["matrix"], warm["preconditioner"]) == (
            cold["matrix"], cold["preconditioner"]
        )
        session.solve(SolveRequest(strategy="esrp", T=10, phi=1), with_reference=True)
        assert session.setup_seconds == warm  # warm solves set nothing up

    def test_reference_cached_per_preconditioner_and_rtol(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        first = session.reference()
        again = session.reference()
        assert again is first  # cache hit, not a recompute
        other = session.reference(preconditioner="jacobi")
        assert other is not first
        assert session.setup_events["reference"] == 2

    def test_distinct_preconditioners_factorised_separately(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        session.solve(SolveRequest(strategy="esr", preconditioner="jacobi"))
        session.solve(SolveRequest(strategy="esr", preconditioner="block_jacobi"))
        session.solve(SolveRequest(
            strategy="esr", preconditioner="block_jacobi",
            precond_params={"max_block_size": 5},
        ))
        assert session.setup_events["preconditioner"] == 3

    def test_from_problem_constructor(self):
        session = SolverSession.from_problem("emilia_923_like", scale="tiny",
                                             n_nodes=4)
        assert session.meta is not None
        assert session.meta.name == "emilia_923_like"
        report = session.solve(SolveRequest(strategy="esr"))
        assert report.converged


class TestShimEquivalence:
    def test_session_solve_matches_one_shot_solve(self, problem):
        """Session reuse must not change results: bit-identical to the shim."""
        matrix, b, _meta = problem
        failure = repro.FailureEvent(iteration=30, ranks=(0, 1))
        one_shot = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10,
                               phi=2, failures=[failure], seed=3)

        session = SolverSession(matrix, b, n_nodes=4, seed=3)
        # pollute the session with unrelated prior work, then re-solve
        session.solve(SolveRequest(strategy="imcr", T=5, phi=1, seed=11))
        report = session.solve(SolveRequest(strategy="esrp", T=10, phi=2,
                                            failures=[failure], seed=3))
        assert report.modeled_time == one_shot.modeled_time
        assert report.iterations == one_shot.iterations
        assert np.array_equal(report.x, one_shot.x)
        assert report.stats == one_shot.stats

    def test_solve_shim_validates_eagerly(self, problem):
        matrix, b, _meta = problem
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            repro.solve(matrix, b, strategy="not_a_strategy")
        with pytest.raises(ConfigurationError, match="unknown preconditioner"):
            repro.solve(matrix, b, preconditioner="not_a_precond")
        with pytest.raises(ConfigurationError, match="maxiter"):
            repro.solve(matrix, b, maxiter=0)
        with pytest.raises(ConfigurationError, match="phi=4 out of range"):
            repro.solve(matrix, b, n_nodes=4, phi=4)

    def test_default_request_inherits_session_seed(self, problem):
        """A request without an explicit seed runs on the session's seed."""
        from repro.cluster import CostModel

        matrix, b, _meta = problem
        noisy = CostModel().with_noise(0.05)
        session = SolverSession(matrix, b, n_nodes=4, cost_model=noisy, seed=123)
        report = session.solve(SolveRequest(strategy="esr"))
        expected = repro.solve(matrix, b, n_nodes=4, strategy="esr",
                               cost_model=noisy, seed=123)
        assert report.modeled_time == expected.modeled_time
        other = repro.solve(matrix, b, n_nodes=4, strategy="esr",
                            cost_model=noisy, seed=0)
        assert report.modeled_time != other.modeled_time

    def test_adopted_cluster_clock_continues(self, problem):
        """repro.solve(cluster=...) semantics: clock/stats carry across calls."""
        matrix, b, _meta = problem
        cluster = VirtualCluster(4, seed=0)
        first = repro.solve(matrix, b, cluster=cluster, strategy="esr")
        second = repro.solve(matrix, b, cluster=cluster, strategy="esr")
        assert second.modeled_time > first.modeled_time


class TestSolveMany:
    def test_batch_validates_before_running(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        good = SolveRequest(strategy="esr")
        bad = SolveRequest(strategy="esr", phi=2, n_nodes=8)  # wrong cluster
        with pytest.raises(ConfigurationError, match="targets n_nodes=8"):
            session.solve_many([good, bad])
        assert session.setup_events["solve"] == 0  # nothing ran

    def test_module_level_convenience(self, problem):
        matrix, b, _meta = problem
        reports = solve_many(
            matrix, b,
            [SolveRequest(strategy="esr"), SolveRequest(strategy="imcr", T=10)],
            n_nodes=4, with_reference=True,
        )
        assert len(reports) == 2
        assert all(r.converged for r in reports)
        assert all(r.total_overhead is not None for r in reports)

    def test_rejects_non_request_items(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        with pytest.raises(ConfigurationError, match="expects SolveRequest"):
            session.solve_many([{"strategy": "esr"}])


class TestReports:
    def test_overhead_fields_only_with_reference(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        plain = session.solve(SolveRequest(strategy="esr"))
        assert plain.total_overhead is None
        compared = session.solve(SolveRequest(strategy="esr"),
                                 with_reference=True)
        assert compared.total_overhead is not None
        assert compared.reference_iterations == session.reference().C

    def test_report_channel_stats_present(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4,
                                cost_model=zero_cost_model())
        report = session.solve(SolveRequest(strategy="esr", phi=1))
        assert report.stats["bytes[spmv_halo]"] > 0
        assert report.stats["bytes[aspmv_extra]"] >= 0

    def test_exact_reconstruction_reported(self, problem):
        matrix, b, _meta = problem
        session = SolverSession(matrix, b, n_nodes=4)
        C = session.reference().C
        report = session.solve(
            SolveRequest(strategy="esrp", T=10, phi=2,
                         failures=[(C // 2, (1, 2))]),
            with_reference=True,
        )
        assert report.converged
        assert report.n_failures == 1
        assert report.solution_error < 1e-10


@pytest.mark.parametrize("strategy", ["esrp", "imcr", "pv"])
def test_a_solve_leaves_no_reference_cycle_behind(problem, strategy):
    """The engine and its state vectors are freed as the solve returns,
    not at a later cyclic collection: many solves in a row would
    otherwise hold many dead engines at once."""
    matrix, b, _meta = problem
    session = SolverSession(matrix, b, n_nodes=4)
    session.reference()
    request = SolveRequest(strategy=strategy, T=10)
    session.solve(request)
    gc.collect()
    gc.disable()
    try:
        session.solve(request)  # esrp and imcr replay, pv runs for real
        assert gc.collect() == 0
    finally:
        gc.enable()
