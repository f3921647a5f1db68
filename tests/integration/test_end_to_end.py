"""End-to-end integration tests of the public API."""

import numpy as np
import pytest

import repro
from repro.cluster import FailureSchedule
from repro.events import EventKind
from repro.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def problem():
    matrix, b, meta = repro.matrices.load("emilia_923_like", scale="tiny")
    return matrix, b


class TestSolveAPI:
    def test_default_strategy_is_esrp(self, problem):
        matrix, b = problem
        result = repro.solve(matrix, b, n_nodes=4)
        assert result.converged
        assert result.strategy == "esrp"

    def test_failures_as_list(self, problem):
        matrix, b = problem
        result = repro.solve(
            matrix, b, n_nodes=4, strategy="esr",
            failures=[repro.FailureEvent(10, (1,))],
        )
        assert result.converged

    def test_failures_as_schedule(self, problem):
        matrix, b = problem
        schedule = FailureSchedule([repro.FailureEvent(10, (1,))])
        result = repro.solve(matrix, b, n_nodes=4, strategy="esr", failures=schedule)
        assert result.converged

    def test_preconditioner_kwargs_forwarded(self, problem):
        matrix, b = problem
        result = repro.solve(
            matrix, b, n_nodes=4, strategy="reference",
            preconditioner="block_jacobi", max_block_size=5,
        )
        assert result.converged

    def test_rtol_respected(self, problem):
        matrix, b = problem
        loose = repro.solve(matrix, b, n_nodes=4, strategy="reference", rtol=1e-4)
        tight = repro.solve(matrix, b, n_nodes=4, strategy="reference", rtol=1e-10)
        assert loose.iterations < tight.iterations

    def test_bad_strategy_name(self, problem):
        matrix, b = problem
        with pytest.raises(ConfigurationError):
            repro.solve(matrix, b, n_nodes=4, strategy="raid6")

    def test_version_exposed(self):
        assert repro.__version__


class TestDeterminism:
    def test_same_seed_same_modeled_time(self, problem):
        matrix, b = problem
        a = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10, seed=3,
                        cost_model=repro.CostModel(noise=0.02))
        c = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10, seed=3,
                        cost_model=repro.CostModel(noise=0.02))
        assert a.modeled_time == c.modeled_time
        assert np.array_equal(a.x, c.x)

    def test_different_noise_seed_changes_time_not_math(self, problem):
        matrix, b = problem
        a = repro.solve(matrix, b, n_nodes=4, seed=1,
                        cost_model=repro.CostModel(noise=0.05))
        c = repro.solve(matrix, b, n_nodes=4, seed=2,
                        cost_model=repro.CostModel(noise=0.05))
        assert a.modeled_time != c.modeled_time
        assert np.array_equal(a.x, c.x)


class TestAccountingConsistency:
    def test_aspmv_traffic_only_for_esr_family(self, problem):
        matrix, b = problem
        esrp = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10, phi=2)
        imcr = repro.solve(matrix, b, n_nodes=4, strategy="imcr", T=10, phi=2)
        assert esrp.stats.get("bytes[aspmv_extra]", 0) > 0
        assert esrp.stats.get("bytes[checkpoint]", 0) == 0
        assert imcr.stats.get("bytes[checkpoint]", 0) > 0
        assert imcr.stats.get("bytes[aspmv_extra]", 0) == 0

    def test_recovery_traffic_only_with_failures(self, problem):
        matrix, b = problem
        quiet = repro.solve(matrix, b, n_nodes=4, strategy="esr", phi=1)
        noisy = repro.solve(
            matrix, b, n_nodes=4, strategy="esr", phi=1,
            failures=[repro.FailureEvent(20, (1,))],
        )
        assert quiet.stats.get("bytes[recovery]", 0) == 0
        assert noisy.stats.get("bytes[recovery]", 0) > 0

    def test_memory_footprint_tracked_for_resilience(self, problem):
        matrix, b = problem
        esrp = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10, phi=2)
        assert esrp.stats["peak_redundancy_bytes"] > 0


class TestEventTimeline:
    def test_event_times_monotone(self, problem):
        matrix, b = problem
        result = repro.solve(
            matrix, b, n_nodes=4, strategy="esrp", T=10, phi=2,
            failures=[repro.FailureEvent(25, (1, 2))],
        )
        times = [e.time for e in result.events]
        assert all(b >= a - 1e-12 for a, b in zip(times, times[1:]))

    def test_rollback_event_has_waste(self, problem):
        matrix, b = problem
        result = repro.solve(
            matrix, b, n_nodes=4, strategy="imcr", T=10, phi=1,
            failures=[repro.FailureEvent(18, (1,))],
        )
        rollback = result.events.first(EventKind.ROLLBACK)
        assert rollback is not None
        assert rollback.detail["wasted"] == 18 - rollback.detail["resume_iteration"]
