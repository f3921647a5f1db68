"""ESR / ESRP / IMCR recovery behaviour, exactness and edge cases.

The central claims of the paper that these tests pin down:

* exact state reconstruction recovers the *same trajectory* as the
  undisturbed solver (iterates agree to floating-point noise),
* ESRP rolls back to the last completed storage stage (T-2 wasted
  iterations in the worst case), ESR rolls back nothing,
* IMCR rolls back to the last checkpoint,
* early failures (before any recovery data exists) fall back to a
  restart from the initial guess and still converge.
"""

import numpy as np
import pytest

import repro
from repro.cluster import FailureEvent, FailureSchedule, zero_cost_model
from repro.core import ESRPStrategy, ESRStrategy, IMCRStrategy, make_strategy
from repro.events import EventKind
from repro.exceptions import ConfigurationError, ReconstructionUnsupportedError
from repro.matrices import random_banded_spd
from repro.preconditioners import make_preconditioner
from repro.solvers import PCGEngine, SolveOptions

from ..conftest import make_distributed

N_NODES = 4


@pytest.fixture(scope="module")
def problem():
    # emilia-tiny: C ≈ 80 iterations, so failure points around C/2 and
    # multi-interval schedules all fit comfortably before convergence.
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
    return matrix, b


def run(problem, strategy, failures=None, precond="block_jacobi", **opts):
    matrix, b = problem
    cluster, partition, dmatrix = make_distributed(matrix, N_NODES)
    engine = PCGEngine(
        matrix=dmatrix,
        b=b,
        preconditioner=make_preconditioner(precond),
        strategy=strategy,
        options=SolveOptions(rtol=1e-9, **opts),
        failures=FailureSchedule(failures or []),
    )
    return engine.solve()


@pytest.fixture(scope="module")
def reference(problem):
    return run(problem, repro.solvers.NoResilience())


class TestESR:
    def test_failure_free_same_trajectory(self, problem, reference):
        result = run(problem, ESRStrategy(phi=1))
        assert result.iterations == reference.iterations
        assert np.allclose(result.x, reference.x)

    @pytest.mark.parametrize("phi,ranks", [(1, (1,)), (2, (1, 2)), (3, (0, 1, 2))])
    def test_recovery_is_exact(self, problem, reference, phi, ranks):
        mid = reference.iterations // 2
        result = run(problem, ESRStrategy(phi=phi), [FailureEvent(mid, ranks)])
        assert result.converged
        assert result.iterations == reference.iterations
        assert result.wasted_iterations == 0  # ESR loses no work
        assert np.allclose(result.x, reference.x, atol=1e-9)

    def test_failure_at_iteration_zero_restarts(self, problem):
        result = run(problem, ESRStrategy(phi=1), [FailureEvent(0, (1,))])
        assert result.converged
        restart = result.events.first(EventKind.RESTART)
        assert restart is not None

    def test_events_record_recovery(self, problem, reference):
        mid = reference.iterations // 2
        result = run(problem, ESRStrategy(phi=1), [FailureEvent(mid, (2,))])
        assert len(result.events.of_kind(EventKind.NODE_FAILURE)) == 1
        assert len(result.events.of_kind(EventKind.RECOVERY_START)) == 1
        assert len(result.events.of_kind(EventKind.RECOVERY_END)) == 1
        assert result.recovery_time >= 0.0

    def test_unsupported_preconditioner_rejected(self, problem):
        with pytest.raises(ReconstructionUnsupportedError):
            run(problem, ESRStrategy(phi=1), precond="polynomial")

    def test_invalid_phi(self):
        with pytest.raises(ConfigurationError):
            ESRStrategy(phi=0)


class TestESRP:
    def test_requires_t_at_least_3(self):
        with pytest.raises(ConfigurationError):
            ESRPStrategy(T=2)

    def test_factory_degenerates_to_esr(self):
        assert isinstance(make_strategy("esrp", T=1), ESRStrategy)
        assert isinstance(make_strategy("esrp", T=2), ESRStrategy)
        assert isinstance(make_strategy("esrp", T=5), ESRPStrategy)

    def test_failure_free_same_trajectory(self, problem, reference):
        result = run(problem, ESRPStrategy(T=10, phi=2))
        assert result.iterations == reference.iterations
        assert np.allclose(result.x, reference.x)

    def test_storage_stages_logged(self, problem, reference):
        result = run(problem, ESRPStrategy(T=10, phi=1))
        stages = result.events.of_kind(EventKind.STORAGE_STAGE)
        first_push = [e for e in stages if e.detail["phase"] == "first_push"]
        complete = [e for e in stages if e.detail["phase"] == "complete"]
        assert first_push and complete
        assert all(e.iteration % 10 == 0 for e in first_push)
        assert all((e.iteration - 1) % 10 == 0 for e in complete)

    @pytest.mark.parametrize("T", [5, 10])
    @pytest.mark.parametrize("phi,ranks", [(1, (2,)), (2, (0, 1))])
    def test_recovery_rolls_back_to_stage(self, problem, reference, T, phi, ranks):
        C = reference.iterations
        # place the failure 2 iterations before the end of the interval
        # containing C/2 (the paper's worst case)
        from repro.harness import place_worst_case_failure

        j_fail = place_worst_case_failure("esrp", T, C)
        result = run(problem, ESRPStrategy(T=T, phi=phi), [FailureEvent(j_fail, ranks)])
        assert result.converged
        assert result.iterations == reference.iterations
        assert result.wasted_iterations == T - 2
        assert np.allclose(result.x, reference.x, atol=1e-8)

    def test_failure_during_storage_stage_uses_previous_stage(self, problem, reference):
        # fail exactly at j = 2T (first push of a stage done, second not):
        # recovery must target the previous stage's completion T+1.
        T = 10
        result = run(problem, ESRPStrategy(T=T, phi=1), [FailureEvent(2 * T, (1,))])
        assert result.converged
        rollback = result.events.first(EventKind.ROLLBACK)
        assert rollback.detail["resume_iteration"] == T + 1
        assert np.allclose(result.x, reference.x, atol=1e-8)

    def test_failure_right_after_stage_completion(self, problem, reference):
        T = 10
        result = run(problem, ESRPStrategy(T=T, phi=1), [FailureEvent(T + 1, (1,))])
        assert result.converged
        rollback = result.events.first(EventKind.ROLLBACK)
        assert rollback.detail["resume_iteration"] == T + 1
        assert result.wasted_iterations == 0

    def test_early_failure_restarts(self, problem):
        result = run(problem, ESRPStrategy(T=10, phi=1), [FailureEvent(3, (1,))])
        assert result.converged
        assert result.events.first(EventKind.RESTART) is not None

    def test_two_failures_in_different_intervals(self, problem, reference):
        T = 8
        C = reference.iterations
        events = [FailureEvent(T + 3, (1,)), FailureEvent(3 * T + 2, (2,))]
        result = run(problem, ESRPStrategy(T=T, phi=1), events)
        assert result.converged
        assert np.allclose(result.x, reference.x, atol=1e-8)
        assert len(result.events.of_kind(EventKind.NODE_FAILURE)) == 2

    def test_unsupported_preconditioner_rejected(self, problem):
        with pytest.raises(ReconstructionUnsupportedError):
            run(problem, ESRPStrategy(T=10, phi=1), precond="polynomial")


class TestIMCR:
    def test_failure_free_same_trajectory(self, problem, reference):
        result = run(problem, IMCRStrategy(T=10, phi=1))
        assert result.iterations == reference.iterations
        assert np.allclose(result.x, reference.x)

    def test_checkpoints_logged(self, problem):
        result = run(problem, IMCRStrategy(T=10, phi=2))
        checkpoints = result.events.of_kind(EventKind.CHECKPOINT)
        assert checkpoints
        assert all(e.iteration % 10 == 0 for e in checkpoints)

    @pytest.mark.parametrize("phi,ranks", [(1, (1,)), (2, (2, 3)), (3, (1, 2, 3))])
    def test_recovery_rolls_back_to_checkpoint(self, problem, reference, phi, ranks):
        T = 10
        from repro.harness import place_worst_case_failure

        j_fail = place_worst_case_failure("imcr", T, reference.iterations)
        result = run(problem, IMCRStrategy(T=T, phi=phi), [FailureEvent(j_fail, ranks)])
        assert result.converged
        assert result.iterations == reference.iterations
        assert result.wasted_iterations == T - 2
        assert np.allclose(result.x, reference.x, atol=1e-10)

    def test_rollback_is_bitwise_exact(self, problem, reference):
        # IMCR restores checkpmemointed data verbatim: the trajectory is
        # bit-identical to the undisturbed run, not merely close.
        result = run(problem, IMCRStrategy(T=10, phi=1), [FailureEvent(15, (1,))])
        assert result.iterations == reference.iterations
        assert np.array_equal(result.x, reference.x)

    def test_early_failure_restarts(self, problem):
        result = run(problem, IMCRStrategy(T=10, phi=1), [FailureEvent(4, (2,))])
        assert result.converged
        assert result.events.first(EventKind.RESTART) is not None

    def test_rollback_after_a_buddyless_restart_restarts_again(self, problem, reference):
        # Rank 1 dies and loses its buddy copy of rank 0; rank 0 then dies
        # with no buddy copy left, so the solve restarts and rank 0's
        # replacement holds no checkpoint.  A later failure must not
        # roll back to the checkpoint rank 0 no longer has.
        failures = [FailureEvent(10, (1,)), FailureEvent(11, (0,)), FailureEvent(12, (2,))]
        result = run(problem, IMCRStrategy(T=10, phi=1), failures)
        assert len(result.events.of_kind(EventKind.RESTART)) == 2
        assert result.iterations == reference.iterations
        assert np.array_equal(result.x, reference.x)

    def test_works_with_polynomial_preconditioner(self, problem):
        result = run(
            problem,
            IMCRStrategy(T=10, phi=1),
            [FailureEvent(15, (1,))],
            precond="polynomial",
        )
        assert result.converged

    def test_imcr_reconstruction_cost_is_communication_only(self, problem, reference):
        result = run(problem, IMCRStrategy(T=10, phi=1), [FailureEvent(15, (1,))])
        # recovery happens, but involves no inner solves: the recovery
        # span should be tiny compared to ESRP's
        assert result.recovery_time >= 0.0
        end = result.events.last(EventKind.RECOVERY_END)
        assert "inner_iterations" not in end.detail

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            IMCRStrategy(T=0)
        with pytest.raises(ConfigurationError):
            IMCRStrategy(T=5, phi=0)


class TestScheduleInteraction:
    def test_consumed_event_does_not_retrigger_after_rollback(self, problem):
        # ESRP rolls back past the failure iteration; the event must not
        # fire again when the iteration is re-executed.
        T = 10
        result = run(problem, ESRPStrategy(T=T, phi=1), [FailureEvent(2 * T - 1, (1,))])
        assert len(result.events.of_kind(EventKind.NODE_FAILURE)) == 1
        assert result.converged
