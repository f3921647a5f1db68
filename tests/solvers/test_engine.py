"""Unit tests for the PCG engine and the reference solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import FailureEvent, FailureSchedule, VirtualCluster, zero_cost_model
from repro.distribution import BlockRowPartition, DistributedMatrix
from repro.events import EventKind
from repro.exceptions import ConfigurationError, ConvergenceError, NodeFailureError
from repro.matrices import poisson_2d, random_banded_spd
from repro.preconditioners import make_preconditioner
from repro.solvers import NoResilience, PCGEngine, SolveOptions

from ..conftest import make_distributed


def build_engine(matrix, n_nodes=4, precond="block_jacobi", options=None, failures=None):
    cluster, partition, dmatrix = make_distributed(matrix, n_nodes)
    rng = np.random.default_rng(42)
    b = matrix @ rng.standard_normal(matrix.shape[0])
    engine = PCGEngine(
        matrix=dmatrix,
        b=b,
        preconditioner=make_preconditioner(precond),
        strategy=NoResilience(),
        options=options,
        failures=failures,
    )
    return engine, b


class TestReferenceSolve:
    def test_matches_direct_solve(self):
        matrix = poisson_2d(8)
        engine, b = build_engine(matrix)
        result = engine.solve()
        assert result.converged
        direct = np.linalg.solve(matrix.toarray(), b)
        assert np.allclose(result.x, direct, atol=1e-5)

    def test_relative_residual_below_rtol(self):
        matrix = random_banded_spd(48, bandwidth=5, seed=3)
        engine, b = build_engine(matrix, options=SolveOptions(rtol=1e-10))
        result = engine.solve()
        assert result.relative_residual < 1e-10
        true_res = np.linalg.norm(b - matrix @ result.x) / np.linalg.norm(b)
        assert true_res < 1e-8

    def test_residual_history_monotone_overall(self):
        matrix = poisson_2d(8)
        engine, _ = build_engine(matrix)
        result = engine.solve()
        assert len(result.residual_history) == result.iterations
        assert result.residual_history[-1] < result.residual_history[0]

    def test_events_bracket_solve(self):
        matrix = poisson_2d(6)
        engine, _ = build_engine(matrix)
        result = engine.solve()
        assert result.events.first(EventKind.SOLVE_START) is not None
        end = result.events.last(EventKind.SOLVE_END)
        assert end is not None and end.detail["converged"]

    def test_x0_initial_guess(self):
        matrix = poisson_2d(8)
        engine, b = build_engine(matrix)
        exact = np.linalg.solve(matrix.toarray(), b)
        result = engine.solve(x0=exact)
        assert result.iterations <= 1

    def test_maxiter_raises_when_required(self):
        matrix = poisson_2d(10)
        engine, _ = build_engine(matrix, options=SolveOptions(maxiter=2))
        with pytest.raises(ConvergenceError):
            engine.solve()

    def test_maxiter_soft_when_not_required(self):
        matrix = poisson_2d(10)
        engine, _ = build_engine(
            matrix, options=SolveOptions(maxiter=2, require_convergence=False)
        )
        result = engine.solve()
        assert not result.converged
        assert result.executed_iterations == 2

    def test_non_spd_detected(self):
        matrix = sp.csr_matrix(np.diag([1.0] * 7 + [-1.0]))
        cluster, partition, dmatrix = make_distributed(matrix, 4)
        engine = PCGEngine(
            matrix=dmatrix,
            b=np.ones(8),
            preconditioner=make_preconditioner("identity"),
            strategy=NoResilience(),
        )
        with pytest.raises(ConvergenceError):
            engine.solve()

    def test_failure_is_fatal_without_resilience(self):
        matrix = poisson_2d(8)
        failures = FailureSchedule([FailureEvent(3, (1,))])
        engine, _ = build_engine(matrix, failures=failures)
        with pytest.raises(NodeFailureError):
            engine.solve()

    def test_modeled_time_positive_with_costs(self):
        from repro.cluster import CostModel

        matrix = poisson_2d(6)
        model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9)
        cluster = VirtualCluster(3, cost_model=model, seed=0)
        partition = BlockRowPartition.uniform(36, 3)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        result = PCGEngine(
            matrix=dmatrix,
            b=np.ones(36),
            preconditioner=make_preconditioner("jacobi"),
            strategy=NoResilience(),
        ).solve()
        assert result.modeled_time > 0
        assert result.stats["total_flops"] > 0

    def test_wasted_iterations_zero_without_failures(self):
        matrix = poisson_2d(6)
        engine, _ = build_engine(matrix)
        result = engine.solve()
        assert result.wasted_iterations == 0
        assert result.recovery_time == 0.0


class TestValidation:
    def test_b_partition_mismatch(self):
        matrix = poisson_2d(6)
        cluster, partition, dmatrix = make_distributed(matrix, 3)
        from repro.distribution import DistributedVector

        other = BlockRowPartition.from_sizes([30, 3, 3])
        bad_b = DistributedVector(cluster, other)
        with pytest.raises(ConfigurationError):
            PCGEngine(
                matrix=dmatrix,
                b=bad_b,
                preconditioner=make_preconditioner("jacobi"),
                strategy=NoResilience(),
            )

    def test_invalid_maxiter(self):
        with pytest.raises(ConfigurationError):
            SolveOptions(maxiter=0).budget(10)

    def test_default_budget(self):
        assert SolveOptions().budget(100) == 1000

    def test_unbound_strategy_rejected(self):
        strategy = NoResilience()
        with pytest.raises(ConfigurationError):
            _ = strategy._engine
