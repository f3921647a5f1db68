"""Periodic-verification CG: SDC detection, rollback, and recovery paths.

The contract (arXiv:1511.04478 adapted to the engine): every T-th
iteration ``pv`` recomputes the true residual b − A·x and compares it
against the recursive residual; a gap above the threshold rejects the
iteration — backward mode rolls back to the last verified checkpoint,
forward mode adopts the true residual and restarts the direction.
Strategies without verification converge on the (consistent) recursive
residual while the corrupted x silently drifts from the true solution.
"""

import numpy as np
import pytest

import repro
from repro.cluster.failures import FailureSchedule
from repro.faults import SDCEvent
from repro.matrices import poisson_2d

pytestmark = pytest.mark.smoke

N_NODES = 4


@pytest.fixture(scope="module")
def problem():
    matrix = poisson_2d(16)
    b = np.ones(matrix.shape[0])
    reference = repro.solve(matrix, b, n_nodes=N_NODES, strategy="reference")
    return matrix, b, reference


def corruption(iteration, magnitude=1e-2):
    """A deterministic, comfortably-detectable strike on rank 1's x block."""
    return FailureSchedule([
        SDCEvent(iteration=iteration, rank=1, vector="x", mode="scale",
                 magnitude=magnitude, seed=42),
    ])


class TestDetection:
    def test_pv_detects_and_recovers(self, problem):
        matrix, b, reference = problem
        result = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy="pv", T=10, phi=1,
            failures=corruption(12),
        )
        assert result.converged
        assert result.stats["faults[sdc]"] == 1
        assert result.stats["faults[sdc_detected]"] == 1
        assert result.stats["faults[rollback]"] >= 1
        assert result.stats["faults[verification]"] >= 1
        # rollback re-executes work: more iterations run than counted
        assert result.executed_iterations > result.iterations
        error = np.linalg.norm(result.x - reference.x) / np.linalg.norm(reference.x)
        assert error < 1e-6

    def test_pv_forward_detects_and_recovers(self, problem):
        matrix, b, reference = problem
        result = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy="pv_forward", T=10, phi=1,
            failures=corruption(12),
        )
        assert result.converged
        assert result.stats["faults[sdc_detected]"] == 1
        error = np.linalg.norm(result.x - reference.x) / np.linalg.norm(reference.x)
        assert error < 1e-6

    def test_blind_strategy_misses_the_corruption(self, problem):
        # ESRP has no verification: the corrupted x silently converges
        # (the recursive residual stays consistent) to a wrong solution.
        matrix, b, reference = problem
        blind = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy="esrp", T=10, phi=1,
            failures=corruption(12),
        )
        assert blind.converged
        assert blind.stats["faults[sdc]"] == 1
        assert "faults[sdc_detected]" not in blind.stats
        checked = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy="pv", T=10, phi=1,
            failures=corruption(12),
        )
        blind_error = np.linalg.norm(blind.x - reference.x)
        checked_error = np.linalg.norm(checked.x - reference.x)
        assert blind_error > 100 * checked_error

    def test_failure_free_pv_matches_reference_trajectory(self, problem):
        matrix, b, reference = problem
        result = repro.solve(matrix, b, n_nodes=N_NODES, strategy="pv", T=10)
        assert result.converged
        assert result.iterations == reference.iterations
        assert "faults[sdc_detected]" not in result.stats
        error = np.linalg.norm(result.x - reference.x) / np.linalg.norm(reference.x)
        assert error < 1e-10


class TestDeterminism:
    def test_pv_solve_is_reproducible(self, problem):
        matrix, b, _ = problem
        runs = [
            repro.solve(
                matrix, b, n_nodes=N_NODES, strategy="pv", T=10, phi=1,
                failures=corruption(12), seed=5,
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].x, runs[1].x)
        assert runs[0].stats == runs[1].stats
        assert runs[0].executed_iterations == runs[1].executed_iterations


class TestNodeFailureFallback:
    def test_pv_survives_fail_stop_via_restart(self, problem):
        # pv keeps no cross-node redundancy; a fail-stop event degrades
        # to a checkpoint-less restart but must still converge.
        matrix, b, _ = problem
        result = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy="pv", T=10, phi=1,
            failures=[(15, (1,))],
        )
        assert result.converged
        assert result.stats["faults[node_failure]"] == 1
