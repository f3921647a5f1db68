"""Integration tests of the switch-aware destination policy via the API."""

import numpy as np
import pytest

import repro
from repro.cluster.topology import FatTree


@pytest.fixture(scope="module")
def problem():
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
    return matrix, b


class TestDestinationsThroughSolve:
    def test_switch_aware_produces_same_math(self, problem):
        matrix, b = problem
        eq1 = repro.solve(matrix, b, n_nodes=8, strategy="esr", phi=2)
        aware = repro.solve(
            matrix, b, n_nodes=8, strategy="esr", phi=2,
            destinations="switch_aware",
        )
        # placement changes traffic, never the numerics
        assert aware.iterations == eq1.iterations
        np.testing.assert_array_equal(aware.x, eq1.x)

    def test_switch_aware_survives_whole_switch_with_phi_1(self, problem):
        """§2.2.1's switch fault: ψ = 2 > ϕ = 1 on every leaf of a radix-2 tree.

        Eq. (1) puts a node's copy on its nearest rank, under the same
        leaf switch, so it dies with the node; switch-aware copies live
        under another leaf and recover exactly.
        """
        matrix, b = problem
        session = repro.SolverSession(matrix, b, n_nodes=8, topology=FatTree(8, radix=2))
        topology = session.cluster.topology
        reference = session.reference()
        for leaf in range(topology.n_leaves):
            failures = [repro.FailureEvent(reference.C // 2, topology.ranks_under_leaf(leaf))]
            naive = session.solve(strategy="esr", phi=1, failures=failures).result
            assert naive.events.first(repro.EventKind.RESTART) is not None, leaf
            aware = session.solve(
                strategy="esr", phi=1, destinations="switch_aware", failures=failures
            ).result
            assert aware.converged
            assert aware.events.first(repro.EventKind.RESTART) is None, leaf
            np.testing.assert_allclose(aware.x, reference.x, atol=1e-7)

    def test_esrp_with_switch_aware_failure_free_overhead(self, problem):
        """Cross-leaf extras ship more bytes: overhead ordering holds."""
        matrix, b = problem
        from repro.harness.calibration import BENCH_COST_MODEL

        reference = repro.solve(
            matrix, b, n_nodes=8, strategy="reference", cost_model=BENCH_COST_MODEL
        )
        eq1 = repro.solve(
            matrix, b, n_nodes=8, strategy="esr", phi=1, cost_model=BENCH_COST_MODEL
        )
        aware = repro.solve(
            matrix, b, n_nodes=8, strategy="esr", phi=1,
            destinations="switch_aware", cost_model=BENCH_COST_MODEL,
        )
        assert aware.modeled_time >= eq1.modeled_time > reference.modeled_time
