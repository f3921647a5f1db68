"""Tests for periodic residual replacement (Van der Vorst & Ye)."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import STRATEGIES, register_strategy
from repro.cluster import FailureSchedule, VirtualCluster, zero_cost_model
from repro.core import make_strategy
from repro.distribution import BlockRowPartition, DistributedMatrix
from repro.exceptions import ConfigurationError
from repro.solvers import drift_from_result
from repro.preconditioners import make_preconditioner
from repro.solvers import NoResilience, PCGEngine, SolveOptions
from repro.solvers.residual_replacement import ResidualReplacer


def build_engine(matrix, b, strategy=None, n_nodes=4):
    cluster = VirtualCluster(n_nodes, cost_model=zero_cost_model(), seed=0)
    partition = BlockRowPartition.uniform(matrix.shape[0], n_nodes)
    dmatrix = DistributedMatrix(cluster, partition, matrix)
    return PCGEngine(
        matrix=dmatrix,
        b=b,
        preconditioner=make_preconditioner("block_jacobi"),
        strategy=strategy or NoResilience(),
        options=SolveOptions(rtol=1e-10),
    )


@pytest.fixture(scope="module")
def problem():
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
    return matrix, b


class TestResidualReplacer:
    def test_still_converges_to_solution(self, problem):
        matrix, b = problem
        replacer = ResidualReplacer(NoResilience(), interval=10)
        result = build_engine(matrix, b, replacer.attach()).solve()
        assert result.converged
        true_res = np.linalg.norm(b - matrix @ result.x) / np.linalg.norm(b)
        assert true_res < 1e-8
        assert replacer.replacements > 0

    def test_replacement_counts(self, problem):
        matrix, b = problem
        replacer = ResidualReplacer(NoResilience(), interval=25)
        result = build_engine(matrix, b, replacer.attach()).solve()
        assert replacer.replacements == (result.iterations - 1) // 25

    def test_reduces_drift_magnitude(self, problem):
        matrix, b = problem
        plain = build_engine(matrix, b).solve()
        strategy = ResidualReplacer(NoResilience(), interval=10).attach()
        replaced = build_engine(matrix, b, strategy).solve()
        drift_plain = abs(drift_from_result(matrix, b, plain))
        drift_replaced = abs(drift_from_result(matrix, b, replaced))
        # replacement keeps |r| honest: drift must not grow, and is
        # usually smaller
        assert drift_replaced <= drift_plain * 1.5 + 1e-12

    def test_composes_with_resilience(self, problem):
        matrix, b = problem
        from repro.core import ESRPStrategy

        plain = build_engine(matrix, b).solve()
        strategy = ResidualReplacer(ESRPStrategy(T=10, phi=1), interval=15).attach()
        engine = build_engine(matrix, b, strategy)
        engine.failures = FailureSchedule([repro.FailureEvent(22, (1,))])
        result = engine.solve()
        assert result.converged
        np.testing.assert_allclose(result.x, plain.x, atol=1e-7)

    def test_invalid_interval(self):
        with pytest.raises(ConfigurationError):
            ResidualReplacer(NoResilience(), interval=0)


@pytest.fixture()
def replaced_esrp():
    """``esrp`` wrapped in a 25-iteration replacer, as a registered strategy.

    Yields the replacers built so far, one per solve.
    """
    replacers = []

    @register_strategy("replaced_esrp_test", overwrite=True)
    def build(interval=25, **params):
        replacers.append(ResidualReplacer(make_strategy("esrp", **params), interval))
        return replacers[-1].attach()

    yield replacers
    STRATEGIES.unregister("replaced_esrp_test")


def test_replacement_counts_and_never_replays(problem, replaced_esrp):
    """A failure-free ``esrp`` solve retraces the reference and replays;
    a replaced one leaves it, so it must run for real even when the
    session holds the reference."""
    matrix, b = problem
    request = repro.SolveRequest(strategy="replaced_esrp_test", T=10)
    warm = repro.SolverSession(matrix, b, n_nodes=4)
    warm.reference()
    plain = warm.solve(dataclasses.replace(request, strategy="esrp")).result
    assert plain.replayed_iterations > 0
    replaced = warm.solve(request).result
    fresh = repro.SolverSession(matrix, b, n_nodes=4).solve(request).result
    assert replaced.replayed_iterations == 0
    assert replaced_esrp[0].replacements == (replaced.iterations - 1) // 25 > 0
    assert replaced.x.tobytes() == fresh.x.tobytes()
    assert replaced.iterations == fresh.iterations
    assert replaced.residual_history == fresh.residual_history
    assert replaced.modeled_time == fresh.modeled_time


class TestSwitchAwareDestinations:
    def test_avoids_same_leaf(self):
        from repro.cluster.topology import FatTree
        from repro.distribution import switch_aware_destinations

        topology = FatTree(16, radix=4)
        for src in range(16):
            dests = switch_aware_destinations(src, 3, 16, topology)
            assert len(dests) == 3
            assert all(topology.leaf_of(d) != topology.leaf_of(src) for d in dests)

    def test_falls_back_when_cluster_is_one_leaf(self):
        from repro.cluster.topology import FatTree
        from repro.distribution import switch_aware_destinations

        topology = FatTree(4, radix=8)  # everything under one switch
        dests = switch_aware_destinations(0, 2, 4, topology)
        assert len(dests) == 2  # fallback to same-leaf candidates

    def test_switch_fault_recoverable_only_with_awareness(self, problem):
        """A whole-switch fault kills Eq.(1) copies but not switch-aware ones."""
        from repro.cluster.topology import FatTree
        from repro.events import EventKind

        matrix, b = problem
        topology = FatTree(8, radix=2)
        ranks = topology.ranks_under_leaf(1)  # (2, 3): a whole switch

        def run(destinations):
            cluster = VirtualCluster(8, topology=topology, cost_model=zero_cost_model())
            partition = BlockRowPartition.uniform(matrix.shape[0], 8)
            dmatrix = DistributedMatrix(cluster, partition, matrix)
            from repro.core import ESRStrategy

            engine = PCGEngine(
                matrix=dmatrix,
                b=b,
                preconditioner=make_preconditioner("block_jacobi"),
                strategy=ESRStrategy(phi=2, destinations=destinations),
                options=SolveOptions(rtol=1e-8),
                failures=FailureSchedule([repro.FailureEvent(30, ranks)]),
            )
            return engine.solve()

        aware = run("switch_aware")
        naive = run("eq1")
        assert aware.converged and naive.converged
        # with Eq.(1), rank 2's copies live at ranks 1 and 3 — rank 3
        # died with it, and the natural halo piece at rank 1 is partial,
        # so recovery may fall back to a full restart; switch-aware
        # placement never needs to.
        assert aware.events.first(EventKind.RESTART) is None

    def test_unknown_policy_rejected(self, problem):
        matrix, b = problem
        with pytest.raises(ConfigurationError):
            repro.solve(matrix, b, n_nodes=4, strategy="esr", destinations="astral")
