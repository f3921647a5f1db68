"""Property: each node's running redundancy byte count is the re-summed one.

:attr:`~repro.cluster.node.NodeState.redundancy_nbytes` is kept up to
date by the methods that fill and empty a node's stores, and footprint
snapshots read it instead of re-summing every array.  For random
``esr``, ``esrp``, ``imcr``, ``lossy_imcr`` and ``pv`` solves under
failure-free, worst-case, storm and churn schedules (lossy-checkpoint
and silent-corruption ones for ``lossy_imcr`` and ``pv``) — solved
twice in one session, so the second runs replayed or fast-forwarded
where the strategy allows — the running
count must equal :meth:`~repro.cluster.node.NodeState.redundancy_bytes`
on the node just changed after every store, stash, eviction,
checkpoint, wipe and revive, on every node at every footprint snapshot
(each storage stage and checkpoint), failure and replacement, and at
the end of the solve.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule
from repro.cluster import VirtualCluster
from repro.cluster.node import NodeState
from repro.matrices import poisson_2d

NODE_MUTATORS = (
    "keep", "hold_redundant", "drop_redundant",
    "hold_checkpoint", "wipe", "revive",
)
CLUSTER_EVENTS = ("snapshot_redundancy_footprint", "fail", "replace")
SCENARIOS = {
    "esr": ("failure_free", "worst_case", "storm", "churn"),
    "esrp": ("failure_free", "worst_case", "storm", "churn"),
    "imcr": ("failure_free", "worst_case", "storm", "churn"),
    "lossy_imcr": ("failure_free", "lossy"),
    "pv": ("failure_free", "sdc", "fraction"),
}
cells = st.sampled_from(sorted(SCENARIOS)).flatmap(
    lambda strategy: st.tuples(st.just(strategy), st.sampled_from(SCENARIOS[strategy]))
)


def _consistent(node: NodeState) -> None:
    assert node.redundancy_nbytes == node.redundancy_bytes(), (
        f"rank {node.rank}: running {node.redundancy_nbytes} "
        f"!= re-summed {node.redundancy_bytes()}"
    )


@pytest.fixture(scope="module")
def checked():
    """Every node mutator and cluster event checks the running count."""
    patch = pytest.MonkeyPatch()
    counts = {"node": 0, "cluster": 0}

    def node_checked(method):
        def wrapper(self, *args, **kwargs):
            method(self, *args, **kwargs)
            counts["node"] += 1
            _consistent(self)
        return wrapper

    def cluster_checked(method):
        def wrapper(self, *args, **kwargs):
            out = method(self, *args, **kwargs)
            counts["cluster"] += 1
            for node in self.nodes:
                _consistent(node)
            return out
        return wrapper

    for name in NODE_MUTATORS:
        patch.setattr(NodeState, name, node_checked(getattr(NodeState, name)))
    for name in CLUSTER_EVENTS:
        patch.setattr(VirtualCluster, name, cluster_checked(getattr(VirtualCluster, name)))
    yield counts
    patch.undo()


@pytest.fixture(scope="module")
def sessions():
    matrix = poisson_2d(8)
    b = matrix @ np.random.default_rng(5).standard_normal(matrix.shape[0])
    return {
        n_nodes: repro.SolverSession(matrix, b, n_nodes=n_nodes, seed=3)
        for n_nodes in (4, 8)
    }


@settings(max_examples=25, deadline=None)
@given(
    cell=cells,
    n_nodes=st.sampled_from([4, 8]),
    T=st.sampled_from([3, 5]),
    phi=st.integers(1, 3),
    seed=st.integers(0, 50),
)
def test_running_count_equals_resummed_count(checked, sessions, cell, n_nodes, T, phi, seed):
    strategy, scenario = cell
    session = sessions[n_nodes]
    reference = session.reference()
    ctx = ScenarioContext(
        n_nodes=n_nodes, phi=phi, strategy=strategy, T=T,
        reference_iterations=reference.C, seed=seed,
    )
    request = repro.SolveRequest(
        strategy=strategy, T=T, phi=phi,
        failures=generate_schedule(ScenarioSpec.make(scenario), ctx),
    )
    before = dict(checked)
    for _ in range(2):
        report = session.solve(request)
        for node in session.cluster.nodes:
            _consistent(node)
    assert checked["node"] > before["node"]
    if strategy != "esr":
        assert report.stats["peak_redundancy_bytes"] > 0
