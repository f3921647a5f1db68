"""ASpMV redundancy plans are built once per session and shared safely.

A session's ESR and ESRP solves fetch their
:class:`~repro.distribution.aspmv.RedundancyPlan` (with its flat cache
and compiled exchange) from the session's matrix plan, keyed by
(ϕ, rule, destinations).  Interleaving ``esr`` ϕ = 1, ``esrp`` ϕ = 2 and
``esr`` ϕ = 1 solves on one session, with and without failures, must
build each key's plan once, leave no solve's stashes in another's, and
report exactly what the same request reports on a fresh session.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import SolveRequest, SolverSession
from repro.cluster.failures import FailureEvent
from repro.distribution import aspmv

N_NODES = 8
REQUESTS = (
    SolveRequest(strategy="esr", phi=1),
    SolveRequest(strategy="esrp", T=10, phi=2),
    SolveRequest(strategy="esr", phi=1),
    SolveRequest(strategy="esr", phi=1, failures=(FailureEvent(17, (3,)),)),
    SolveRequest(strategy="esrp", T=10, phi=2, failures=(FailureEvent(34, (1, 2)),)),
    SolveRequest(strategy="esr", phi=1, failures=(FailureEvent(40, (6,)),)),
    SolveRequest(strategy="esrp", T=10, phi=2),
)


@pytest.fixture(scope="module")
def problem():
    return repro.matrices.load("emilia_923_like", scale="tiny")


def _comparable(report) -> dict:
    data = report.to_dict()
    del data["wall_time"]
    return data


def _stashes(session: SolverSession) -> list[np.ndarray]:
    """Every stashed value array the session's nodes hold now."""
    return [
        values
        for node in session.cluster.nodes
        for per_owner in node.redundancy.values()
        for _indices, values in per_owner.values()
    ]


def test_interleaved_solves_share_plans_but_not_stashes(problem, monkeypatch):
    matrix, b, _meta = problem
    expected = [
        SolverSession(matrix, b, n_nodes=N_NODES).solve(request) for request in REQUESTS
    ]

    built = []
    build_plan = aspmv.RedundancyPlan.__init__
    build_cache = aspmv.FlatRedundancyCache.__init__

    def counting_plan(self, plan, phi, rule="paper", destinations="eq1", topology=None):
        built.append(("plan", phi, rule, destinations))
        build_plan(self, plan, phi, rule=rule, destinations=destinations, topology=topology)

    def counting_cache(self, redundancy):
        built.append(("cache", redundancy.phi_requested, redundancy.rule,
                      redundancy.destination_policy))
        build_cache(self, redundancy)

    monkeypatch.setattr(aspmv.RedundancyPlan, "__init__", counting_plan)
    monkeypatch.setattr(aspmv.FlatRedundancyCache, "__init__", counting_cache)

    session = SolverSession(matrix, b, n_nodes=N_NODES)
    earlier: list[tuple[np.ndarray, np.ndarray]] = []  # (held array, its values then)
    for request, fresh in zip(REQUESTS, expected):
        report = session.solve(request)
        assert _comparable(report) == _comparable(fresh)
        np.testing.assert_array_equal(report.x, fresh.x)
        held = _stashes(session)
        assert held, "an ESR/ESRP solve leaves its last stashes on the nodes"
        for old, values in earlier:
            # No earlier solve's stash was written since, or is held now.
            np.testing.assert_array_equal(old, values)
            assert not any(np.shares_memory(old, new) for new in held)
        earlier.extend((array, array.copy()) for array in held)

    keys = [("paper", "eq1", 1), ("paper", "eq1", 2)]
    assert sorted(built) == sorted(
        (stage, phi, rule, destinations)
        for stage in ("cache", "plan")
        for rule, destinations, phi in keys
    )
    plans = session.matrix.plan._redundancy_plans
    assert sorted(plans) == [(1, "paper", "eq1"), (2, "paper", "eq1")]
    for redundancy in plans.values():
        assert redundancy.flat_cache().compiled is not None
