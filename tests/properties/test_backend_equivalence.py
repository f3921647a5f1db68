"""Property: the kernel backends are interchangeable, bit for bit.

The acceptance bar of the kernel-backend layer: for every strategy,
preconditioner, ϕ and failure scenario — failure-free, worst-case and
storm regimes included — each backend produces the same
:class:`~repro.api.SolveReport` as its reference:

* bit-identical solution vectors and residual trajectories,
* identical per-channel :class:`~repro.cluster.statistics.ClusterStats`,
* identical simulated clocks (``modeled_time``), *including* under a
  noisy cost model, where equality additionally proves both backends
  consume the cost-noise RNG in the same charge order.

``vectorized`` is pinned against the ``looped`` per-rank reference
semantics, so either backend can serve any stored record.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule
from repro.cluster import CostModel
from repro.matrices import poisson_2d

N_NODES = 4
NOISY = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, noise=0.05)

#: (reference, candidate) pins; each candidate must reproduce its
#: reference bit for bit.
BACKEND_PAIRS = (("looped", "vectorized"),)


@pytest.fixture(scope="module")
def problem():
    matrix = poisson_2d(8)
    rng = np.random.default_rng(42)
    b = matrix @ rng.standard_normal(matrix.shape[0])
    return matrix, b


def _sessions(problem, pair, cost_model=None, seed=0):
    matrix, b = problem
    return tuple(
        repro.SolverSession(
            matrix, b, n_nodes=N_NODES, cost_model=cost_model, seed=seed,
            backend=backend,
        )
        for backend in pair
    )


def _assert_reports_identical(report_a, report_b, pair):
    assert report_a.backend == pair[0] and report_b.backend == pair[1]
    assert report_a.converged == report_b.converged
    assert report_a.iterations == report_b.iterations
    assert report_a.executed_iterations == report_b.executed_iterations
    assert report_a.relative_residual == report_b.relative_residual
    assert report_a.modeled_time == report_b.modeled_time
    assert report_a.recovery_time == report_b.recovery_time
    assert report_a.stats == report_b.stats
    np.testing.assert_array_equal(report_a.x, report_b.x)
    assert (
        report_a.result.residual_history == report_b.result.residual_history
    )


scenario_specs = st.one_of(
    st.just(ScenarioSpec.make("failure_free")),
    st.builds(
        lambda location: ScenarioSpec.make("worst_case", location=location),
        location=st.sampled_from(["start", "center"]),
    ),
    st.builds(
        lambda count: ScenarioSpec.make("storm", count=count),
        count=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        lambda width, fraction: ScenarioSpec.make(
            "multi_node", width=width, fraction=fraction
        ),
        width=st.integers(min_value=1, max_value=2),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    ),
)


@settings(max_examples=25, deadline=None)
@given(
    pair=st.sampled_from(BACKEND_PAIRS),
    spec=scenario_specs,
    strategy=st.sampled_from(["reference", "esr", "esrp", "imcr"]),
    T=st.sampled_from([5, 10]),
    phi=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_backends_bit_identical_over_random_scenarios(
    problem, pair, spec, strategy, T, phi, seed
):
    session_a, session_b = _sessions(problem, pair, seed=seed)
    reference = session_b.reference()

    if strategy == "reference" or not spec.injects_failures:
        failures = ()
    else:
        ctx = ScenarioContext(
            n_nodes=N_NODES,
            phi=phi,
            strategy=strategy,
            T=T,
            reference_iterations=reference.C,
            seed=seed,
        )
        failures = generate_schedule(spec, ctx)
    if strategy == "reference" and spec.injects_failures:
        failures = ()

    request = dict(strategy=strategy, T=T, phi=phi, failures=failures, seed=seed)
    report_a = session_a.solve(repro.SolveRequest(**request))
    report_b = session_b.solve(repro.SolveRequest(**request))
    _assert_reports_identical(report_a, report_b, pair)


@pytest.mark.parametrize("pair", BACKEND_PAIRS, ids="/".join)
@pytest.mark.parametrize("strategy", ["reference", "esr", "esrp", "imcr"])
def test_backends_identical_under_noisy_cost_model(problem, pair, strategy):
    """Noise forces both backends through the same RNG draw sequence."""
    session_a, session_b = _sessions(problem, pair, cost_model=NOISY, seed=7)
    failures = (
        [repro.FailureEvent(12, (1,))] if strategy != "reference" else []
    )
    request = dict(strategy=strategy, T=8, phi=1, failures=failures)
    _assert_reports_identical(
        session_a.solve(repro.SolveRequest(**request)),
        session_b.solve(repro.SolveRequest(**request)),
        pair,
    )


@pytest.mark.parametrize("pair", BACKEND_PAIRS, ids="/".join)
@pytest.mark.parametrize("preconditioner", ["identity", "jacobi", "block_ssor"])
def test_backends_identical_across_preconditioners(problem, pair, preconditioner):
    session_a, session_b = _sessions(problem, pair, seed=3)
    request = dict(
        strategy="esrp", T=6, phi=1,
        preconditioner=preconditioner,
        failures=[repro.FailureEvent(9, (2,))],
    )
    _assert_reports_identical(
        session_a.solve(repro.SolveRequest(**request)),
        session_b.solve(repro.SolveRequest(**request)),
        pair,
    )


@pytest.mark.parametrize("pair", BACKEND_PAIRS, ids="/".join)
def test_backends_identical_with_polynomial_and_imcr(problem, pair):
    """A *global* preconditioner: its SpMVs ride the backend too."""
    session_a, session_b = _sessions(problem, pair, seed=5)
    request = dict(
        strategy="imcr", T=6, phi=1,
        preconditioner="polynomial",
        failures=[repro.FailureEvent(9, (0,))],
    )
    _assert_reports_identical(
        session_a.solve(repro.SolveRequest(**request)),
        session_b.solve(repro.SolveRequest(**request)),
        pair,
    )
