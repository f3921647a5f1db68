"""Grid integration test: every strategy × ϕ × T × location recovers.

A compressed version of the paper's whole test constellation on a tiny
problem: all combinations must converge to the reference solution.
"""

import numpy as np
import pytest

import repro
from repro.campaign.scenarios import place_worst_case_failure


@pytest.fixture(scope="module")
def setup():
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
    reference = repro.solve(matrix, b, n_nodes=8, strategy="reference")
    return matrix, b, reference


GRID = [
    (strategy, T, phi, location)
    for strategy, T in (("esr", 1), ("esrp", 10), ("esrp", 25), ("imcr", 10), ("imcr", 25))
    for phi in (1, 3)
    for location in ("start", "center")
]


@pytest.mark.parametrize("strategy,T,phi,location", GRID)
def test_grid_cell_recovers(setup, strategy, T, phi, location):
    matrix, b, reference = setup
    j_fail = place_worst_case_failure(strategy, T, reference.iterations)
    ranks = repro.block_failure_ranks(location, phi, 8)
    result = repro.solve(
        matrix,
        b,
        n_nodes=8,
        strategy=strategy,
        T=T,
        phi=phi,
        failures=[repro.FailureEvent(j_fail, ranks)],
    )
    assert result.converged
    np.testing.assert_allclose(result.x, reference.x, atol=1e-7)
    assert result.iterations == reference.iterations  # exact strategies
    expected_waste = 0 if strategy == "esr" else T - 2
    assert result.wasted_iterations == expected_waste


def test_drift_stays_small_across_grid(setup):
    """Eq. (2): recoveries do not degrade the converged accuracy."""
    from repro.solvers import drift_from_result

    matrix, b, reference = setup
    reference_drift = drift_from_result(matrix, b, reference)
    drifts = []
    for strategy, T in (("esr", 1), ("esrp", 10), ("imcr", 10)):
        j_fail = place_worst_case_failure(strategy, T, reference.iterations)
        result = repro.solve(
            matrix, b, n_nodes=8, strategy=strategy, T=T, phi=2,
            failures=[repro.FailureEvent(j_fail, (0, 1))],
        )
        drifts.append(drift_from_result(matrix, b, result))
    for drift in drifts:
        assert abs(drift - reference_drift) < max(1.0, 5 * abs(reference_drift))
