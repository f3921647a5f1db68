"""Pin: the simulated clock and statistics of a noisy solve, recorded.

``tests/oracle.py`` pins the *numerics* of the engine; it says nothing
about what a solve is billed.  This module pins the billing: for every
block-diagonal preconditioner, a failure-free ``reference``, ``esr``,
``esrp`` and ``imcr`` solve plus a worst-case failure under each
resilient strategy, run under a cost model with 5 % log-normal noise,
must report exactly the iteration counts, simulated times and
per-channel statistics stored in ``accounting_pin.json``.  The noise
makes the simulated clock depend on the order in which charges draw
from the cost-noise RNG, so equality also pins the charge sequence.

The file was recorded while a per-rank reference backend still existed
beside the fused one, with both required to agree; no solution bits are
stored, since those may depend on the host's BLAS kernel.  To record it
again after a deliberate change to the billing::

    PYTHONPATH=src python tests/properties/test_accounting_pin.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

import repro
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule
from repro.cluster import CostModel
from repro.matrices import poisson_2d

PIN_PATH = pathlib.Path(__file__).with_name("accounting_pin.json")
N_NODES = 4
SEED = 7
NOISY = CostModel(noise=0.05)
PRECONDITIONERS = ("jacobi", "block_jacobi", "block_ssor", "block_ichol")
#: (strategy, T, scenario kind)
CELLS = (
    ("reference", 5, "failure_free"),
    ("esr", 5, "failure_free"),
    ("esrp", 5, "failure_free"),
    ("imcr", 5, "failure_free"),
    ("esr", 5, "worst_case"),
    ("esrp", 5, "worst_case"),
    ("imcr", 5, "worst_case"),
)
FIELDS = ("iterations", "executed_iterations", "modeled_time", "recovery_time", "stats")


def cell_key(preconditioner: str, strategy: str, T: int, scenario: str) -> str:
    return f"{preconditioner}/{strategy}/T={T}/{scenario}"


def solve_cells(backend: str | None = None) -> dict[str, dict]:
    """Every pinned cell's accounting fields, keyed by :func:`cell_key`."""
    matrix = poisson_2d(8)
    b = matrix @ np.random.default_rng(42).standard_normal(matrix.shape[0])
    session = repro.SolverSession(
        matrix, b, n_nodes=N_NODES, cost_model=NOISY, seed=SEED, backend=backend
    )
    records = {}
    for preconditioner in PRECONDITIONERS:
        reference = session.reference(preconditioner=preconditioner)
        for strategy, T, scenario in CELLS:
            ctx = ScenarioContext(
                n_nodes=N_NODES, phi=1, strategy=strategy, T=T,
                reference_iterations=reference.C, seed=SEED,
            )
            failures = generate_schedule(ScenarioSpec.make(scenario), ctx)
            report = session.solve(repro.SolveRequest(
                strategy=strategy, T=T, phi=1, preconditioner=preconditioner,
                failures=failures,
            ))
            data = report.to_dict()
            records[cell_key(preconditioner, strategy, T, scenario)] = {
                name: data[name] for name in FIELDS
            }
    # A JSON round trip, so a fresh solve compares like the stored file.
    return json.loads(json.dumps(records, sort_keys=True))


@pytest.fixture(scope="module")
def solved():
    return solve_cells()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN_PATH.read_text())


def test_pin_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(
        cell_key(p, *cell) for p in PRECONDITIONERS for cell in CELLS
    )


@pytest.mark.parametrize("preconditioner", PRECONDITIONERS)
def test_accounting_matches_recorded_pin(solved, pinned, preconditioner):
    for cell in CELLS:
        key = cell_key(preconditioner, *cell)
        assert solved[key] == pinned[key], key


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(solve_cells(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
