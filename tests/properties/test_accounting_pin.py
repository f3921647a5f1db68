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
Each worst-case ``esr``/``esrp`` cell is solved twice, once capturing a
snapshot of the reference's state and once fast-forwarded from it (see
"Replay" in :mod:`repro.api.session`); both must match the pin.

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
#: Cells solved twice: capturing, then fast-forwarded.
FAST_FORWARDED = {("esr", "worst_case"), ("esrp", "worst_case")}


def cell_key(preconditioner: str, strategy: str, T: int, scenario: str) -> str:
    return f"{preconditioner}/{strategy}/T={T}/{scenario}"


def solve_cells(repeats: dict | None = None) -> dict[str, dict]:
    """Every pinned cell's accounting fields, keyed by :func:`cell_key`.

    A :data:`FAST_FORWARDED` cell is solved twice; the second solve's
    fields and replayed iteration count go to ``repeats`` if given.
    """
    matrix = poisson_2d(8)
    b = matrix @ np.random.default_rng(42).standard_normal(matrix.shape[0])
    session = repro.SolverSession(matrix, b, n_nodes=N_NODES, cost_model=NOISY, seed=SEED)
    records = {}
    for preconditioner in PRECONDITIONERS:
        reference = session.reference(preconditioner=preconditioner)
        for strategy, T, scenario in CELLS:
            ctx = ScenarioContext(
                n_nodes=N_NODES, phi=1, strategy=strategy, T=T,
                reference_iterations=reference.C, seed=SEED,
            )
            failures = generate_schedule(ScenarioSpec.make(scenario), ctx)
            request = repro.SolveRequest(
                strategy=strategy, T=T, phi=1, preconditioner=preconditioner,
                failures=failures,
            )
            key = cell_key(preconditioner, strategy, T, scenario)
            if (strategy, scenario) in FAST_FORWARDED:
                reference.snapshots.clear()  # so the first solve captures
            records[key] = _fields(session.solve(request))
            if (strategy, scenario) in FAST_FORWARDED and repeats is not None:
                again = session.solve(request)
                repeats[key] = (_fields(again), again.result.replayed_iterations)
    return records


def _fields(report: repro.SolveReport) -> dict:
    data = report.to_dict()
    # A JSON round trip, so a fresh solve compares like the stored file.
    return json.loads(json.dumps({name: data[name] for name in FIELDS}, sort_keys=True))


@pytest.fixture(scope="module")
def repeats():
    return {}


@pytest.fixture(scope="module")
def solved(repeats):
    return solve_cells(repeats=repeats)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN_PATH.read_text())


def test_pin_covers_every_cell(pinned):
    assert sorted(pinned) == sorted(
        cell_key(p, *cell) for p in PRECONDITIONERS for cell in CELLS
    )


@pytest.mark.parametrize("preconditioner", PRECONDITIONERS)
def test_accounting_matches_recorded_pin(solved, repeats, pinned, preconditioner):
    for cell in CELLS:
        key = cell_key(preconditioner, *cell)
        assert solved[key] == pinned[key], key
        if key in repeats:
            fields, replayed = repeats[key]
            assert fields == pinned[key], key
            assert 0 < replayed < fields["executed_iterations"], key


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(solve_cells(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
