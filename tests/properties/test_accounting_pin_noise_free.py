"""Pin: the per-rank clocks and statistics of noise-free solves, recorded.

The noise-free twin of ``test_accounting_pin.py``.  That pin runs under
5 % cost noise, where every compiled bill (``charge_compute`` /
``charge_memcpy`` profiles, ``exchange_compiled``, the fast
``allreduce``) falls back to its per-item loop so the noise RNG draws
in order.  Without noise the compiled paths run, and this module pins
what they bill: for a failure-free ``reference`` solve, ``esr``,
``esrp`` and ``imcr`` at ϕ ∈ {1, 3} both failure-free and under the
§5 worst-case failure, ``esr``/``esrp`` with ``switch_aware``
destinations, and failure-free ``pv`` and ``lossy_imcr``, every solve
must end with exactly the per-rank clocks, flops, bytes sent and
received, message counts, local-copy bytes and redundancy peaks, and
the report fields, stored in ``accounting_pin_noise_free.json``.
Clusters of 4 and 16 nodes on the default fat tree, and 16 on a ring
(distinct hop counts per pair) are pinned.  Worst-case ``esr``/``esrp``
cells are solved twice, capturing then fast-forwarded, and failure-free
and ``imcr`` cells replay the cached reference, so replayed bills are
pinned too.

Recording it again is a deliberate change to the billing::

    PYTHONPATH=src python tests/properties/test_accounting_pin_noise_free.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

import repro
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule
from repro.cluster import CostModel
from repro.cluster.topology import FatTree, Ring
from repro.matrices import poisson_2d

PIN_PATH = pathlib.Path(__file__).with_name("accounting_pin_noise_free.json")
SEED = 7
T = 5
#: (name, node count, topology class)
CLUSTERS = (("fattree4", 4, FatTree), ("fattree16", 16, FatTree), ("ring16", 16, Ring))
#: (strategy, phi, destinations, scenario kind)
CELLS = (
    ("reference", 1, "eq1", "failure_free"),
    *(
        (strategy, phi, "eq1", scenario)
        for phi in (1, 3)
        for strategy in ("esr", "esrp", "imcr")
        for scenario in ("failure_free", "worst_case")
    ),
    *(
        (strategy, 3, "switch_aware", scenario)
        for strategy in ("esr", "esrp")
        for scenario in ("failure_free", "worst_case")
    ),
    ("pv", 1, "eq1", "failure_free"),
    ("lossy_imcr", 1, "eq1", "failure_free"),
)
FIELDS = ("iterations", "executed_iterations", "modeled_time", "recovery_time", "stats")
#: Per-rank statistics arrays of :class:`~repro.cluster.statistics.ClusterStats`.
RANK_STATS = (
    "flops", "bytes_sent", "bytes_received", "messages_sent",
    "local_copy_bytes", "redundancy_peak_bytes",
)
#: Cells solved twice: capturing, then fast-forwarded.
FAST_FORWARDED = {("esr", "worst_case"), ("esrp", "worst_case")}


def cell_key(cluster: str, strategy: str, phi: int, destinations: str, scenario: str) -> str:
    return f"{cluster}/{strategy}/phi={phi}/{destinations}/{scenario}"


def _cells(topology_cls) -> tuple:
    # switch_aware destinations need a fat tree's leaf switches.
    return tuple(
        cell for cell in CELLS if cell[2] == "eq1" or topology_cls is FatTree
    )


def solve_cells(repeats: dict | None = None) -> dict[str, dict]:
    """Every pinned cell's accounting, keyed by :func:`cell_key`.

    A :data:`FAST_FORWARDED` cell is solved twice; the second solve's
    accounting and replayed iteration count go to ``repeats`` if given.
    """
    matrix = poisson_2d(8)
    b = matrix @ np.random.default_rng(42).standard_normal(matrix.shape[0])
    records = {}
    for name, n_nodes, topology_cls in CLUSTERS:
        session = repro.SolverSession(
            matrix, b, n_nodes=n_nodes, cost_model=CostModel(),
            topology=topology_cls(n_nodes), seed=SEED,
        )
        reference = session.reference(preconditioner="block_jacobi")
        for strategy, phi, destinations, scenario in _cells(topology_cls):
            ctx = ScenarioContext(
                n_nodes=n_nodes, phi=phi, strategy=strategy, T=T,
                reference_iterations=reference.C, seed=SEED,
            )
            request = repro.SolveRequest(
                strategy=strategy, T=T, phi=phi, destinations=destinations,
                preconditioner="block_jacobi",
                failures=generate_schedule(ScenarioSpec.make(scenario), ctx),
            )
            key = cell_key(name, strategy, phi, destinations, scenario)
            if (strategy, scenario) in FAST_FORWARDED:
                reference.snapshots.clear()  # so the first solve captures
            records[key] = _fields(session, session.solve(request))
            if (strategy, scenario) in FAST_FORWARDED and repeats is not None:
                again = session.solve(request)
                repeats[key] = (_fields(session, again), again.result.replayed_iterations)
    return records


def _fields(session: repro.SolverSession, report: repro.SolveReport) -> dict:
    data = report.to_dict()
    fields = {name: data[name] for name in FIELDS}
    cluster = session.cluster
    fields["clocks"] = cluster.clocks.tolist()
    for name in RANK_STATS:
        fields[name] = getattr(cluster.stats, name).tolist()
    # A JSON round trip, so a fresh solve compares like the stored file.
    return json.loads(json.dumps(fields, sort_keys=True))


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
        cell_key(name, *cell)
        for name, _n, topology_cls in CLUSTERS
        for cell in _cells(topology_cls)
    )


@pytest.mark.parametrize("cluster", [name for name, _n, _t in CLUSTERS])
def test_noise_free_accounting_matches_recorded_pin(solved, repeats, pinned, cluster):
    keys = [key for key in pinned if key.startswith(cluster + "/")]
    assert keys
    for key in keys:
        assert solved[key] == pinned[key], key
        if key in repeats:
            fields, replayed = repeats[key]
            assert fields == pinned[key], key
            assert 0 < replayed < fields["executed_iterations"], key


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(solve_cells(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {PIN_PATH}")
