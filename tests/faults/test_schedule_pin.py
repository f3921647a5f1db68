"""Pin: every scenario kind's schedules, recorded.

For each of the nine scenario kinds (at its defaults, plus a few
parameter sets that place several events or mix event families), over
N ∈ {4, 8}, ϕ ∈ {1, 2}, T = 10, C ∈ {40, 200} and three seeds, the
generated schedule must serialise to exactly the events stored in
``schedule_pin.json``, both as ``[e.to_dict() for e in schedule]`` and
as the ``failures`` of a :class:`~repro.api.request.SolveRequest` built
from it.  Campaign byte-identity rests on these schedules, so a change
to how they are drawn, ordered or serialised shows here first.

Recording it again is a deliberate change to the schedules::

    PYTHONPATH=src python tests/faults/test_schedule_pin.py
"""

from __future__ import annotations

import itertools
import json
import pathlib

import pytest

from repro.api.request import SolveRequest
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule, scenario_kinds

pytestmark = pytest.mark.smoke

PIN_PATH = pathlib.Path(__file__).with_name("schedule_pin.json")
#: (kind, params): every kind at its defaults, then variants.
SPECS = (
    ("failure_free", {}),
    ("worst_case", {}),
    ("worst_case", {"location": "center"}),
    ("fraction", {}),
    ("fraction", {"fraction": 0.3, "location": "center", "width": 1}),
    ("multi_node", {}),
    ("storm", {}),
    ("mtbf", {}),
    ("sdc", {}),
    ("sdc", {"corruption_chances": [0.1, 0.0], "period": 9, "vector": "r", "mode": "scale"}),
    ("lossy", {}),
    ("lossy", {"count": 3, "location": "center"}),
    ("churn", {}),
    ("churn", {"leave_probability": 1.0, "epoch_iterations": 30}),
)
CONTEXTS = tuple(
    dict(n_nodes=n_nodes, phi=phi, T=10, reference_iterations=C, seed=seed)
    for n_nodes, phi, C, seed in itertools.product((4, 8), (1, 2), (40, 200), (0, 7, 2020))
)


def cell_key(kind: str, params: dict, ctx: dict) -> str:
    label = ScenarioSpec.make(kind, **params).label
    return (
        f"{label}/N={ctx['n_nodes']}/phi={ctx['phi']}/T={ctx['T']}"
        f"/C={ctx['reference_iterations']}/seed={ctx['seed']}"
    )


def measure(kind: str, params: dict, ctx: dict) -> dict:
    spec = ScenarioSpec.make(kind, **params)
    schedule = generate_schedule(spec, ScenarioContext(strategy="esrp", **ctx))
    return {
        "events": [e.to_dict() for e in schedule],
        "request": SolveRequest(failures=schedule).to_dict()["failures"],
    }


def record() -> dict:
    return {
        cell_key(kind, params, ctx): measure(kind, params, ctx)
        for kind, params in SPECS
        for ctx in CONTEXTS
    }


@pytest.fixture(scope="module")
def pin() -> dict:
    return json.loads(PIN_PATH.read_text())


def test_pin_covers_every_kind(pin):
    assert {kind for kind, _ in SPECS} == set(scenario_kinds())
    assert len(pin) == len(SPECS) * len(CONTEXTS)


@pytest.mark.parametrize("kind,params", SPECS, ids=[
    ScenarioSpec.make(kind, **params).label for kind, params in SPECS
])
def test_schedules_match_pin(pin, kind, params):
    for ctx in CONTEXTS:
        key = cell_key(kind, params, ctx)
        assert measure(kind, params, ctx) == pin[key], key


if __name__ == "__main__":
    cells = sorted(record().items())
    # One cell per line: a re-recording diffs cell by cell.
    lines = [f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}" for key, value in cells]
    PIN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {PIN_PATH}")
