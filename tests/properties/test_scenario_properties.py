"""Hypothesis properties of the campaign scenario generators.

Invariants:

* every kind rejects a parameter it does not take;
* every generated schedule is recoverable by construction (block
  widths never exceed ϕ or leave no survivor, iterations stay inside
  the undisturbed trajectory);
* for *any* generated failure scenario, the exact strategies (ESR and
  ESRP) recover the reference PCG trajectory: the solve converges in
  the reference iteration count and reproduces the reference solution
  within tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule
from repro.exceptions import ConfigurationError

N_NODES = 4

scenario_specs = st.one_of(
    st.builds(
        lambda fraction, location, width: ScenarioSpec.make(
            "fraction", fraction=fraction, location=location, width=width
        ),
        fraction=st.floats(min_value=0.1, max_value=0.9),
        location=st.sampled_from(["start", "center"]),
        width=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        lambda location: ScenarioSpec.make("worst_case", location=location),
        location=st.sampled_from(["start", "center"]),
    ),
    st.builds(
        lambda width, fraction, start: ScenarioSpec.make(
            "multi_node", width=width, fraction=fraction, start=start
        ),
        width=st.integers(min_value=1, max_value=3),
        fraction=st.floats(min_value=0.1, max_value=0.9),
        start=st.integers(min_value=0, max_value=7),
    ),
    st.builds(
        lambda count: ScenarioSpec.make("storm", count=count),
        count=st.integers(min_value=1, max_value=3),
    ),
    st.builds(
        lambda mtbf_fraction, seed_shift: ScenarioSpec.make(
            "mtbf", mtbf_fraction=mtbf_fraction
        ),
        mtbf_fraction=st.floats(min_value=0.3, max_value=0.8),
        seed_shift=st.just(0),
    ),
    # The fail-stop members of the fault taxonomy (repro.faults): their
    # events are exact-recovery node failures, so they share every
    # invariant of the historical generators.
    st.builds(
        lambda count, fraction: ScenarioSpec.make(
            "lossy", count=count, fraction=fraction
        ),
        count=st.integers(min_value=1, max_value=3),
        fraction=st.floats(min_value=0.1, max_value=0.9),
    ),
    st.builds(
        lambda epoch_fraction, leave_probability: ScenarioSpec.make(
            "churn",
            epoch_fraction=epoch_fraction,
            leave_probability=leave_probability,
        ),
        epoch_fraction=st.floats(min_value=0.15, max_value=0.5),
        leave_probability=st.floats(min_value=0.0, max_value=1.0),
    ),
)

#: All nine generator kinds with representative parameters — the
#: determinism property must cover the silent-corruption kind too,
#: which cannot join `scenario_specs` (SDC is invisible to exact
#: strategies, so the trajectory-reproduction property excludes it).
all_kind_specs = st.one_of(
    scenario_specs,
    st.just(ScenarioSpec.make("failure_free")),
    st.builds(
        lambda probability, mode: ScenarioSpec.make(
            "sdc", probability=probability, mode=mode
        ),
        probability=st.floats(min_value=0.0, max_value=0.2),
        mode=st.sampled_from(["bitflip", "scale"]),
    ),
)


@given(
    spec=all_kind_specs,
    phi=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_every_generator_is_seed_deterministic(spec, phi, seed):
    # Identical seeds must yield identical schedules (event for event),
    # for all nine kinds — the campaign byte-identity contract rests on
    # this.
    ctx = ScenarioContext(
        n_nodes=N_NODES,
        phi=phi,
        strategy="esrp",
        T=10,
        reference_iterations=80,
        seed=seed,
    )
    first = [event.to_dict() for event in generate_schedule(spec, ctx)]
    second = [event.to_dict() for event in generate_schedule(spec, ctx)]
    assert first == second


@given(
    spec=all_kind_specs,
    # No kind takes a parameter ending in "_typo".
    key=st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12).map(
        lambda stem: f"{stem}_typo"
    ),
    value=st.one_of(st.integers(0, 9), st.floats(0.0, 1.0)),
)
@settings(max_examples=40, deadline=None)
def test_every_kind_rejects_an_unknown_parameter(spec, key, value):
    # A misspelled parameter must not run the generator at its defaults,
    # and is refused when the scenario is declared.
    params = {**dict(spec.params), key: value}
    with pytest.raises(ConfigurationError, match=key):
        ScenarioSpec.make(spec.kind, **params)
    with pytest.raises(ConfigurationError, match=key):
        ScenarioSpec.from_dict({"kind": spec.kind, **params})
    # A spec built around ``make`` still fails when its schedule is generated.
    typo = ScenarioSpec(kind=spec.kind, params=tuple(sorted(params.items())))
    ctx = ScenarioContext(
        n_nodes=N_NODES, phi=1, strategy="esrp", T=10, reference_iterations=80, seed=0
    )
    with pytest.raises(ConfigurationError, match=key):
        generate_schedule(typo, ctx)


@given(
    spec=scenario_specs,
    strategy=st.sampled_from(["esr", "esrp"]),
    phi=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=20, deadline=None)
def test_generated_schedules_are_recoverable(spec, strategy, phi, seed):
    ctx = ScenarioContext(
        n_nodes=N_NODES,
        phi=phi,
        strategy=strategy,
        T=10,
        reference_iterations=80,
        seed=seed,
    )
    schedule = generate_schedule(spec, ctx)
    iterations = [event.iteration for event in schedule]
    assert iterations == sorted(iterations)
    for event in schedule:
        assert 1 <= event.iteration < ctx.reference_iterations
        assert event.width <= min(phi, N_NODES - 1)
        assert all(0 <= rank < N_NODES for rank in event.ranks)


@pytest.fixture(scope="module")
def tiny_problem():
    matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny", seed=3)
    reference = repro.solve(matrix, b, n_nodes=N_NODES, strategy="reference")
    return matrix, b, reference


@given(
    spec=scenario_specs,
    strategy=st.sampled_from(["esr", "esrp"]),
    phi=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=15, deadline=None)
def test_esr_esrp_reproduce_reference_trajectory(tiny_problem, spec, strategy, phi, seed):
    matrix, b, reference = tiny_problem
    ctx = ScenarioContext(
        n_nodes=N_NODES,
        phi=phi,
        strategy=strategy,
        T=10,
        reference_iterations=reference.iterations,
        seed=seed,
    )
    schedule = generate_schedule(spec, ctx)
    result = repro.solve(
        matrix,
        b,
        n_nodes=N_NODES,
        strategy=strategy,
        T=10,
        phi=phi,
        failures=schedule,
    )
    assert result.converged
    # Exact recovery preserves the trajectory: same length, same solution.
    assert result.iterations == reference.iterations
    assert result.executed_iterations >= reference.iterations
    error = np.linalg.norm(result.x - reference.x) / np.linalg.norm(reference.x)
    assert error < 1e-6
