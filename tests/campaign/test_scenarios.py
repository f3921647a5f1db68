"""Scenario generators produce valid, recoverable failure schedules."""

import pytest

from repro.campaign import CampaignSpec, ScenarioContext, ScenarioSpec, generate_schedule
from repro.campaign.scenarios import scenario_kinds
from repro.exceptions import ConfigurationError


def ctx(**overrides) -> ScenarioContext:
    defaults = dict(
        n_nodes=8, phi=2, strategy="esrp", T=20, reference_iterations=100, seed=11
    )
    defaults.update(overrides)
    return ScenarioContext(**defaults)


@pytest.mark.parametrize("kind", scenario_kinds())
def test_every_kind_generates_a_valid_schedule(kind):
    context = ctx()
    schedule = generate_schedule(ScenarioSpec.make(kind), context)
    for event in schedule:
        assert 1 <= event.iteration < context.reference_iterations
        assert 1 <= event.width <= context.phi
        assert all(0 <= r < context.n_nodes for r in event.ranks)


def test_failure_free_is_empty():
    assert len(generate_schedule(ScenarioSpec.make("failure_free"), ctx())) == 0


def test_worst_case_matches_harness_placement():
    from repro.campaign.scenarios import place_worst_case_failure

    context = ctx(strategy="esrp", T=20, reference_iterations=100)
    schedule = generate_schedule(
        ScenarioSpec.make("worst_case", location="center"), context
    )
    (event,) = schedule
    assert event.iteration == place_worst_case_failure("esrp", 20, 100)
    assert event.ranks == (4, 5)  # center block of width phi=2 on 8 nodes


def test_fraction_places_at_fraction_of_C():
    schedule = generate_schedule(
        ScenarioSpec.make("fraction", fraction=0.25), ctx(reference_iterations=200)
    )
    (event,) = schedule
    assert event.iteration == 50
    assert event.ranks == (0, 1)


def test_width_clamped_to_phi_and_survivors():
    # requested width 5 exceeds phi=2 -> clamped to recoverable width
    schedule = generate_schedule(
        ScenarioSpec.make("multi_node", width=5), ctx(phi=2)
    )
    (event,) = schedule
    assert event.width == 2
    # phi larger than N-1 still leaves one survivor
    schedule = generate_schedule(
        ScenarioSpec.make("multi_node", width=7), ctx(n_nodes=4, phi=7)
    )
    (event,) = schedule
    assert event.width == 3


def test_storm_produces_distinct_ordered_events():
    schedule = generate_schedule(
        ScenarioSpec.make("storm", count=4), ctx(reference_iterations=100)
    )
    iterations = [event.iteration for event in schedule]
    assert len(iterations) == 4
    assert iterations == sorted(iterations)
    assert len(set(iterations)) == 4
    # rotating block positions: not every event hits the same ranks
    assert len({event.ranks for event in schedule}) > 1


def test_storm_on_short_trajectory_emits_fewer_but_valid_events():
    # C=3 leaves only iterations {1, 2}; a 4-event storm must shrink
    # instead of placing events past the end of the solve.
    context = ctx(reference_iterations=3)
    schedule = generate_schedule(ScenarioSpec.make("storm", count=4), context)
    iterations = [event.iteration for event in schedule]
    assert 1 <= len(iterations) <= 2
    assert all(1 <= i <= 2 for i in iterations)
    assert len(set(iterations)) == len(iterations)


def test_mtbf_is_seed_deterministic():
    spec = ScenarioSpec.make("mtbf", mtbf_fraction=0.2)
    a = generate_schedule(spec, ctx(seed=3, reference_iterations=300))
    b = generate_schedule(spec, ctx(seed=3, reference_iterations=300))
    c = generate_schedule(spec, ctx(seed=4, reference_iterations=300))
    assert a.events == b.events
    assert len(a) >= 1
    assert a.events != c.events


def test_bad_parameters_raise_configuration_error():
    with pytest.raises(ConfigurationError):
        generate_schedule(ScenarioSpec.make("fraction", fraction=1.5), ctx())
    with pytest.raises(ConfigurationError):
        generate_schedule(ScenarioSpec.make("storm", count=0), ctx())
    with pytest.raises(ConfigurationError):
        generate_schedule(ScenarioSpec.make("worst_case", location="edge"), ctx())
    with pytest.raises(ConfigurationError):
        # unknown keyword for the generator
        generate_schedule(ScenarioSpec("fraction", (("surprise", 1),)), ctx())


def test_a_misspelled_parameter_fails_when_the_campaign_is_declared():
    with pytest.raises(ConfigurationError, match="probabilty"):
        ScenarioSpec.make("sdc", probabilty=0.9)
    with pytest.raises(ConfigurationError, match="probabilty"):
        CampaignSpec.from_dict({
            "problems": [["emilia_923_like", "tiny"]],
            "scenarios": [{"kind": "sdc", "probabilty": 0.9}],
        })
    # Correct names pass, the models' included.
    ScenarioSpec.make("sdc", probability=0.9)
    ScenarioSpec.make("churn", leave_probability=1.0)
    ScenarioSpec.make("lossy", count=3, location="center")


def test_scenario_labels_are_stable():
    spec = ScenarioSpec.make("worst_case", width=2, location="start")
    assert spec.label == "worst_case(location=start,width=2)"
    assert ScenarioSpec.make("failure_free").label == "failure_free"
