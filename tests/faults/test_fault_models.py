"""Fault models, events, schedules and request pass-through.

The taxonomy contract (see :mod:`repro.faults`): every scenario kind
turns a :class:`ScenarioContext` into a schedule deterministically from
``ctx.seed``; events round-trip through dicts; one
:class:`FailureSchedule` serves silent-corruption events apart from
fail-stop events; and requests carry taxonomy events through JSON
unchanged (API and serve layers).
"""

import json

import numpy as np
import pytest

from repro.api.request import SolveRequest
from repro.campaign import ScenarioContext, ScenarioSpec, generate_schedule, scenario_kinds
from repro.cluster.failures import FailureEvent, FailureSchedule
from repro.exceptions import ConfigurationError
from repro.faults import (
    ChurnEvent,
    ChurnModel,
    CompressionModel,
    LossyCheckpointModel,
    SDCEvent,
    SDCModel,
    event_from_dict,
)

pytestmark = pytest.mark.smoke


def make_ctx(n_nodes=4, phi=1, strategy="esrp", T=10, C=40, seed=7):
    return ScenarioContext(
        n_nodes=n_nodes,
        phi=phi,
        strategy=strategy,
        T=T,
        reference_iterations=C,
        seed=seed,
    )


class TestRegistry:
    def test_all_kinds_registered(self):
        assert scenario_kinds() == (
            "churn", "failure_free", "fraction", "lossy", "mtbf",
            "multi_node", "sdc", "storm", "worst_case",
        )

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.make("bitrot")
        with pytest.raises(ConfigurationError):
            generate_schedule(ScenarioSpec("bitrot"), make_ctx())

    def test_schedules_deterministic_per_seed(self):
        ctx = make_ctx(seed=13)
        for kind in scenario_kinds():
            spec = ScenarioSpec.make(kind)
            first = [e.to_dict() for e in generate_schedule(spec, ctx)]
            second = [e.to_dict() for e in generate_schedule(spec, ctx)]
            assert first == second, kind


class TestNodeFailureModel:
    def test_matches_historical_fraction_generator(self):
        # Campaigns stored before the fault taxonomy must replay onto
        # identical `fraction` schedules.
        spec = ScenarioSpec.make(
            "fraction", fraction=0.5, location="start", width=1
        )
        via_scenario = [e.to_dict() for e in generate_schedule(spec, make_ctx())]
        assert via_scenario == [{"iteration": 20, "ranks": [0]}]


class TestSDC:
    def test_event_apply_is_deterministic(self):
        event = SDCEvent(iteration=5, rank=1, seed=42)
        a = np.linspace(1.0, 2.0, 16)
        b = a.copy()
        info_a = event.apply(a)
        info_b = event.apply(b)
        assert info_a == info_b
        np.testing.assert_array_equal(a, b)
        assert np.all(np.isfinite(a))
        assert a[info_a["index"]] != info_a["old"]

    def test_scale_mode_perturbs(self):
        event = SDCEvent(iteration=5, rank=0, mode="scale", magnitude=0.5, seed=3)
        block = np.ones(8)
        info = event.apply(block)
        assert info["new"] == pytest.approx(info["old"] + 0.5 * 2.0)

    def test_empty_block_is_skipped(self):
        info = SDCEvent(iteration=1, rank=0).apply(np.empty(0))
        assert info == {"skipped": True}

    def test_event_roundtrip(self):
        event = SDCEvent(iteration=9, rank=2, vector="r", mode="scale",
                         magnitude=0.25, seed=11)
        assert event_from_dict(event.to_dict()) == event

    def test_model_validation(self):
        with pytest.raises(ConfigurationError):
            SDCModel(probability=1.5)
        with pytest.raises(ConfigurationError):
            SDCModel(vector="q")
        with pytest.raises(ConfigurationError):
            SDCModel(mode="gamma_ray")

    def test_corruption_chances_cycle_over_ranks(self):
        # Rank 1 and 3 have probability 0, so no strikes land there.
        model = SDCModel(corruption_chances=(0.9, 0.0), max_events=None)
        schedule = model.schedule(make_ctx(seed=5))
        assert len(schedule) > 0
        assert all(e.rank in (0, 2) for e in schedule)

    def test_max_events_truncates(self):
        model = SDCModel(probability=0.9, max_events=2)
        assert len(model.schedule(make_ctx(seed=1))) == 2


class TestChurn:
    def test_event_roundtrip(self):
        event = ChurnEvent(iteration=7, ranks=(1, 2), epoch=3,
                           critical_size=3, sufficient_size=4)
        restored = event_from_dict(event.to_dict())
        assert restored == event
        assert restored.fault_kind == "churn"

    def test_draw_count_independent_of_outcomes(self):
        # Outcome-independent RNG consumption: schedules with different
        # leave probabilities still place surviving events at the same
        # iterations (the rank/width draws are always made).
        always = ChurnModel(leave_probability=1.0)
        sometimes = ChurnModel(leave_probability=0.5)
        ctx = make_ctx(C=60, seed=21)
        all_iters = [e.iteration for e in always.schedule(ctx)]
        some_iters = [e.iteration for e in sometimes.schedule(ctx)]
        assert set(some_iters) <= set(all_iters)


class TestLossyCompression:
    def test_error_bound_respected(self):
        model = CompressionModel(error_bound=1e-3, ratio=4.0, seed=2)
        rng = np.random.default_rng(0)
        block = rng.normal(size=256)
        restored = model.compress(block)
        assert np.max(np.abs(restored - block)) <= 1e-3 + 1e-12

    def test_compression_is_deterministic(self):
        block = np.linspace(-1, 1, 64)
        a = CompressionModel(error_bound=1e-4, seed=9).compress(block)
        b = CompressionModel(error_bound=1e-4, seed=9).compress(block)
        np.testing.assert_array_equal(a, b)

    def test_compressed_bytes(self):
        model = CompressionModel(error_bound=1e-4, ratio=4.0)
        assert model.compressed_bytes(4000) == 1000
        assert model.compressed_bytes(4) == 8  # floor: one float
        assert model.compressed_bytes(0) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompressionModel(error_bound=0.0)
        with pytest.raises(ConfigurationError):
            LossyCheckpointModel(ratio=0.5)


class TestFaultSchedule:
    def make_mixed(self):
        return FailureSchedule([
            FailureEvent(10, (0,)),
            SDCEvent(iteration=5, rank=1, seed=1),
            SDCEvent(iteration=10, rank=2, seed=2),
        ])

    def test_len_counts_both_families(self):
        assert len(self.make_mixed()) == 3

    def test_iter_is_merged_and_sorted(self):
        # By iteration, fail-stop before silent within one iteration.
        order = [(e.iteration, type(e).__name__) for e in self.make_mixed()]
        assert order == [(5, "SDCEvent"), (10, "FailureEvent"), (10, "SDCEvent")]

    def test_pop_split(self):
        schedule = self.make_mixed()
        assert [e.rank for e in schedule.pop_corruptions(5)] == [1]
        due = schedule.pop_due(10)
        assert due is not None and due.ranks == (0,)
        assert [e.rank for e in schedule.pop_corruptions(10)] == [2]
        # consumed once: replaying the same iterations yields nothing
        assert schedule.pop_due(10) is None
        assert list(schedule.pop_corruptions(10)) == []

    def test_reset_restores_everything(self):
        schedule = self.make_mixed()
        schedule.pop_corruptions(5)
        schedule.pop_due(10)
        assert schedule.pending() == 1
        schedule.reset()
        assert schedule.pending() == 3

    def test_plain_schedule_has_no_corruptions(self):
        schedule = FailureSchedule([FailureEvent(3, (1,))])
        assert list(schedule.pop_corruptions(3)) == []


class TestRequestPassThrough:
    def make_request(self):
        return SolveRequest(
            strategy="pv",
            T=10,
            phi=1,
            failures=(
                SDCEvent(iteration=12, rank=1, seed=99),
                FailureEvent(20, (0,)),
            ),
            seed=3,
        )

    def test_json_roundtrip_preserves_taxonomy_events(self):
        request = self.make_request()
        restored = SolveRequest.from_json(request.to_json())
        assert restored == request
        assert isinstance(restored.failures[0], SDCEvent)

    def test_schedule_materialises_fault_schedule(self):
        schedule = self.make_request().schedule()
        assert type(schedule) is FailureSchedule
        assert [e.iteration for e in schedule.corruptions] == [12]
        assert [e.iteration for e in schedule.events] == [20]
        plain = SolveRequest(failures=((5, (0,)),)).schedule()
        assert type(plain) is FailureSchedule
        assert plain.corruptions == ()

    def test_strategy_params_roundtrip(self):
        request = SolveRequest(
            strategy="lossy_imcr",
            T=10,
            strategy_params={"error_bound": 1e-4, "ratio": 4.0, "seed": 5},
        )
        restored = SolveRequest.from_json(request.to_json())
        assert restored.strategy_params == request.strategy_params

    def test_serve_request_passes_events_through(self):
        from repro.serve.service import ServeRequest

        serve = ServeRequest(
            problem="poisson3d",
            scale="tiny",
            n_nodes=4,
            request=self.make_request(),
        )
        blob = json.dumps(serve.to_dict(), sort_keys=True)
        restored = ServeRequest.from_dict(json.loads(blob))
        assert restored == serve
        assert isinstance(restored.request.failures[0], SDCEvent)
