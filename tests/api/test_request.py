"""SolveRequest/SolveReport: eager validation and JSON round-trips."""

import json

import pytest

from repro.api import SolveReport, SolveRequest
from repro.cluster import FailureEvent, FailureSchedule
from repro.exceptions import ConfigurationError


class TestEagerValidation:
    def test_unknown_strategy_raises_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown strategy"):
            SolveRequest(strategy="esrq")

    def test_unknown_preconditioner_raises_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown preconditioner"):
            SolveRequest(preconditioner="block_jacobo")

    @pytest.mark.parametrize("bad", [0, -5])
    def test_bad_maxiter(self, bad):
        with pytest.raises(ConfigurationError, match="maxiter"):
            SolveRequest(maxiter=bad)

    def test_bad_T_and_phi_and_rtol(self):
        with pytest.raises(ConfigurationError, match="T must be >= 1"):
            SolveRequest(T=0)
        with pytest.raises(ConfigurationError, match="phi must be >= 1"):
            SolveRequest(phi=0)
        with pytest.raises(ConfigurationError, match="rtol"):
            SolveRequest(rtol=0.0)

    @pytest.mark.parametrize("strategy, params", [
        ("pv", {"treshold": 1e-30}),  # misspelled
        ("esr", {"error_bound": 5}),  # another strategy's parameter
        ("esrp", {"phi": 2}),  # a request field
    ])
    def test_bad_strategy_params_raise_at_construction(self, strategy, params):
        with pytest.raises(ConfigurationError, match="strategy_params"):
            SolveRequest(strategy=strategy, strategy_params=params)

    def test_strategy_params_the_builder_takes_are_accepted(self):
        from repro.api import STRATEGIES, register_strategy
        from repro.core import make_strategy

        SolveRequest(strategy="pv", strategy_params={"threshold": 1e-30, "mode": "forward"})
        SolveRequest(strategy="lossy_imcr", strategy_params={"error_bound": 1e-3})

        @register_strategy("forwarding_test")
        def build(**kwargs):
            return make_strategy("esr", **kwargs)

        try:  # a builder taking **kwargs checks its own keys
            SolveRequest(strategy="forwarding_test", strategy_params={"anything": 1})
        finally:
            STRATEGIES.unregister("forwarding_test")

    def test_phi_ge_n_nodes_raises_at_construction(self):
        with pytest.raises(ConfigurationError, match="phi=8 out of range"):
            SolveRequest(phi=8, n_nodes=8)
        # one short of the cluster size is fine
        SolveRequest(phi=7, n_nodes=8)

    def test_failure_rank_outside_cluster_raises(self):
        with pytest.raises(ConfigurationError, match="outside"):
            SolveRequest(failures=[FailureEvent(10, (9,))], n_nodes=4)

    def test_validate_for_session_size_mismatch(self):
        request = SolveRequest(n_nodes=8)
        with pytest.raises(ConfigurationError, match="targets n_nodes=8"):
            request.validate_for(4)

    def test_aliases_canonicalised(self):
        request = SolveRequest(strategy="CR", preconditioner="Block-Jacobi")
        assert request.strategy == "imcr"
        assert request.preconditioner == "block_jacobi"


class TestFailureNormalisation:
    def test_accepts_schedule_events_dicts_pairs(self):
        event = FailureEvent(5, (1,))
        for failures in (
            FailureSchedule([event]),
            [event],
            [{"iteration": 5, "ranks": [1]}],
            [(5, (1,))],
            event,
        ):
            request = SolveRequest(failures=failures)
            assert request.failures == (event,)

    def test_schedule_roundtrip_is_fresh(self):
        request = SolveRequest(failures=[(5, (1,))])
        first, second = request.schedule(), request.schedule()
        assert first is not second
        assert first.events == second.events == request.failures


class TestRequestJson:
    def test_round_trip(self):
        request = SolveRequest(
            strategy="esrp", T=15, phi=2, preconditioner="jacobi",
            precond_params={}, rtol=1e-9, maxiter=500,
            failures=[(7, (0, 1)), {"iteration": 30, "ranks": [2]}],
            rule="greedy", destinations="switch_aware", seed=42,
            n_nodes=8, label="cell-7",
        )
        text = request.to_json()
        assert json.loads(text)["strategy"] == "esrp"
        assert SolveRequest.from_json(text) == request

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown solve request keys"):
            SolveRequest.from_dict({"strategy": "esr", "bogus": 1})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid solve request JSON"):
            SolveRequest.from_json("{not json")


class TestReportJson:
    def _report(self):
        return SolveReport(
            request=SolveRequest(strategy="esr", phi=1),
            strategy="esr",
            converged=True,
            iterations=80,
            executed_iterations=85,
            relative_residual=1e-9,
            modeled_time=0.5,
            recovery_time=0.1,
            wall_time=0.2,
            n_failures=1,
            failure_iterations=(40,),
            stats={"bytes[spmv_halo]": 100.0},
            reference_time=0.4,
            reference_iterations=80,
            total_overhead=0.25,
            recovery_overhead=0.25,
            solution_error=1e-15,
        )

    def test_round_trip(self):
        report = self._report()
        restored = SolveReport.from_json(report.to_json())
        assert restored == report
        assert restored.wasted_iterations == 5

    def test_deserialised_report_has_no_solution_vector(self):
        restored = SolveReport.from_json(self._report().to_json())
        with pytest.raises(ConfigurationError, match="deserialised"):
            _ = restored.x
