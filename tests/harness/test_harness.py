"""Tests for metrics, the paper grid spec, failure placement, tables and figures."""

import numpy as np
import pytest

import repro
from repro.campaign import StrategySpec, paper_table_spec
from repro.campaign.results import median
from repro.campaign.scenarios import place_worst_case_failure
from repro.exceptions import ConfigurationError
from repro.harness import (
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLES,
    render_drift_table,
    render_overhead_table,
)
from repro.harness.figures import ascii_log_plot, overhead_series, render_queue_trace
from repro.matrices import poisson_1d
from repro.solvers import drift_from_result, residual_drift, true_residual_norm


class TestMetrics:
    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0, 3.0, 4.0]) == 2.5

    def test_median_empty(self):
        with pytest.raises(ConfigurationError):
            median([])

    def test_true_residual_norm(self):
        a = poisson_1d(10)
        x = np.ones(10)
        b = a @ x
        assert true_residual_norm(a, b, x) == pytest.approx(0.0, abs=1e-12)

    def test_residual_drift_sign_convention(self):
        a = poisson_1d(10)
        x = np.linspace(0, 1, 10)
        b = a @ x + 1e-6
        true_norm = true_residual_norm(a, b, x)
        # recursive norm smaller than true norm => negative drift
        assert residual_drift(a, b, x, 0.5 * true_norm) < 0
        # recursive norm larger => positive drift
        assert residual_drift(a, b, x, 2.0 * true_norm) > 0

    def test_drift_from_result_consistent(self):
        matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
        result = repro.solve(matrix, b, n_nodes=4, strategy="reference")
        drift = drift_from_result(matrix, b, result)
        # converged solve: recursive and true residuals are both tiny,
        # drift is an O(1)-ish relative quantity
        assert np.isfinite(drift)
        assert abs(drift) < 1.0


class TestFailurePlacement:
    def test_esr_at_half(self):
        assert place_worst_case_failure("esr", 1, 1000) == 500

    def test_esrp_two_before_next_stage(self):
        # recovery points at kT+1 for T=50: 51, 101, ... C/2=500 sits in
        # [451, 501): next point 501 -> failure at 499
        assert place_worst_case_failure("esrp", 50, 1000) == 499

    def test_esrp_small_t(self):
        # T<=2 degenerates to ESR
        assert place_worst_case_failure("esrp", 1, 500) == 250

    def test_imcr_two_before_next_checkpoint(self):
        # checkpoints at kT for T=50; C/2=500 -> next checkpoint 550 -> 548
        assert place_worst_case_failure("imcr", 50, 1000) == 548

    def test_imcr_t20(self):
        # C = 10279: C/2 = 5139 sits in [5120, 5140); failure at 5138
        assert place_worst_case_failure("imcr", 20, 10279) == 5138

    def test_wasted_iterations_are_t_minus_2(self):
        # failure at next_point-2 means T-2 iterations are re-executed
        T, C = 20, 1000
        j_fail = place_worst_case_failure("esrp", T, C)
        k = (j_fail + 2 - 1) // T  # stage whose completion is j_fail+2
        resume = (k) * T + 1 - T  # previous completed stage
        assert (j_fail - ((k - 1) * T + 1)) == T - 2

    def test_unknown_strategy(self):
        with pytest.raises(ConfigurationError):
            place_worst_case_failure("magic", 10, 100)

    def test_invalid_iterations(self):
        with pytest.raises(ConfigurationError):
            place_worst_case_failure("esr", 1, 0)


class TestConfig:
    def test_paper_defaults(self):
        spec = paper_table_spec("emilia_923_like")
        assert spec.problems == (("emilia_923_like", "bench"),)
        assert spec.n_nodes == 32
        assert spec.phis == (1, 3, 8)
        assert spec.strategies == (
            StrategySpec("reference"),
            StrategySpec("esrp", (1, 20, 50, 100)),
            StrategySpec("imcr", (20, 50, 100)),
        )
        assert [s.label for s in spec.scenarios] == [
            "failure_free",
            "worst_case(location=start)",
            "worst_case(location=center)",
        ]

    def test_phi_must_fit_cluster(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "8")
        with pytest.raises(ConfigurationError):
            paper_table_spec("emilia_923_like")  # phi = 8 needs 9 nodes

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_NODES", "4")
        spec = paper_table_spec("emilia_923_like", quick=True)
        assert spec.problems == (("emilia_923_like", "tiny"),)
        assert spec.n_nodes == 4

    def test_bad_env_int(self, monkeypatch):
        monkeypatch.setenv("REPRO_NODES", "lots")
        with pytest.raises(ConfigurationError):
            paper_table_spec("emilia_923_like")


class TestPaperData:
    @pytest.mark.parametrize("table", [PAPER_TABLE2, PAPER_TABLE3])
    def test_tables_complete(self, table):
        assert set(table["cells"]) == {
            ("esrp", 1),
            ("esrp", 20),
            ("esrp", 50),
            ("esrp", 100),
            ("imcr", 20),
            ("imcr", 50),
            ("imcr", 100),
        }
        for cell in table["cells"].values():
            assert set(cell["failure_free"]) == {1, 3, 8}
            for loc in ("start", "center"):
                assert set(cell[(loc, "total")]) == {1, 3, 8}
                assert set(cell[(loc, "reconstruction")]) == {1, 3, 8}

    def test_imcr_reconstruction_zero_in_paper(self):
        for T in (20, 50, 100):
            cell = PAPER_TABLE2["cells"][("imcr", T)]
            assert all(v == 0.0 for v in cell[("start", "reconstruction")].values())

    def test_paper_tables_by_problem(self):
        assert PAPER_TABLES == {
            "emilia_923_like": PAPER_TABLE2,
            "audikw_1_like": PAPER_TABLE3,
        }
        assert PAPER_TABLES.get("poisson3d") is None

    def test_table4_entries(self):
        assert set(PAPER_TABLE4) == {"Emilia_923", "audikw_1"}
        for row in PAPER_TABLE4.values():
            assert row["minimum"] <= row["median"]


def fake_results():
    return {
        "t0": 1.0,
        "C": 100,
        "n": 64,
        "nnz": 300,
        "cells": {
            ("esrp", 1, 1): {
                "failure_free": 0.05,
                ("start", "total"): 0.10,
                ("start", "reconstruction"): 0.02,
                ("center", "total"): 0.09,
                ("center", "reconstruction"): 0.02,
            },
            ("imcr", 20, 1): {
                "failure_free": 0.03,
                ("start", "total"): 0.04,
                ("start", "reconstruction"): 0.0,
                ("center", "total"): 0.05,
                ("center", "reconstruction"): 0.0,
            },
        },
    }


class TestRenderers:
    def test_overhead_table_contains_cells(self):
        text = render_overhead_table(fake_results(), phis=(1,), title="Table X")
        assert "Table X" in text
        assert "ESR" in text  # esrp at T=1 is printed as ESR
        assert "IMCR" in text
        assert "10.0" in text and " 3.0" in text

    def test_overhead_table_with_paper_reference(self):
        text = render_overhead_table(
            fake_results(), phis=(1,), paper={"t0": 14.66, "C": 10279, "cells": {}}
        )
        assert "paper" in text

    def test_overhead_table_requires_cells(self):
        with pytest.raises(ConfigurationError):
            render_overhead_table({"t0": 1.0}, phis=(1,))

    def test_drift_table(self):
        text = render_drift_table(
            {"emilia_923_like": {"reference": -0.04, "median": -0.05, "minimum": -0.06}},
            paper={"emilia_923_like": {"reference": -0.044, "median": -0.047, "minimum": -0.056}},
        )
        assert "emilia_923_like" in text
        assert "[paper]" in text

    def test_overhead_series_extraction(self):
        series = overhead_series(fake_results(), phis=(1,), with_failures=False)
        esrp = next(s for s in series if s.strategy == "esrp")
        assert esrp.values == (0.05,)
        with_failures = overhead_series(fake_results(), phis=(1,), with_failures=True)
        esrp_f = next(s for s in with_failures if s.strategy == "esrp")
        assert esrp_f.values[0] == pytest.approx(0.095)  # median of both locations

    def test_ascii_plot_renders(self):
        series = overhead_series(fake_results(), phis=(1,), with_failures=False)
        text = ascii_log_plot(series, intervals=(20,), title="fig")
        assert "fig" in text
        assert "markers" in text

    def test_queue_trace_from_real_run(self):
        matrix, b, _ = repro.matrices.load("emilia_923_like", scale="tiny")
        result = repro.solve(matrix, b, n_nodes=4, strategy="esrp", T=10, phi=1)
        text = render_queue_trace(result.events, T=10)
        assert "p'(10)" in text
        assert "recovery point" in text
