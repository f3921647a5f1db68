"""The paper's Table 2/3 grid run as a campaign, on a tiny configuration.

:func:`repro.campaign.paper_table_spec` declares the grid,
:func:`repro.campaign.execute_campaign` runs it and
:func:`repro.harness.paper_table` lays the records out as table cells.
"""

import dataclasses

import pytest

from repro.campaign import CampaignResult, execute_campaign, paper_table_spec
from repro.campaign.spec import expand_spec
from repro.exceptions import ConfigurationError
from repro.harness import paper_table

PROBLEM = "emilia_923_like"


@pytest.fixture(scope="module")
def campaign():
    spec = paper_table_spec(PROBLEM, quick=True)
    tiny = dataclasses.replace(spec, problems=((PROBLEM, "tiny"),), n_nodes=4)
    return execute_campaign(tiny, workers=0)


@pytest.fixture(scope="module")
def results(campaign):
    return paper_table(campaign, PROBLEM)


class TestReference:
    def test_reference_iterations_positive(self, results):
        assert results["C"] > 20
        assert results["t0"] > 0


class TestCells:
    def test_failure_free_cell(self, campaign):
        failure_free = CampaignResult(
            campaign.spec,
            [r for r in campaign if r.scenario_kind == "failure_free"],
        )
        cell = paper_table(failure_free, PROBLEM)["cells"][("esrp", 20, 1)]
        assert set(cell) == {"failure_free"}  # no failure columns
        assert cell["failure_free"] > 0  # redundancy is never free

    def test_failure_cell(self, results):
        for cell in results["cells"].values():
            for location in ("start", "center"):
                assert cell[(location, "total")] > 0
                assert cell[(location, "reconstruction")] >= 0

    def test_imcr_reconstruction_much_smaller_than_esrp(self, results):
        for phi in (1, 3):
            esrp = results["cells"][("esrp", 20, phi)]
            imcr = results["cells"][("imcr", 20, phi)]
            assert imcr[("start", "reconstruction")] < esrp[("start", "reconstruction")]


class TestFullGrid:
    def test_run_table_structure(self, results):
        assert set(results["cells"]) == {
            (strategy, T, phi)
            for strategy, intervals in (("esrp", (1, 20, 50)), ("imcr", (20, 50)))
            for T in intervals
            for phi in (1, 3)
        }
        for cell in results["cells"].values():
            assert set(cell) == {
                "failure_free",
                ("start", "total"),
                ("start", "reconstruction"),
                ("center", "total"),
                ("center", "reconstruction"),
            }
        drift = results["drift"]
        assert set(drift) == {"reference", "median", "minimum"}
        assert drift["minimum"] <= drift["median"]

    @pytest.mark.parametrize("quick, runs", [(False, 64), (True, 31)])
    def test_grid_size(self, quick, runs):
        # one reference run + every (strategy, T, phi) cell failure-free
        # and with failures at two locations
        assert len(expand_spec(paper_table_spec(PROBLEM, quick=quick))) == runs

    def test_stored_results_give_the_same_table(self, campaign, results, tmp_path):
        for stored in (
            CampaignResult.from_json(campaign.to_json(tmp_path / "grid.json")),
            CampaignResult.from_csv(campaign.to_csv(tmp_path / "grid.csv")),
        ):
            assert paper_table(stored, PROBLEM) == results

    def test_missing_reference_is_an_error(self, campaign):
        without = CampaignResult(
            campaign.spec, [r for r in campaign if r.strategy != "reference"]
        )
        with pytest.raises(ConfigurationError):
            paper_table(without, PROBLEM)
