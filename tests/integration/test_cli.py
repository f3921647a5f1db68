"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_failure, main
from repro.exceptions import ConfigurationError


class TestParseFailure:
    def test_single_rank(self):
        event = _parse_failure("40:2")
        assert event.iteration == 40
        assert event.ranks == (2,)

    def test_multiple_ranks(self):
        event = _parse_failure("10:0,1,2")
        assert event.ranks == (0, 1, 2)

    @pytest.mark.parametrize("bad", ["40", "x:1", "40:", "40:a,b", "-1:0"])
    def test_invalid_specs(self, bad):
        with pytest.raises(ConfigurationError):
            _parse_failure(bad)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "esrp" in out
        assert "block_jacobi" in out
        assert "emilia_923_like" in out

    def test_solve_tiny(self, capsys):
        code = main(
            [
                "solve",
                "--problem", "emilia_923_like",
                "--scale", "tiny",
                "--nodes", "4",
                "--strategy", "esrp",
                "-T", "10",
                "--phi", "2",
                "--fail", "30:0,1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "converged:          True" in out
        assert "failures survived:  1" in out

    def test_solve_with_events(self, capsys):
        code = main(
            ["solve", "--problem", "emilia_923_like", "--scale", "tiny",
             "--nodes", "4", "--strategy", "esr", "--fail", "20:1", "--events"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "event timeline:" in out
        assert "node_failure" in out

    def test_solve_matrix_file(self, capsys, tmp_path):
        from repro.matrices import random_banded_spd, write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(path, random_banded_spd(32, bandwidth=3, seed=1))
        code = main(
            ["solve", "--matrix-file", str(path), "--nodes", "4",
             "--strategy", "reference"]
        )
        assert code == 0
        assert "m.mtx" in capsys.readouterr().out

    def test_bad_failure_spec_reports_error(self, capsys):
        code = main(
            ["solve", "--problem", "emilia_923_like", "--scale", "tiny",
             "--fail", "banana"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestExperimentCommand:
    def test_experiment_quick_tiny(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_NODES", "4")
        code = main(["experiment", "--problem", "emilia_923_like", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Overheads for emilia_923_like" in out
        assert "ESR" in out and "IMCR" in out
        assert "[paper: t0 = 14.66 s, C = 10279" in out

    def test_experiment_without_paper_table(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        monkeypatch.setenv("REPRO_NODES", "4")
        code = main(["experiment", "--problem", "poisson3d", "--quick"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Overheads for poisson3d" in out
        assert "[paper:" not in out
        cells = out.rsplit("-----\n", 1)[1]
        assert "ESR" in cells and "(" not in cells  # no paper values beside cells
