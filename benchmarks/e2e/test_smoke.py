"""Smoke test of the layer-ladder benchmark (not part of tier-1).

    pytest benchmarks/e2e -c /dev/null

Runs ``run.py --smoke --trace`` twice with one seed and asserts that
every correctness check passed and that everything simulated or counted
agrees *exactly* between the two runs — host-clock metrics may differ,
the simulated clock and the counters may not.  ``paper_ff_dev_pp`` and
``serve_ms_p95`` cannot come from every workload, so ``BENCHMARK.json``
cannot list them; they are held here.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: Exact by construction: the simulated clock, operation counts and
#: numbers computed from array sizes.
EXACT_PREFIXES = ("core.sim_", "cluster.", "paper_", "core.paper_")
EXACT_METRICS = {
    "core.wasted_iters", "core.peak_redundancy_bytes", "solvers.iterations",
    "kernels.computed_mem_bytes_per_iter", "kernels.flops_per_mem_byte",
}
EXACT_FIELDS = ("sim_digest", "sim_digest_serve", "ops_attempted", "ops_failed",
                "runs", "upper_runs")
#: ``paper_ff_dev_pp`` of the smoke-sized ``paper_grid`` at the commit that
#: added the benchmark, and the worsening the issue allows (absolute).
PAPER_FF_DEV_PP_SMOKE, PAPER_FF_DEV_PP_BOUND = 0.396653, 0.1


def smoke_run(out: pathlib.Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--seed", "2020",
         "--out", str(out), "--trace-out", str(out.with_suffix(".trace.json"))],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    return json.loads(out.read_text())


def exact_view(run: dict) -> dict:
    view = {field: run[field] for field in EXACT_FIELDS}
    view.update(
        (name, value) for name, value in run["metrics"].items()
        if name in EXACT_METRICS or name.startswith(EXACT_PREFIXES)
    )
    return view


def test_smoke_runs_agree_exactly(tmp_path):
    first = smoke_run(tmp_path / "first.json")
    second = smoke_run(tmp_path / "second.json")
    contract = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert set(first["workloads"]) == {w["name"] for w in contract["workloads"]}
    assert first["host"]["cpu_count"] >= 1 and "numba_importable" in first["host"]
    for name, row in first["workloads"].items():
        for mode, listed in (("untraced", "end_to_end"), ("traced", "per_layer")):
            run, again = row[mode], second["workloads"][name][mode]
            assert run["correct"] and run["ops_failed"] == 0, run["problems"]
            missing = {m["name"] for m in contract[listed]} - set(run["metrics"])
            assert not missing, f"{name} ({mode}) lacks {sorted(missing)}"
            assert exact_view(run) == exact_view(again), f"{name} ({mode})"
        # session, campaign and queue share a cost model and a digest
        # (checked inside the run); traced and untraced runs must too.
        assert row["untraced"]["sim_digest"] == row["traced"]["sim_digest"]
    paper = first["workloads"]["paper_grid"]["untraced"]["metrics"]["paper_ff_dev_pp"]
    assert paper <= PAPER_FF_DEV_PP_SMOKE + PAPER_FF_DEV_PP_BOUND
    events = json.loads((tmp_path / "first.trace.json").read_text())["traceEvents"]
    assert {e["ph"] for e in events} == {"M", "X"}
    assert all(e["dur"] >= 0 and "ts" in e for e in events if e["ph"] == "X")


def test_ladder_tiny_pools_enough_samples_for_p95(tmp_path):
    """A full-size ``ladder_tiny`` pools 1-client passes until
    ``serve_ms_p95`` has its 200 samples, however short ``--seconds`` is."""
    out = tmp_path / "tiny.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ladder_tiny",
         "--seconds", "1", "--out", str(out)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    run = json.loads(out.read_text())
    assert run["info"]["serve_ms_p95"]["samples"] >= 200
    p50 = run["info"]["serve_ms_p50"]["median"]
    assert run["metrics"]["serve_ms_p95"] >= p50 > 0
