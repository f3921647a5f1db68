"""Every bench that solves goes through ``SolverSession``.

The session owns replay, fast-forward, reference caching and request
validation; a bench that wires its own cluster, distributed matrix or
engine bypasses all of them.  The layer-ladder benchmark under
``benchmarks/e2e`` times the layers below the session on purpose, so it
is not scanned.
"""

import pathlib
import re

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
SIDE_DOORS = re.compile(r"\b(PCGEngine|VirtualCluster|DistributedMatrix)\(")


def test_no_bench_assembles_a_solve_by_hand():
    scripts = sorted(BENCHMARKS.glob("bench_*.py"))
    assert scripts
    offenders = [
        f"{path.name}: {match.group(0)}"
        for path in scripts
        for match in SIDE_DOORS.finditer(path.read_text())
    ]
    assert not offenders, f"construct through SolverSession instead: {offenders}"
