"""Property: a report's bits do not depend on the BLAS thread count.

OpenBLAS splits a ``ddot`` across threads above ~10 000 entries, and
the split changes the association of the sum.  The engine's canonical
reduction (:func:`repro.kernels.base.flat_dot`) never hands BLAS a
slice that large, so the same solve must report the same bits whether
BLAS runs on one thread or two — and so must the Table 4 residual drift
computed from it.  The problem is sized so that a node
block (16 384 rows) and every whole vector lie above the cutoff.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="needs >= 2 CPUs for a two-thread BLAS"
)

SCRIPT = """
import json
import repro
from repro.solvers import drift_from_result
from repro.matrices import load

matrix, b, _ = load("poisson3d", "bench")
session = repro.SolverSession(matrix, b, n_nodes=2, seed=0)
request = repro.SolveRequest(
    strategy="esrp", T=20, phi=1, failures=[repro.FailureEvent(30, (1,))]
)
solved = session.solve(request, with_reference=True)
report = solved.to_dict()
report.pop("wall_time")
# Table 4's residual drift, recomputed from the final iterate.
report["drift"] = drift_from_result(matrix, b, solved.result)
print(json.dumps(report, sort_keys=True))
"""


def _solve_with_threads(threads: int) -> subprocess.Popen:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (os.path.abspath(src), env.get("PYTHONPATH")))
    )
    return subprocess.Popen(
        [sys.executable, "-c", SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_report_is_identical_at_one_and_two_blas_threads():
    processes = [_solve_with_threads(threads) for threads in (1, 2)]
    reports = []
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err
        reports.append(json.loads(out))
    one, two = reports
    assert one["converged"] and one["solution_error"] is not None
    assert one == two
