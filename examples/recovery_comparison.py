#!/usr/bin/env python
"""Exact vs. approximate recovery — why ESR exists (paper §1.3, §2.1).

The paper recalls that restarting CG throws away the Krylov space: "if
the solver is restarted from the iterand ... reaching the solution
might require performing M additional iterations" [19].  This example
injects the same mid-solve failure and recovers with four methods:

* ESR                (this paper / [7, 20, 21]: exact state reconstruction)
* linear interpolation (Langou et al. [15]: iterand-only, local solve)
* least squares        (Agullo et al. [1]: iterand-only, LSQ)
* full restart         (start over from x0)

and prints the resulting convergence histories side by side.

Run:  python examples/recovery_comparison.py
"""

import numpy as np

import repro

N_NODES = 4


def sparkline(history, width=60):
    """Render a log-residual history as a coarse ASCII curve."""
    if not history:
        return ""
    logs = np.log10(np.maximum(np.asarray(history), 1e-16))
    lo, hi = logs.min(), max(logs.max(), logs.min() + 1e-9)
    # resample to the target width
    idx = np.linspace(0, len(logs) - 1, min(width, len(logs))).astype(int)
    levels = " .:-=+*#%@"
    chars = []
    for value in logs[idx]:
        level = int((hi - value) / (hi - lo) * (len(levels) - 1))
        chars.append(levels[level])
    return "".join(chars)


def main() -> None:
    # One session serves all five runs: the cluster, distributed matrix
    # and factorised preconditioner are set up once, and the reference
    # run doubles as the cached undisturbed trajectory.
    session = repro.SolverSession.from_problem("emilia_923_like", scale="tiny",
                                               n_nodes=N_NODES)
    reference = session.solve(repro.SolveRequest(strategy="reference")).result
    j_fail = reference.iterations // 2
    failure = repro.FailureEvent(iteration=j_fail, ranks=(1,))
    print(f"problem: n = {session.meta.n}; undisturbed C = {reference.iterations}; "
          f"failure of rank 1 at iteration {j_fail}\n")

    print(f"{'method':22s} {'iterations':>10s} {'extra':>6s}   convergence (|r|/|b|, log scale)")
    print(f"{'undisturbed':22s} {reference.iterations:10d} {0:6d}   {sparkline(reference.residual_history)}")
    labels = [
        ("ESR (exact)", "esr"),
        ("linear interpolation", "linear_interpolation"),
        ("least squares", "least_squares"),
        ("full restart", "full_restart"),
    ]
    for label, strategy in labels:
        report = session.solve(
            repro.SolveRequest(strategy=strategy, phi=1, failures=[failure])
        )
        assert report.converged
        extra = report.iterations - reference.iterations
        print(f"{label:22s} {report.iterations:10d} {extra:+6d}   "
              f"{sparkline(report.result.residual_history)}")
    assert session.setup_events["matrix"] == 1  # setup paid once for 5 runs

    print("\nESR continues the undisturbed trajectory (zero extra iterations);")
    print("the approximate methods restart the Krylov space and pay extra")
    print("iterations — the full restart pays the most.")


if __name__ == "__main__":
    main()
