#!/usr/bin/env python
"""Steady-state heat conduction with node failures (paper §1 motivation).

The paper motivates PCG resilience with elliptic PDEs — "heat
conduction and elastic deformation of materials".  This example builds
a 3-D variable-conductivity heat problem (layered material with
inclusions, insulated side walls), solves it with ESRP on a virtual
cluster, and compares the failure-free overhead and the cost of a
worst-case double node failure against plain ESR and IMCR.

Run:  python examples/heat_conduction.py
"""

import numpy as np

import repro
from repro.campaign.scenarios import place_worst_case_failure
from repro.matrices.poisson import layered_kappa_field, variable_poisson_3d

N_NODES = 8
PHI = 2
T = 20


def build_problem():
    """A 4x4x120 bar: hot end held at fixed temperature, sides insulated."""
    grid = (4, 4, 120)
    kappa = layered_kappa_field(grid, n_layers=5, contrast=25.0, inclusion_sigma=0.5, seed=11)
    matrix = variable_poisson_3d(grid, kappa, dirichlet_axes=(0,))
    rng = np.random.default_rng(11)
    heat_sources = np.maximum(rng.standard_normal(matrix.shape[0]), 0.0)
    return matrix.tocsr(), heat_sources


def overhead(time, t0):
    return 100.0 * (time - t0) / t0


def main() -> None:
    matrix, b = build_problem()
    print(f"heat-conduction problem: n = {matrix.shape[0]}, nnz = {matrix.nnz}")

    reference = repro.solve(matrix, b, n_nodes=N_NODES, strategy="reference")
    t0 = reference.modeled_time
    print(f"reference: C = {reference.iterations} iterations, t0 = {t0 * 1e3:.2f} ms\n")

    rows = []
    for label, strategy, interval in [
        ("ESR  (T=1)  ", "esr", 1),
        (f"ESRP (T={T}) ", "esrp", T),
        (f"IMCR (T={T}) ", "imcr", T),
    ]:
        failure_free = repro.solve(
            matrix, b, n_nodes=N_NODES, strategy=strategy, T=interval, phi=PHI
        )
        j_fail = place_worst_case_failure(strategy, interval, reference.iterations)
        failed = repro.solve(
            matrix,
            b,
            n_nodes=N_NODES,
            strategy=strategy,
            T=interval,
            phi=PHI,
            failures=[repro.FailureEvent(j_fail, (3, 4))],
        )
        assert failed.converged
        error = np.linalg.norm(failed.x - reference.x) / np.linalg.norm(reference.x)
        rows.append(
            (
                label,
                overhead(failure_free.modeled_time, t0),
                overhead(failed.modeled_time, t0),
                100.0 * failed.recovery_time / t0,
                failed.wasted_iterations,
                error,
            )
        )

    print(f"{'strategy':13s} {'ff ovh':>8s} {'fail ovh':>9s} {'recon':>7s} "
          f"{'wasted':>7s} {'|dx|/|x|':>10s}")
    for label, ff, tot, rec, wasted, err in rows:
        print(f"{label:13s} {ff:7.2f}% {tot:8.2f}% {rec:6.2f}% {wasted:7d} {err:10.2e}")

    print("\nreading: ESRP pays far less than ESR when no failure happens;")
    print("IMCR recovers almost for free but pays checkpoint traffic;")
    print("all three recover the exact solution (|dx| ~ machine precision).")


if __name__ == "__main__":
    main()
