#!/usr/bin/env python
"""Fault-taxonomy demo: a silent error caught, rolled back, survived.

The fail-stop world of the paper is binary — a node dies and everyone
knows.  The fault subsystem (:mod:`repro.faults`) widens that into a
taxonomy; this demo walks its flagship member, silent data corruption:

1. inject a seeded SDC strike into x mid-solve and let the
   periodic-verification strategy (``pv``) catch it via the recomputed
   true residual, roll back to its verified checkpoint, and still
   converge to the reference solution;
2. run the *same* corruption under a blind exact strategy (``esrp``)
   and show it silently converging to a wrong answer — the recursive
   residual stays consistent while x drifts.

Fault injection mutates owned blocks and consults no kernel code, so
it is backend-invariant.

Run:  python examples/faults_demo.py
"""

import numpy as np

import repro
from repro.events import EventKind
from repro.cluster.failures import FailureSchedule
from repro.faults import SDCEvent
from repro.matrices import poisson_2d

N_NODES = 4


def corruption() -> FailureSchedule:
    """One deterministic strike on rank 1's block of x at iteration 12."""
    return FailureSchedule([
        SDCEvent(iteration=12, rank=1, vector="x", mode="scale",
                 magnitude=1e-2, seed=42),
    ])


def fault_counters(result) -> dict:
    return {
        key[len("faults["):-1]: int(value)
        for key, value in result.stats.items()
        if key.startswith("faults[")
    }


def main() -> None:
    matrix = poisson_2d(16)
    b = np.ones(matrix.shape[0])
    reference = repro.solve(matrix, b, n_nodes=N_NODES, strategy="reference")
    print(f"problem: poisson_2d(16), n={matrix.shape[0]}, "
          f"reference converges in C={reference.iterations} iterations\n")

    # 1. pv: verify every 10th iteration against the true residual.
    checked = repro.solve(
        matrix, b, n_nodes=N_NODES, strategy="pv", T=10, phi=1,
        failures=corruption(),
    )
    detections = [
        e for e in checked.events if e.kind == EventKind.SDC_DETECTED
    ]
    rollbacks = [e for e in checked.events if e.kind == EventKind.ROLLBACK]
    print("pv (periodic verification, T=10):")
    print(f"  converged in {checked.iterations} iterations "
          f"({checked.executed_iterations} executed)")
    for event in detections:
        print(f"  detected at iteration {event.iteration}: "
              f"residual gap {event.detail['gap']:.2e}")
    for event in rollbacks:
        print(f"  rolled back to iteration {event.detail['resume_iteration']} "
              f"({event.detail['wasted']} iterations re-run)")
    print(f"  fault counters: {fault_counters(checked)}")
    checked_error = (
        np.linalg.norm(checked.x - reference.x) / np.linalg.norm(reference.x)
    )
    print(f"  solution error vs reference: {checked_error:.2e}\n")

    # 2. The same strike under a strategy with no verification.
    blind = repro.solve(
        matrix, b, n_nodes=N_NODES, strategy="esrp", T=10, phi=1,
        failures=corruption(),
    )
    blind_error = (
        np.linalg.norm(blind.x - reference.x) / np.linalg.norm(reference.x)
    )
    print("esrp (no verification), same corruption:")
    print(f"  converged in {blind.iterations} iterations — but silently:")
    print(f"  fault counters: {fault_counters(blind)}")
    print(f"  solution error vs reference: {blind_error:.2e} "
          f"(pv: {checked_error:.2e})\n")

    # The demo doubles as a CI gate.
    assert checked.converged and blind.converged
    assert len(detections) == 1 and len(rollbacks) >= 1
    assert fault_counters(checked)["sdc_detected"] == 1
    assert "sdc_detected" not in fault_counters(blind)
    assert checked_error < 1e-6 < blind_error
    print("faults demo OK")


if __name__ == "__main__":
    main()
