"""Property: the engine runs the serial PCG trajectory, bit for bit.

:mod:`tests.oracle` is a serial textbook PCG.  For every strategy whose
numerics do not depend on the values it protects — ``reference``,
``esr``, ``esrp`` and ``imcr`` — and every interval, ϕ, extra-entry
rule and destination policy, a failure-free solve must end on the
oracle's ``x`` and report its residual history, under every
block-diagonal preconditioner (the oracle applies it as one global
operator).  With a node-independent preconditioner
(Jacobi) that holds for every node count.

With fail-stop failures (drawn under the cheap preconditioners; the
SSOR and IC(0) recoveries are pinned by ``test_accounting_pin.py``):

* IMCR restores a checkpoint of the same trajectory, so it ends on the
  failure-free bits, and its history is the oracle's with the
  rolled-back iterations executed twice;
* ESR/ESRP reconstruct the lost state by an inner solve, so they land
  within 10⁻¹³ (relative) of the oracle's iterate.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro
from repro.events import EventKind
from repro.matrices import poisson_2d
from repro.preconditioners import make_preconditioner

from ..oracle import global_operator, serial_pcg

STRATEGIES = ("reference", "esr", "esrp", "imcr")
#: (grid edge, nodes) each preconditioner is checked on.  16 nodes span
#: two leaf switches, so ``switch_aware`` differs from Eq. 1 there.  A
#: per-rank triangular solve costs ~0.7 ms of scipy overhead, so the
#: SSOR and IC(0) cells run on a smaller grid over fewer nodes.
CASES = {
    "jacobi": (12, 16),
    "block_jacobi": (12, 16),
    "block_ssor": (6, 4),
    "block_ichol": (6, 4),
}


@functools.lru_cache(maxsize=None)
def _problem(edge: int):
    """2-D Poisson plus a random diagonal, so Jacobi is not a plain scale."""
    n = edge * edge
    matrix = (poisson_2d(edge) + sp.diags(np.random.default_rng(3).random(n))).tocsr()
    return matrix, matrix @ np.random.default_rng(7).standard_normal(n)


@functools.lru_cache(maxsize=None)
def _session(edge: int, n_nodes: int) -> repro.SolverSession:
    return repro.SolverSession(*_problem(edge), n_nodes=n_nodes, seed=0)


@functools.lru_cache(maxsize=None)
def _oracle(preconditioner: str, iterations: int | None = None):
    """The oracle to convergence, or for exactly ``iterations`` steps."""
    edge, n_nodes = CASES[preconditioner]
    precond = make_preconditioner(preconditioner)
    precond.setup(_session(edge, n_nodes).matrix)
    matrix, b = _problem(edge)
    if iterations is None:
        return serial_pcg(matrix, b, global_operator(precond))
    return serial_pcg(matrix, b, global_operator(precond), rtol=0.0, maxiter=iterations)


def _solve(preconditioner: str, **request) -> repro.SolveReport:
    session = _session(*CASES[preconditioner])
    return session.solve(repro.SolveRequest(preconditioner=preconditioner, **request))


def _assert_on_oracle(report, preconditioner: str) -> None:
    x, history = _oracle(preconditioner)
    assert report.converged
    assert report.iterations == report.executed_iterations == len(history)
    assert np.array_equal(report.x, x)
    assert report.result.residual_history == history


@st.composite
def fail_stop_events(draw, preconditioner: str, phi: int):
    """1-3 recoverable events: a block of ≤ ϕ ranks at distinct iterations."""
    n_nodes = CASES[preconditioner][1]
    C = len(_oracle(preconditioner)[1])
    iterations = draw(
        st.lists(st.integers(1, C - 1), min_size=1, max_size=3, unique=True)
    )
    events = []
    for iteration in sorted(iterations):
        width = draw(st.integers(1, phi))
        start = draw(st.integers(0, n_nodes - width))
        events.append(repro.FailureEvent(iteration, tuple(range(start, start + width))))
    return events


request_cells = st.fixed_dictionaries({
    "strategy": st.sampled_from(STRATEGIES),
    "T": st.sampled_from([1, 3, 7, 20, 50]),
    "phi": st.integers(1, 3),
    "rule": st.sampled_from(["paper", "greedy"]),
    "destinations": st.sampled_from(["eq1", "switch_aware"]),
})


@settings(max_examples=30, deadline=None)
@given(cell=request_cells, preconditioner=st.sampled_from(["jacobi", "block_jacobi"]))
def test_failure_free_solve_is_the_oracle(cell, preconditioner):
    _assert_on_oracle(_solve(preconditioner, **cell), preconditioner)


@settings(max_examples=5, deadline=None)
@given(cell=request_cells, preconditioner=st.sampled_from(["block_ssor", "block_ichol"]))
def test_failure_free_solve_is_the_oracle_under_triangular_solves(cell, preconditioner):
    _assert_on_oracle(_solve(preconditioner, **cell), preconditioner)


@settings(max_examples=10, deadline=None)
@given(n_nodes=st.sampled_from([2, 4, 8]), strategy=st.sampled_from(STRATEGIES),
       T=st.sampled_from([1, 5, 20]))
def test_jacobi_solve_is_the_oracle_on_any_node_count(n_nodes, strategy, T):
    report = _session(CASES["jacobi"][0], n_nodes).solve(
        repro.SolveRequest(strategy=strategy, T=T, phi=1, preconditioner="jacobi")
    )
    # Jacobi does not depend on the partition: one oracle for all counts.
    _assert_on_oracle(report, "jacobi")


@settings(max_examples=20, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 3, 7, 20]), phi=st.integers(1, 3),
       preconditioner=st.sampled_from(["jacobi", "block_jacobi"]))
def test_imcr_under_fail_stop_failures_ends_on_the_oracle(data, T, phi, preconditioner):
    x, history = _oracle(preconditioner)
    events = data.draw(fail_stop_events(preconditioner, phi))
    report = _solve(preconditioner, strategy="imcr", T=T, phi=phi, failures=events)
    assert report.converged
    assert np.array_equal(report.x, x)
    # Splice: each rollback at j back to a checkpoint c re-executes c..j-1.
    expected, done = [], 0
    for rollback in report.result.events.of_kind(EventKind.ROLLBACK):
        expected += history[done : rollback.iteration]
        done = rollback.detail["resume_iteration"]
    expected += history[done:]
    assert report.result.residual_history == expected
    assert report.executed_iterations == len(expected)


@settings(max_examples=15, deadline=None)
@given(data=st.data(), strategy=st.sampled_from(["esr", "esrp"]),
       T=st.sampled_from([3, 7, 20]), phi=st.integers(1, 3),
       preconditioner=st.sampled_from(["jacobi", "block_jacobi"]))
def test_esr_and_esrp_recover_onto_the_oracle(data, strategy, T, phi, preconditioner):
    events = data.draw(fail_stop_events(preconditioner, phi))
    report = _solve(preconditioner, strategy=strategy, T=T, phi=phi, failures=events)
    assert report.converged
    # The oracle's iterate after as many iterations as the solve took.
    x, _ = _oracle(preconditioner, report.iterations)
    error = np.linalg.norm(report.x - x) / np.linalg.norm(x)
    assert error <= 1e-13, error
