"""Property: a replayed solve reports exactly what the real solve reports.

A session replays a request whose numerics provably stay on its cached
reference trajectory (see "Replay" in :mod:`repro.api.session`): the
engine loop runs on a bill-only twin of ``vectorized`` that answers its
reductions from the reference's recording.  An ESR/ESRP solve under
failures is fast-forwarded: replayed up to a snapshot of the
reference's state, computed from there.  Here every replayed or
fast-forwarded solve is checked against the same request forced
through the real numerics by a plugin subclass of ``VectorizedBackend``
(plugins never replay): the report dict minus ``wall_time``, the
residual history, the event log, ``x`` and every value the engine read
from a reduction must be equal, under a noisy cost model so the noise
draws are compared too.  Requests outside the rule must replay nothing,
and the snapshots must be the serial oracle's state, never aliased,
bounded, and independent of the reference spool.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro
from repro.api.registry import KERNELS
from repro.campaign.scenarios import ScenarioContext, ScenarioSpec, generate_schedule
from repro.cluster import CostModel, VirtualCluster
from repro.distribution import BlockRowPartition, DistributedVector
from repro.exceptions import ConvergenceError
from repro.kernels import VectorizedBackend
from repro.kernels.replay import ReplayBackend
from repro.matrices import poisson_2d
from repro.preconditioners import make_preconditioner
from repro.solvers.engine import PCGEngine
from repro.solvers.state import PCGState

from ..oracle import global_operator, serial_pcg

#: (grid edge, nodes) per block-diagonal preconditioner, as in
#: ``test_oracle.py``: 16 nodes span two leaf switches.
CASES = {
    "jacobi": (12, 16),
    "block_jacobi": (12, 16),
    "block_ssor": (6, 4),
    "block_ichol": (6, 4),
}
NOISY = CostModel(noise=0.05)
REAL = "test_replay_real"


class _Real(VectorizedBackend):
    """``vectorized`` under another name: a plugin, so it never replays."""


#: The engine of the latest solve (its only entry).
ENGINES: list[PCGEngine] = []


@pytest.fixture(autouse=True, scope="module")
def real_backend_and_engines():
    """Register ``REAL``; keep each solve's engine to read its reductions."""
    solve = PCGEngine.solve

    def keep_engine(self, *args, **kwargs):
        ENGINES.append(self)
        del ENGINES[:-1]
        return solve(self, *args, **kwargs)

    KERNELS.register(REAL, _Real)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PCGEngine, "solve", keep_engine)
        yield
    KERNELS.unregister(REAL)


@functools.lru_cache(maxsize=None)
def _problem(edge: int):
    n = edge * edge
    matrix = (poisson_2d(edge) + sp.diags(np.random.default_rng(3).random(n))).tocsr()
    return matrix, matrix @ np.random.default_rng(7).standard_normal(n)


@functools.lru_cache(maxsize=None)
def _session(preconditioner: str) -> repro.SolverSession:
    """A session with ``preconditioner``'s reference cached (so it replays)."""
    edge, n_nodes = CASES[preconditioner]
    session = repro.SolverSession(*_problem(edge), n_nodes=n_nodes, cost_model=NOISY)
    session.reference(preconditioner=preconditioner)
    return session


def _reference_iterations(preconditioner: str) -> int:
    return _session(preconditioner).reference(preconditioner=preconditioner).C


def _comparable(report: repro.SolveReport) -> dict:
    data = report.to_dict()
    data.pop("wall_time")
    data["request"]["backend"] = None
    return data


def _solve_keeping_engine(session, request):
    report = session.solve(request)
    return report, ENGINES[-1]


def _assert_is_the_real_solve(request: repro.SolveRequest, session) -> repro.SolveReport:
    """Solve ``request`` as the session likes and forced real; return the former."""
    report, engine = _solve_keeping_engine(session, request)
    real, real_engine = _solve_keeping_engine(
        session, dataclasses.replace(request, backend=REAL)
    )
    assert engine.reductions == real_engine.reductions
    assert real.result.replayed_iterations == 0
    assert _comparable(report) == _comparable(real)
    assert report.result.residual_history == real.result.residual_history
    assert list(report.result.events) == list(real.result.events)
    assert np.array_equal(report.x, real.x)
    assert report.backend == "vectorized"
    return report


def _assert_replay_is_real(request: repro.SolveRequest, session) -> None:
    replayed = _assert_is_the_real_solve(request, session)
    assert replayed.result.replayed_iterations == replayed.executed_iterations > 0


request_cells = st.fixed_dictionaries({
    "strategy": st.sampled_from(["reference", "pcg", "esr", "esrp", "imcr", "cr"]),
    "T": st.sampled_from([1, 3, 7, 20]),
    "phi": st.integers(1, 3),
    "rule": st.sampled_from(["paper", "greedy"]),
    "destinations": st.sampled_from(["eq1", "switch_aware"]),
    "seed": st.integers(0, 3),
})


@settings(max_examples=12, deadline=None)
@given(cell=request_cells, preconditioner=st.sampled_from(sorted(CASES)))
def test_failure_free_replay_is_the_real_solve(cell, preconditioner):
    session = _session(preconditioner)
    request = repro.SolveRequest(preconditioner=preconditioner, **cell)
    _assert_replay_is_real(request, session)


@st.composite
def imcr_failures(draw, preconditioner: str, T: int, phi: int):
    """Fail-stop events: drawn blocks (one may precede the first
    checkpoint) or a multi-failure ``mtbf`` schedule."""
    n_nodes = CASES[preconditioner][1]
    C = _reference_iterations(preconditioner)
    if draw(st.booleans()):
        ctx = ScenarioContext(
            n_nodes=n_nodes, phi=phi, strategy="imcr", T=T,
            reference_iterations=C, seed=draw(st.integers(0, 2**16)),
        )
        spec = ScenarioSpec.make("mtbf", mtbf_fraction=0.3)
        return list(generate_schedule(spec, ctx))
    early = [draw(st.integers(1, max(1, min(T, C - 1))))] if draw(st.booleans()) else []
    iterations = sorted(set(early + draw(
        st.lists(st.integers(1, C - 1), min_size=1, max_size=3, unique=True)
    )))
    events = []
    for iteration in iterations:
        width = draw(st.integers(1, phi))
        start = draw(st.integers(0, n_nodes - width))
        events.append(repro.FailureEvent(iteration, tuple(range(start, start + width))))
    return events


@settings(max_examples=12, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 3, 7, 20]), phi=st.integers(1, 3),
       preconditioner=st.sampled_from(sorted(CASES)), seed=st.integers(0, 3))
def test_imcr_fail_stop_replay_is_the_real_solve(data, T, phi, preconditioner, seed):
    failures = data.draw(imcr_failures(preconditioner, T, phi))
    request = repro.SolveRequest(
        strategy="imcr", T=T, phi=phi, preconditioner=preconditioner,
        failures=failures, seed=seed,
    )
    _assert_replay_is_real(request, _session(preconditioner))


@st.composite
def esr_failures(draw, preconditioner: str, T: int, phi: int):
    """Fail-stop events for ``esrp`` at interval T (ESR for T ≤ 2): one in
    iteration 0, in 1..T, at j ≡ 0 (mod T) between a storage stage's two
    pushes, or after T, plus up to two more anywhere; or an ``mtbf``
    schedule."""
    n_nodes = CASES[preconditioner][1]
    C = _reference_iterations(preconditioner)
    kind = draw(st.sampled_from(["zero", "early", "between", "late", "mtbf"]))
    if kind == "mtbf":
        ctx = ScenarioContext(
            n_nodes=n_nodes, phi=phi, strategy="esrp", T=T,
            reference_iterations=C, seed=draw(st.integers(0, 2**16)),
        )
        spec = ScenarioSpec.make("mtbf", mtbf_fraction=0.3)
        return list(generate_schedule(spec, ctx))
    first = {
        "zero": st.just(0),
        "early": st.integers(1, min(T, C - 1)),
        "between": st.sampled_from(range(T, C, T) or [min(T, C - 1)]),
        "late": st.integers(min(T + 1, C - 1), C - 1),
    }[kind]
    iterations = sorted({draw(first)} | set(draw(
        st.lists(st.integers(1, C - 1), max_size=2, unique=True)
    )))
    events = []
    for iteration in iterations:
        width = draw(st.integers(1, phi))
        start = draw(st.integers(0, n_nodes - width))
        events.append(repro.FailureEvent(iteration, tuple(range(start, start + width))))
    return events


def _expected_horizon(T: int, failures) -> int | None:
    """The rule of "Replay": ``None`` when every failure restarts from x₀."""
    restart_bound = T if T > 2 else 0
    later = sorted(e.iteration for e in failures if e.iteration > restart_bound)
    if not later:
        return None
    return later[0] - 1 if T <= 2 else (later[0] - 1) // T * T


@settings(max_examples=20, deadline=None)
@given(data=st.data(), T=st.sampled_from([1, 3, 7, 20]), phi=st.integers(1, 3),
       rule=st.sampled_from(["paper", "greedy"]),
       destinations=st.sampled_from(["eq1", "switch_aware"]),
       preconditioner=st.sampled_from(sorted(CASES)), seed=st.integers(0, 3))
def test_fast_forwarded_failure_solve_is_the_real_solve(
    data, T, phi, rule, destinations, preconditioner, seed
):
    """Each request is solved twice from no snapshot: the first solve
    captures one, the second fast-forwards from it (or both replay whole,
    or both run for real); both must be the forced-real solve."""
    failures = data.draw(esr_failures(preconditioner, T, phi))
    request = repro.SolveRequest(
        strategy="esrp", T=T, phi=phi, rule=rule, destinations=destinations,
        preconditioner=preconditioner, failures=failures, seed=seed,
    )
    session = _session(preconditioner)
    session.reference(preconditioner=preconditioner).snapshots.clear()
    first = _assert_is_the_real_solve(request, session)
    second = _assert_is_the_real_solve(request, session)

    horizon = _expected_horizon(T, failures)
    C = _reference_iterations(preconditioner)
    if horizon is None:
        for report in (first, second):
            assert report.result.replayed_iterations == report.executed_iterations
    elif min(horizon, C - 1) >= math.ceil(C / 16):
        assert first.result.replayed_iterations == 0  # it captures
        assert 0 < second.result.replayed_iterations < second.executed_iterations
    else:
        assert first.result.replayed_iterations == second.result.replayed_iterations == 0


def _schedule(kind: str, strategy: str) -> list:
    ctx = ScenarioContext(
        n_nodes=CASES["jacobi"][1], phi=1, strategy=strategy, T=5,
        reference_iterations=_reference_iterations("jacobi"), seed=3,
    )
    events = list(generate_schedule(ScenarioSpec.make(kind), ctx))
    assert events
    return events


@pytest.mark.parametrize(
    "build, fast_forwards",
    [
        (lambda: repro.SolveRequest(strategy="pv", T=5), False),
        (lambda: repro.SolveRequest(strategy="pv_forward", T=5), False),
        (lambda: repro.SolveRequest(strategy="lossy_imcr", T=5), False),
        (lambda: repro.SolveRequest(strategy="esr", failures=_schedule("sdc", "esr")), False),
        (lambda: repro.SolveRequest(
            strategy="imcr", T=5, failures=_schedule("sdc", "imcr")
        ), False),
        (lambda: repro.SolveRequest(
            strategy="imcr", T=5, failures=_schedule("churn", "imcr")
        ), False),
        (lambda: repro.SolveRequest(
            strategy="esr", failures=[repro.FailureEvent(9, (2,))]
        ), True),
        (lambda: repro.SolveRequest(
            strategy="esrp", T=5, failures=[repro.FailureEvent(9, (2,))]
        ), True),
    ],
    ids=[
        "pv", "pv_forward", "lossy_imcr", "esr_sdc", "imcr_sdc", "imcr_churn",
        "esr_failure", "esrp_failure",
    ],
)
def test_requests_outside_the_rule_run_for_real(build, fast_forwards):
    """Nothing replays outside the rule; an ESR/ESRP failure solve is only
    fast-forwarded (the first solve captures the snapshot the second
    starts from)."""
    request = dataclasses.replace(build(), preconditioner="jacobi")
    session = _session("jacobi")
    session.solve(request)
    report = session.solve(request)
    if fast_forwards:
        assert 0 < report.result.replayed_iterations < report.executed_iterations
    else:
        assert report.result.replayed_iterations == 0


def test_an_initial_guess_runs_for_real():
    session = _session("jacobi")
    x0 = np.ones(session.n)
    report = session.solve(repro.SolveRequest(strategy="esr", preconditioner="jacobi"), x0=x0)
    assert report.result.replayed_iterations == 0
    previous = session.solve(
        repro.SolveRequest(strategy="esr", preconditioner="jacobi", x0="previous")
    )
    assert previous.result.replayed_iterations == 0


def test_a_cold_session_computes_no_reference_and_runs_for_real():
    session = repro.SolverSession(*_problem(6), n_nodes=4)
    report = session.solve(repro.SolveRequest(strategy="esrp", T=5))
    assert report.result.replayed_iterations == 0
    assert session.setup_events["reference"] == 0
    warm = session.solve(repro.SolveRequest(strategy="esrp", T=5), with_reference=True)
    assert warm.result.replayed_iterations == warm.executed_iterations


def test_replayed_x_never_aliases_the_cached_reference():
    session = _session("jacobi")
    reference = session.reference(preconditioner="jacobi")
    bits = reference.x.copy()
    request = repro.SolveRequest(strategy="esrp", T=7, preconditioner="jacobi")
    first = session.solve(request)
    assert first.result.replayed_iterations > 0
    assert not np.shares_memory(first.result.x, reference.x)
    first.result.x[:] = -1.0
    second = session.solve(request)
    assert np.array_equal(reference.x, bits)
    assert np.array_equal(second.x, bits)


def test_a_reference_that_stops_short_is_never_cached():
    """A short ``maxiter`` cannot leave a truncated trajectory to replay."""
    session = repro.SolverSession(*_problem(6), n_nodes=4, cost_model=NOISY)
    request = repro.SolveRequest(strategy="esrp", T=3)
    for short in (
        lambda: session.solve(dataclasses.replace(request, maxiter=5), with_reference=True),
        lambda: session.reference(maxiter=5),
    ):
        with pytest.raises(ConvergenceError, match="within 5 iterations"):
            short()
    report = session.solve(request)
    assert report.result.replayed_iterations == 0
    warm = session.solve(request, with_reference=True)
    assert warm.result.replayed_iterations == warm.executed_iterations
    assert warm.result.residual_history == report.result.residual_history
    assert np.array_equal(warm.x, report.x)


@pytest.mark.parametrize(
    "failures", [[], [repro.FailureEvent(4, (1,))]], ids=["failure_free", "one_failure"]
)
def test_a_budget_that_runs_out_fails_as_the_real_solve_does(failures):
    session = _session("jacobi")
    request = repro.SolveRequest(
        strategy="imcr", T=3, preconditioner="jacobi", failures=failures,
        maxiter=_reference_iterations("jacobi") - 1,
    )
    errors = []
    for backend in (None, REAL):
        with pytest.raises(ConvergenceError) as error:
            session.solve(dataclasses.replace(request, backend=backend))
        errors.append(str(error.value))
    assert errors[0] == errors[1]


def test_a_reduction_the_reference_never_recorded_fails_loudly():
    cluster = VirtualCluster(2)
    partition = BlockRowPartition.uniform(8, 2)
    vectors = [DistributedVector(cluster, partition) for _ in range(5)]
    state = PCGState(*vectors)
    backend = ReplayBackend(np.arange(2 + 3 * 4, dtype=np.float64))
    backend.enter_iteration(1, state)
    assert backend.dot_many(state.r, [state.z]) == [3.0]
    assert backend.dot_many(state.p, [state.rho]) == [5.0]
    with pytest.raises(RuntimeError, match="never recorded"):
        backend.dot_many(state.r, [state.p])


def test_polynomial_preconditioner_replays_under_imcr():
    session = repro.SolverSession(*_problem(6), n_nodes=4, cost_model=NOISY)
    session.reference(preconditioner="polynomial")
    request = repro.SolveRequest(
        strategy="imcr", T=4, preconditioner="polynomial",
        failures=[repro.FailureEvent(2, (1,)), repro.FailureEvent(9, (0,))],
    )
    _assert_replay_is_real(request, session)


# ------------------------------------------------------------------ snapshots


def _fresh_session(preconditioner: str, **kwargs) -> repro.SolverSession:
    edge, n_nodes = CASES[preconditioner]
    return repro.SolverSession(
        *_problem(edge), n_nodes=n_nodes, cost_model=NOISY, **kwargs
    )


def _esr_failing_at(j: int, preconditioner: str = "jacobi", **kwargs) -> repro.SolveRequest:
    return repro.SolveRequest(
        strategy="esr", preconditioner=preconditioner,
        failures=[repro.FailureEvent(j, (0,))], **kwargs,
    )


def _oracle_states(preconditioner: str, upto: int) -> list[tuple[np.ndarray, ...]]:
    """``tests/oracle.py``'s state (x, r, z, p) entering iterations 0..upto.

    Read from inside the oracle: each preconditioner application sees
    its caller's ``x`` and ``r`` of the iteration about to start and
    returns its ``z``; the caller's ``p`` of that iteration is the one
    the next application sees (the oracle updates ``p`` last).
    """
    edge, _ = CASES[preconditioner]
    precond = make_preconditioner(preconditioner)
    precond.setup(_session(preconditioner).matrix)
    apply_p = global_operator(precond)
    seen = []

    def spy(r):
        z = apply_p(r)
        caller = sys._getframe(1).f_locals
        p = caller["p"].copy() if "p" in caller else None
        seen.append((caller["x"].copy(), r.copy(), z.copy(), p))
        return z

    serial_pcg(*_problem(edge), spy, rtol=0.0, maxiter=upto + 1)
    return [seen[k][:3] + (seen[k + 1][3],) for k in range(upto + 1)]


@pytest.mark.parametrize("preconditioner", sorted(CASES))
def test_each_snapshot_is_the_oracle_state_and_on_the_grid(preconditioner):
    """Requests failing at every iteration 1..C-1 capture each grid point
    once: at most 16 snapshots, each the oracle's state bit for bit.  An
    ESRP request there finds snapshots beyond its horizon and must not
    start from one."""
    session = _fresh_session(preconditioner)
    reference = session.reference(preconditioner=preconditioner)
    C = reference.C
    for j in range(1, C):
        _assert_is_the_real_solve(_esr_failing_at(j, preconditioner), session)
        _assert_is_the_real_solve(repro.SolveRequest(
            strategy="esrp", T=3, preconditioner=preconditioner,
            failures=[repro.FailureEvent(j, (0,))],
        ), session)
    stride = math.ceil(C / 16)
    assert sorted(reference.snapshots) == list(range(stride, C - 1, stride))
    assert len(reference.snapshots) <= 16
    assert session.setup_events["snapshot"] == len(reference.snapshots)
    assert session.snapshot_footprint == {
        "count": len(reference.snapshots),
        "bytes": len(reference.snapshots) * 4 * session.n * 8,
    }
    oracle = _oracle_states(preconditioner, max(reference.snapshots))
    for k, snapshot in reference.snapshots.items():
        assert [a.tobytes() for a in snapshot] == [a.tobytes() for a in oracle[k]], k


def test_a_loaded_snapshot_is_never_aliased():
    session = _fresh_session("jacobi")
    reference = session.reference(preconditioner="jacobi")
    request = _esr_failing_at(20)
    captured = session.solve(request)
    (snapshot,) = reference.snapshots.values()
    kept = [a.copy() for a in snapshot]
    again = [session.solve(request) for _ in range(2)]
    for report in again:
        assert 0 < report.result.replayed_iterations < report.executed_iterations
        assert _comparable(report) == _comparable(captured)
        assert np.array_equal(report.x, captured.x)
        assert not any(np.shares_memory(report.x, a) for a in snapshot)
    assert [a.tobytes() for a in snapshot] == [a.tobytes() for a in kept]


#: The spool name of ``_problem(12)``'s Jacobi reference on 16 nodes under
#: ``NOISY``, as written before snapshots existed.
SPOOL_NAME = "reference-f030940a8e9fbc3837c3ccc69c1350e601713a00.npz"


def test_a_spooled_reference_fast_forwards_after_its_first_capture(tmp_path):
    _fresh_session("jacobi", cache_dir=tmp_path).reference(preconditioner="jacobi")
    spool = tmp_path / SPOOL_NAME
    spooled = spool.read_bytes()
    session = _fresh_session("jacobi", cache_dir=tmp_path)
    session.reference(preconditioner="jacobi")
    assert session.setup_events["reference_disk"] == 1
    assert session.setup_events["reference"] == 0

    request = _esr_failing_at(20)
    first = _assert_is_the_real_solve(request, session)
    second = _assert_is_the_real_solve(request, session)
    assert first.result.replayed_iterations == 0
    assert 0 < second.result.replayed_iterations < second.executed_iterations
    assert session.setup_events["snapshot"] == 1

    # Snapshots stay in memory: the spool is the one file, unchanged.
    assert [path.name for path in tmp_path.iterdir()] == [SPOOL_NAME]
    assert spool.read_bytes() == spooled
    with np.load(spool) as payload:
        assert sorted(payload.files) == ["C", "scalars", "t0", "x"]
