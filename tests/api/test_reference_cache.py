"""On-disk spooling of reference trajectories (``cache_dir``)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.campaign import demo_spec, execute_campaign
from repro.matrices import poisson_2d


@pytest.fixture()
def problem():
    matrix = poisson_2d(8)
    rng = np.random.default_rng(1)
    b = matrix @ rng.standard_normal(matrix.shape[0])
    return matrix, b


def _session(problem, tmp_path, **kwargs):
    matrix, b = problem
    return repro.SolverSession(matrix, b, n_nodes=4, cache_dir=tmp_path, **kwargs)


def test_second_session_loads_reference_from_disk(problem, tmp_path):
    first = _session(problem, tmp_path)
    trajectory = first.reference()
    assert first.setup_events["reference"] == 1
    assert list(tmp_path.glob("reference-*.npz"))

    second = _session(problem, tmp_path)
    loaded = second.reference()
    assert second.setup_events["reference"] == 0
    assert second.setup_events["reference_disk"] == 1
    assert loaded.t0 == trajectory.t0
    assert loaded.C == trajectory.C
    np.testing.assert_array_equal(loaded.x, trajectory.x)


def test_disk_hit_yields_identical_overhead_reports(problem, tmp_path):
    request = repro.SolveRequest(
        strategy="esrp", T=5, phi=1, failures=[repro.FailureEvent(10, (1,))]
    )
    fresh = _session(problem, tmp_path).solve(request, with_reference=True)
    spooled = _session(problem, tmp_path).solve(request, with_reference=True)
    assert fresh.total_overhead == spooled.total_overhead
    assert fresh.solution_error == spooled.solution_error


def test_cache_entries_are_keyed_by_problem(problem, tmp_path):
    _session(problem, tmp_path).reference()

    other_matrix = poisson_2d(8)
    other_b = other_matrix @ np.full(other_matrix.shape[0], 2.0)
    other = repro.SolverSession(other_matrix, other_b, n_nodes=4, cache_dir=tmp_path)
    other.reference()
    # Different right-hand side: its own entry, not a false hit.
    assert other.setup_events["reference"] == 1
    assert len(list(tmp_path.glob("reference-*.npz"))) == 2


def test_cache_entries_are_keyed_by_request(problem, tmp_path):
    session = _session(problem, tmp_path)
    session.reference(rtol=1e-8)
    session.reference(rtol=1e-6)
    session.reference(preconditioner="jacobi")
    assert session.setup_events["reference"] == 3
    assert len(list(tmp_path.glob("reference-*.npz"))) == 3


def test_corrupt_cache_entry_recomputes(problem, tmp_path):
    first = _session(problem, tmp_path)
    first.reference()
    (entry,) = tmp_path.glob("reference-*.npz")
    entry.write_bytes(b"not a npz file")

    second = _session(problem, tmp_path)
    second.reference()
    assert second.setup_events["reference"] == 1
    assert second.setup_events["reference_disk"] == 0
    # The recompute repaired the entry for the next session.
    third = _session(problem, tmp_path)
    third.reference()
    assert third.setup_events["reference_disk"] == 1


def test_backends_share_cache_entries(problem, tmp_path):
    """A plugin backend (e.g. a timing wrapper) reads the default's spool."""
    from repro.api.registry import KERNELS
    from repro.kernels import VectorizedBackend

    @repro.register_backend("cache_test_backend")
    class _Timing(VectorizedBackend):
        name = "cache_test_backend"

    try:
        _session(problem, tmp_path).reference()
        plugin = _session(problem, tmp_path, backend="cache_test_backend")
        plugin.reference()
    finally:
        KERNELS.unregister("cache_test_backend")
    assert plugin.setup_events["reference_disk"] == 1
    assert len(list(tmp_path.glob("reference-*.npz"))) == 1


def test_cache_dir_true_expands_to_default(problem, monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    matrix, b = problem
    session = repro.SolverSession(matrix, b, n_nodes=4, cache_dir=True)
    assert session.cache_dir == tmp_path / ".cache" / "repro"


def test_campaign_workers_share_spooled_references(tmp_path, monkeypatch):
    import os

    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    spec = demo_spec(scale="tiny", repetitions=1)
    result = execute_campaign(spec, workers=0, cache_dir=tmp_path)
    assert all(record.converged for record in result)
    assert list(tmp_path.glob("reference-*.npz"))
    # The spool directory must not leak into later campaigns.
    assert "REPRO_CACHE_DIR" not in os.environ


def test_cache_entries_are_keyed_by_topology(problem, tmp_path):
    from repro.cluster import FatTree

    matrix, b = problem
    narrow = repro.SolverSession(
        matrix, b, n_nodes=4, cache_dir=tmp_path, topology=FatTree(4, radix=2)
    )
    narrow.reference()
    wide = repro.SolverSession(
        matrix, b, n_nodes=4, cache_dir=tmp_path, topology=FatTree(4, radix=4)
    )
    wide.reference()
    # Different wiring means different hop costs: no false cache hit.
    assert wide.setup_events["reference"] == 1
    assert wide.setup_events["reference_disk"] == 0
    assert len(list(tmp_path.glob("reference-*.npz"))) == 2


def test_entries_spooled_under_another_reduction_are_recomputed(
    problem, tmp_path, monkeypatch
):
    """A spool written under another dot-product association is stale."""
    from repro.api import session as session_module

    monkeypatch.setattr(session_module, "REDUCTION_TAG", "per-block/ascending-rank")
    _session(problem, tmp_path).reference()
    monkeypatch.undo()

    current = _session(problem, tmp_path)
    current.reference()
    assert current.setup_events["reference_disk"] == 0
    assert current.setup_events["reference"] == 1
    assert len(list(tmp_path.glob("reference-*.npz"))) == 2


def test_entries_spooled_without_reductions_are_recomputed_not_replayed(
    problem, tmp_path
):
    """An entry from before reductions were spooled holds t0, C and x only."""
    matrix, b = problem
    truth = repro.SolverSession(matrix, b, n_nodes=4).reference()
    writer = _session(problem, tmp_path)
    path = writer._reference_path(repro.SolveRequest(strategy="reference"))
    tmp_path.mkdir(exist_ok=True)
    np.savez(path, t0=np.float64(truth.t0), C=np.int64(truth.C), x=truth.x)

    session = _session(problem, tmp_path)
    trajectory = session.reference()
    assert session.setup_events["reference_disk"] == 0
    assert session.setup_events["reference"] == 1
    assert trajectory.scalars.shape == (2 + 3 * truth.C,)
    with np.load(path) as payload:
        np.testing.assert_array_equal(payload["scalars"], trajectory.scalars)
    report = session.solve(repro.SolveRequest(strategy="esrp", T=5))
    assert report.result.replayed_iterations == report.executed_iterations


def test_entries_with_truncated_reductions_are_recomputed(problem, tmp_path):
    first = _session(problem, tmp_path)
    trajectory = first.reference()
    (entry,) = tmp_path.glob("reference-*.npz")
    np.savez(entry, t0=np.float64(trajectory.t0), C=np.int64(trajectory.C),
             x=trajectory.x, scalars=trajectory.scalars[:-3])

    second = _session(problem, tmp_path)
    second.reference()
    assert second.setup_events["reference_disk"] == 0
    assert second.setup_events["reference"] == 1
