"""Unit tests of the compute-kernel backend layer.

The backend contract (see :mod:`repro.kernels.base`) demands
bit-identical numerics *and* identical accounting — clocks, per-channel
statistics, cost-noise RNG consumption — between ``looped`` and
``vectorized``.  These tests check each kernel in isolation against the
``looped`` reference; the end-to-end enforcement lives in
``tests/properties/test_backend_equivalence.py``.
"""

from __future__ import annotations

import pathlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.api.registry import KERNELS
from repro.cluster import CostModel, VirtualCluster, zero_cost_model
from repro.core.redundancy import RedundancyQueue
from repro.distribution import (
    ASpMVExecutor,
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
    SpMVExecutor,
)
from repro.kernels import (
    DEFAULT_BACKEND,
    KernelBackend,
    LoopedBackend,
    VectorizedBackend,
    available_backends,
    resolve_backend,
)
from repro.matrices import poisson_2d
from repro.preconditioners import make_preconditioner

from ..conftest import make_distributed, random_vector

NOISY = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, noise=0.1)


# ---------------------------------------------------------------------------
# registry and resolution
# ---------------------------------------------------------------------------


def test_builtin_backends_registered():
    assert "looped" in available_backends()
    assert "vectorized" in available_backends()
    assert DEFAULT_BACKEND == "vectorized"


def test_resolve_backend_names_aliases_and_instances():
    assert isinstance(resolve_backend("looped"), LoopedBackend)
    assert isinstance(resolve_backend("vectorized"), VectorizedBackend)
    assert isinstance(resolve_backend("fused"), VectorizedBackend)  # alias
    assert isinstance(resolve_backend(None), VectorizedBackend)  # default
    instance = LoopedBackend()
    assert resolve_backend(instance) is instance


class TestLoopedDemotion:
    """The looped backend is test-only: deprecated outside test runs,
    but still registered and exercised by the equivalence suite."""

    def test_non_test_construction_warns(self, monkeypatch):
        # Simulate a production process: no pytest marker env var.
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.delenv("REPRO_ALLOW_LOOPED", raising=False)
        with pytest.warns(DeprecationWarning, match="'looped' kernel backend"):
            LoopedBackend()
        # ...including through the registry path every selector uses.
        with pytest.warns(DeprecationWarning, match="deprecated"):
            resolve_backend("looped")

    def test_allow_env_opts_back_in_silently(self, monkeypatch):
        monkeypatch.delenv("PYTEST_CURRENT_TEST", raising=False)
        monkeypatch.setenv("REPRO_ALLOW_LOOPED", "1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            LoopedBackend()

    def test_under_pytest_construction_stays_silent(self):
        # The equivalence property suite constructs looped freely; a
        # warning here would explode under filterwarnings=error.
        assert "PYTEST_CURRENT_TEST" in __import__("os").environ
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resolve_backend("looped")

    def test_looped_remains_registered_and_equivalence_tested(self):
        assert "looped" in available_backends()
        # The equivalence suite pins looped as its baseline — keep the
        # demotion honest by asserting the suite really exercises it.
        import tests.properties.test_backend_equivalence as equivalence

        source = pathlib.Path(equivalence.__file__).read_text()
        assert "looped" in source


def test_cluster_default_backend_and_switching():
    cluster = VirtualCluster(4, cost_model=zero_cost_model())
    assert cluster.kernels.name == "vectorized"
    cluster.kernels = "looped"
    assert cluster.kernels.name == "looped"
    cluster.reset()
    assert cluster.kernels.name == "looped"  # reset keeps the backend


def test_register_backend_plugin_roundtrip():
    @repro.register_backend("unit_test_backend")
    class _Plugin(LoopedBackend):
        name = "unit_test_backend"

    try:
        cluster = VirtualCluster(2, kernels="unit_test_backend")
        assert cluster.kernels.name == "unit_test_backend"
    finally:
        KERNELS.unregister("unit_test_backend")
    assert "unit_test_backend" not in available_backends()


def test_request_override_is_scoped_on_adopted_clusters():
    """A per-request backend override must not rebind an adopted cluster."""
    matrix = poisson_2d(8)
    rng = np.random.default_rng(2)
    b = matrix @ rng.standard_normal(matrix.shape[0])
    cluster = VirtualCluster(4, kernels="looped")
    session = repro.SolverSession(matrix, b, cluster=cluster)
    report = session.solve(repro.SolveRequest(strategy="esr", backend="vectorized"))
    assert report.backend == "vectorized"
    assert cluster.kernels.name == "looped"  # caller's choice restored
    assert session.solve(repro.SolveRequest(strategy="esr")).backend == "looped"


def test_unknown_backend_rejected():
    with pytest.raises(repro.ConfigurationError):
        resolve_backend("no_such_backend")
    with pytest.raises(repro.ConfigurationError):
        repro.SolveRequest(backend="no_such_backend")


# ---------------------------------------------------------------------------
# batched charge API
# ---------------------------------------------------------------------------


def test_batched_charge_equals_individual_calls_under_noise():
    a = VirtualCluster(4, cost_model=NOISY, seed=123)
    b = VirtualCluster(4, cost_model=NOISY, seed=123)

    for rank, flops in [(0, 100), (1, 250), (2, 10), (3, 77)]:
        a.compute(rank, flops)
    for rank, nbytes in [(1, 4096), (3, 64)]:
        a.memcpy(rank, nbytes)

    b.charge(
        compute=[(0, 100), (1, 250), (2, 10), (3, 77)],
        memcpy=[(1, 4096), (3, 64)],
    )

    np.testing.assert_array_equal(a.clocks, b.clocks)
    assert a.stats.summary() == b.stats.summary()
    # RNG streams consumed identically: the next draw matches.
    assert a.rng.random() == b.rng.random()


def test_charge_validates_liveness():
    cluster = VirtualCluster(4, cost_model=zero_cost_model())
    cluster.fail([2])
    with pytest.raises(repro.DeadNodeError):
        cluster.charge(compute=[(0, 1.0), (2, 1.0)])


# ---------------------------------------------------------------------------
# kernel-by-kernel equivalence
# ---------------------------------------------------------------------------


def _pair(n_nodes=4, n=64, cost_model=None, seed=9, backend="vectorized", matrix=None):
    """Two identical (cluster, partition, matrix) stacks: looped + ``backend``."""
    matrix = poisson_2d(8) if matrix is None else matrix
    stacks = []
    for kernels in ("looped", backend):
        cluster = VirtualCluster(
            n_nodes, cost_model=cost_model or NOISY, seed=seed, kernels=kernels
        )
        partition = BlockRowPartition.uniform(matrix.shape[0], n_nodes)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        stacks.append((cluster, partition, dmatrix))
    return stacks


def _assert_cluster_equal(a: VirtualCluster, b: VirtualCluster):
    np.testing.assert_array_equal(a.clocks, b.clocks)
    assert a.stats.summary() == b.stats.summary()


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize(
    "op",
    ["axpy", "aypx", "scale", "subtract", "assign", "dot_many", "fill"],
)
def test_vector_ops_bit_identical(op, backend):
    (cl_l, part_l, _), (cl_v, part_v, _) = _pair(backend=backend)
    rng = np.random.default_rng(3)
    base = rng.standard_normal(part_l.n)
    other = rng.standard_normal(part_l.n)

    results = []
    for cluster, partition in ((cl_l, part_l), (cl_v, part_v)):
        y = DistributedVector.from_global(cluster, partition, base)
        x = DistributedVector.from_global(cluster, partition, other)
        value = None
        if op == "axpy":
            y.axpy(0.37, x)
        elif op == "aypx":
            y.aypx(-1.25, x)
        elif op == "scale":
            y.scale(3.5)
        elif op == "subtract":
            z = DistributedVector(cluster, partition)
            z.subtract(y, x)
            y = z
        elif op == "assign":
            y.assign(x, charge=True)
        elif op == "dot_many":
            value = y.dot_many([x, y])
        elif op == "fill":
            y.fill(1.5)
        results.append((y.to_global(), value))

    (data_l, val_l), (data_v, val_v) = results
    np.testing.assert_array_equal(data_l, data_v)
    assert val_l == val_v
    _assert_cluster_equal(cl_l, cl_v)


def test_vector_blocks_are_views_of_flat_data():
    cluster = VirtualCluster(4, cost_model=zero_cost_model())
    partition = BlockRowPartition.uniform(64, 4)
    vec = DistributedVector.from_global(cluster, partition, np.arange(64.0))
    assert vec.data.flags["C_CONTIGUOUS"]
    vec.blocks[2][0] = -1.0
    assert vec.data[partition.bounds(2)[0]] == -1.0
    vec.data[:] = 0.0
    assert all(float(block.sum()) == 0.0 for block in vec.blocks)


@pytest.mark.parametrize("backend", ["vectorized"])
def test_spmv_bit_identical_and_same_accounting(backend):
    (cl_l, part_l, m_l), (cl_v, part_v, m_v) = _pair(backend=backend)
    x = random_vector(part_l.n, seed=11)

    out_l = SpMVExecutor(m_l).multiply(
        DistributedVector.from_global(cl_l, part_l, x)
    )
    out_v = SpMVExecutor(m_v).multiply(
        DistributedVector.from_global(cl_v, part_v, x)
    )

    np.testing.assert_array_equal(out_l.to_global(), out_v.to_global())
    _assert_cluster_equal(cl_l, cl_v)


def test_spmv_matches_direct_product():
    matrix = poisson_2d(8)
    cluster, partition, dmatrix = make_distributed(matrix, n_nodes=4)
    x = random_vector(partition.n, seed=5)
    out = SpMVExecutor(dmatrix).multiply(
        DistributedVector.from_global(cluster, partition, x)
    )
    np.testing.assert_allclose(out.to_global(), matrix @ x, rtol=1e-13)


def _assert_stores_equal(a: VirtualCluster, b: VirtualCluster):
    """Every node holds the same redundancy entries, in the same order."""
    for node_a, node_b in zip(a.nodes, b.nodes):
        assert node_a.redundancy_bytes() == node_b.redundancy_bytes()
        assert list(node_a.redundancy) == list(node_b.redundancy)
        for iteration, per_a in node_a.redundancy.items():
            per_b = node_b.redundancy[iteration]
            assert list(per_a) == list(per_b)
            for owner, (indices_a, values_a) in per_a.items():
                indices_b, values_b = per_b[owner]
                assert indices_a.dtype == indices_b.dtype
                assert values_a.dtype == values_b.dtype
                np.testing.assert_array_equal(indices_a, indices_b)
                np.testing.assert_array_equal(values_a, values_b)


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("destinations", ["eq1", "switch_aware"])
@pytest.mark.parametrize("rule", ["paper", "greedy"])
@pytest.mark.parametrize("phi", [1, 2, 3])
def test_aspmv_bit_identical_including_stashes(phi, rule, destinations, backend):
    # 16 nodes span two leaf switches, so switch_aware differs from Eq. 1.
    (cl_l, part_l, m_l), (cl_v, part_v, m_v) = _pair(
        n_nodes=16, matrix=poisson_2d(12), backend=backend
    )
    x = random_vector(part_l.n, seed=21)
    sides = []
    for cluster, partition, dmatrix in ((cl_l, part_l, m_l), (cl_v, part_v, m_v)):
        executor = ASpMVExecutor(dmatrix, phi=phi, rule=rule, destinations=destinations)
        vec = DistributedVector.from_global(cluster, partition, x)
        sides.append((executor, RedundancyQueue(capacity=2), vec))

    # Iteration 7 again after 8 (a rollback re-execution), and four
    # iterations in all through a capacity-2 queue (two evictions).
    for step, iteration in enumerate((7, 8, 7, 9, 10)):
        outs = []
        for executor, queue, vec in sides:
            vec.data[:] = x + step  # a fresh p each push: stale stashes show
            outs.append(executor.multiply_augmented(vec, iteration, queue).to_global())
        np.testing.assert_array_equal(outs[0], outs[1])
        assert sides[0][1].items == sides[1][1].items
        _assert_cluster_equal(cl_l, cl_v)
        _assert_stores_equal(cl_l, cl_v)
    assert sides[0][1].items == (9, 10)


@pytest.mark.parametrize("backend", ["looped", "vectorized"])
def test_aspmv_with_a_dead_rank_raises_before_stashing(backend):
    """Charges come first: a failed call leaves no store and the queue untouched."""
    cluster, partition, dmatrix = make_distributed(poisson_2d(8), n_nodes=4)
    cluster.kernels = backend
    executor = ASpMVExecutor(dmatrix, phi=2)
    queue = RedundancyQueue(capacity=2)
    vec = DistributedVector.from_global(cluster, partition, random_vector(partition.n))
    cluster.fail([2])
    with pytest.raises(repro.DeadNodeError):
        executor.multiply_augmented(vec, 7, queue)
    assert all(7 not in node.redundancy for node in cluster.nodes)
    assert len(queue) == 0


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize(
    "name",
    ["identity", "jacobi", "block_jacobi", "block_ssor", "block_ichol"],
)
def test_preconditioner_apply_bit_identical(name, backend):
    (cl_l, part_l, m_l), (cl_v, part_v, m_v) = _pair(backend=backend)
    r_values = random_vector(part_l.n, seed=13)
    outs = []
    for cluster, partition, dmatrix in ((cl_l, part_l, m_l), (cl_v, part_v, m_v)):
        precond = make_preconditioner(name)
        precond.setup(dmatrix)
        r = DistributedVector.from_global(cluster, partition, r_values)
        out = DistributedVector(cluster, partition)
        precond.apply(r, out)
        outs.append(out.to_global())
    np.testing.assert_array_equal(outs[0], outs[1])
    _assert_cluster_equal(cl_l, cl_v)


def test_flat_apply_matches_blockwise_apply():
    matrix = poisson_2d(8)
    _, partition, dmatrix = make_distributed(matrix, n_nodes=4)
    values = random_vector(partition.n, seed=17)
    for name in ("identity", "jacobi", "block_jacobi"):
        precond = make_preconditioner(name)
        precond.setup(dmatrix)
        # A stale buffer: an in-place matvec that skipped its zero-fill
        # would add the product onto these values.
        out = random_vector(partition.n, seed=18)
        assert precond.flat_apply(values, out) is None
        blockwise = np.concatenate(
            [
                precond._apply_local(
                    rank, values[partition.bounds(rank)[0] : partition.bounds(rank)[1]]
                )
                for rank in range(partition.n_nodes)
            ]
        )
        np.testing.assert_array_equal(out, blockwise)
        np.testing.assert_array_equal(values, random_vector(partition.n, seed=17))


def test_triangular_preconditioners_have_no_flat_path():
    matrix = poisson_2d(8)
    _, _, dmatrix = make_distributed(matrix, n_nodes=4)
    for name in ("block_ssor", "block_ichol"):
        precond = make_preconditioner(name)
        precond.setup(dmatrix)
        assert precond.flat_apply is None


def test_vectorized_spmv_multiplies_global_csr():
    """The fused product reads ``DistributedMatrix.global_csr`` itself:
    the plan cache holds billing constants only, no nnz-sized operator."""
    matrix = poisson_2d(8)
    cluster, partition, dmatrix = make_distributed(matrix, n_nodes=4)
    assert cluster.kernels.name == "vectorized"
    cache = dmatrix.plan.flat_cache()
    assert dmatrix.plan.flat_cache() is cache  # built once
    assert not any(
        isinstance(value, np.ndarray) or sp.issparse(value)
        for value in vars(cache).values()
    )
    assert cache.total_ghosts == dmatrix.plan.total_halo_entries()
    template = dmatrix.plan.message_template("spmv_halo")
    assert dmatrix.plan.message_template("spmv_halo") is template
    assert all(entry[3] == "spmv_halo" for entry in template)

    # Swap the master copy and the product follows it.
    dmatrix.global_csr = sp.csr_matrix(2.0 * matrix)
    x = random_vector(partition.n, seed=23)
    out = SpMVExecutor(dmatrix).multiply(
        DistributedVector.from_global(cluster, partition, x)
    )
    np.testing.assert_array_equal(out.to_global(), dmatrix.global_csr @ x)


def _scrambled_poisson(k: int = 8) -> sp.csr_matrix:
    """``poisson_2d(k)`` stored the awkward way.

    Every row holds an explicit zero coupling to a column half the
    matrix away (an off-node ghost), then its entries in descending
    column order, with the diagonal split into two duplicate entries.
    """
    base = poisson_2d(k).tocsr()
    n = base.shape[0]
    indptr, indices, data = [0], [], []
    for row in range(n):
        lo, hi = base.indptr[row], base.indptr[row + 1]
        indices.append((row + n // 2) % n)
        data.append(0.0)
        for col, value in zip(base.indices[lo:hi][::-1], base.data[lo:hi][::-1]):
            if col == row:
                indices += [col, col]
                data += [0.7 * value, 0.3 * value]
            else:
                indices.append(col)
                data.append(value)
        indptr.append(len(indices))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int32), np.array(indptr)),
        shape=(n, n),
    )


def test_spmv_bit_identical_on_unsorted_duplicate_and_zero_entries():
    """The global row order *is* the local blocks' order, entry for entry."""
    matrix = _scrambled_poisson()
    assert not matrix.has_sorted_indices
    x = random_vector(matrix.shape[0], seed=41)
    (cl_l, part_l, m_l), (cl_v, part_v, m_v) = _pair(matrix=matrix)
    outs = [
        SpMVExecutor(dmatrix).multiply(
            DistributedVector.from_global(cluster, partition, x)
        ).to_global().tobytes()
        for cluster, partition, dmatrix in ((cl_l, part_l, m_l), (cl_v, part_v, m_v))
    ]
    assert outs[0] == outs[1]
    _assert_cluster_equal(cl_l, cl_v)

    # A recovering solve: Alg. 2 slices the same global matrix mid-run.
    request = repro.SolveRequest(
        strategy="esr", T=5, phi=1, failures=[repro.FailureEvent(9, (2,))]
    )
    looped, vectorized = (
        repro.SolverSession(
            matrix, matrix @ x, n_nodes=4, seed=3, backend=backend
        ).solve(request)
        for backend in ("looped", "vectorized")
    )
    assert looped.converged
    assert looped.x.tobytes() == vectorized.x.tobytes()
    assert looped.result.residual_history == vectorized.result.residual_history
    assert looped.stats == vectorized.stats
    assert looped.modeled_time == vectorized.modeled_time


@pytest.mark.parametrize("backend", ["vectorized"])
def test_cg_update_bit_identical_and_same_accounting(backend):
    """The fused CG tail matches the looped composition, charges included."""
    (cl_l, part_l, m_l), (cl_v, part_v, m_v) = _pair(backend=backend)
    n = part_l.n
    x_g = random_vector(n, seed=31)
    r_g = random_vector(n, seed=32)
    p_g = random_vector(n, seed=33)
    rho_g = random_vector(n, seed=34)
    alpha, rz_old = 0.37, 1.25

    results = []
    for cluster, partition, dmatrix in ((cl_l, part_l, m_l), (cl_v, part_v, m_v)):
        precond = make_preconditioner("block_jacobi")
        precond.setup(dmatrix)
        x = DistributedVector.from_global(cluster, partition, x_g)
        r = DistributedVector.from_global(cluster, partition, r_g)
        z = DistributedVector(cluster, partition)
        p = DistributedVector.from_global(cluster, partition, p_g)
        rho = DistributedVector.from_global(cluster, partition, rho_g)
        rz_new, r_norm_sq, beta = cluster.kernels.cg_update(
            x, r, z, p, rho, alpha, rz_old, precond
        )
        results.append(
            (rz_new, r_norm_sq, beta,
             x.to_global(), r.to_global(), z.to_global(), p.to_global())
        )

    (rz_l, rn_l, beta_l, *vecs_l), (rz_v, rn_v, beta_v, *vecs_v) = results
    assert rz_l == rz_v
    assert rn_l == rn_v
    assert beta_l == beta_v
    for vec_l, vec_v in zip(vecs_l, vecs_v):
        np.testing.assert_array_equal(vec_l, vec_v)
    _assert_cluster_equal(cl_l, cl_v)
