"""Unit tests of the compute-kernel backend layer.

The backend contract (see :mod:`repro.kernels.base`) demands numerics
equal to the serial definitions *and* accounting equal to per-rank
bills — clocks, per-channel statistics, cost-noise RNG consumption.
These tests check each kernel in isolation: its values against plain
numpy/scipy or the per-rank operators, its bills against a twin
cluster charged item by item, its ASpMV stashes against the Eq. 1
destination plan.  The whole-solve pins are ``tests/properties/
test_oracle.py`` (numerics) and ``tests/properties/
test_accounting_pin.py`` (accounting).
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.api.registry import KERNELS
from repro.cluster import CostModel, VirtualCluster, zero_cost_model
from repro.cluster.cost_model import BYTES_PER_FLOAT
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
    VectorizedBackend,
    available_backends,
    resolve_backend,
)
from repro.kernels.base import flat_dot
from repro.matrices import poisson_2d
from repro.preconditioners import make_preconditioner

from ..conftest import make_distributed, random_vector

NOISY = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, noise=0.1)
PRECONDITIONERS = ["identity", "jacobi", "block_jacobi", "block_ssor", "block_ichol"]


# ---------------------------------------------------------------------------
# registry and resolution
# ---------------------------------------------------------------------------


@pytest.fixture
def plugin():
    """A registered plugin backend (the shape of a timing wrapper)."""

    @repro.register_backend("unit_test_backend")
    class _Plugin(VectorizedBackend):
        name = "unit_test_backend"

    yield _Plugin
    KERNELS.unregister("unit_test_backend")


def test_builtin_backends_registered():
    assert "vectorized" in available_backends()
    assert DEFAULT_BACKEND == "vectorized"


def test_resolve_backend_names_aliases_and_instances():
    assert isinstance(resolve_backend("vectorized"), VectorizedBackend)
    assert isinstance(resolve_backend(None), VectorizedBackend)  # default
    instance = VectorizedBackend()
    assert resolve_backend(instance) is instance
    # The aliases went with the backend axis.
    for alias in ("fused", "flat"):
        with pytest.raises(repro.ConfigurationError):
            resolve_backend(alias)


def test_cluster_default_backend_and_switching(plugin):
    cluster = VirtualCluster(4, cost_model=zero_cost_model())
    assert cluster.kernels.name == "vectorized"
    cluster.kernels = "unit_test_backend"
    assert cluster.kernels.name == "unit_test_backend"
    cluster.reset()
    assert cluster.kernels.name == "unit_test_backend"  # reset keeps the backend


def test_register_backend_plugin_roundtrip():
    @repro.register_backend("unit_test_backend")
    class _Plugin(VectorizedBackend):
        name = "unit_test_backend"

    try:
        cluster = VirtualCluster(2)
        cluster.kernels = "unit_test_backend"
        assert cluster.kernels.name == "unit_test_backend"
    finally:
        KERNELS.unregister("unit_test_backend")
    assert "unit_test_backend" not in available_backends()


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
# kernel by kernel: values against the definitions, bills item by item
# ---------------------------------------------------------------------------


def _pair(n_nodes=4, cost_model=None, seed=9, backend="vectorized", matrix=None):
    """Two identical (cluster, partition, matrix) stacks.

    The first runs the kernel under test; the second is charged item by
    item, rank by rank, with what the kernel must bill.
    """
    matrix = poisson_2d(8) if matrix is None else matrix
    stacks = []
    for _ in range(2):
        cluster = VirtualCluster(n_nodes, cost_model=cost_model or NOISY, seed=seed)
        cluster.kernels = backend
        partition = BlockRowPartition.uniform(matrix.shape[0], n_nodes)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        stacks.append((cluster, partition, dmatrix))
    return stacks


def _assert_cluster_equal(a: VirtualCluster, b: VirtualCluster):
    np.testing.assert_array_equal(a.clocks, b.clocks)
    assert a.stats.summary() == b.stats.summary()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


def _bill_per_entry(cluster, partition, flops_per_entry):
    for rank in range(partition.n_nodes):
        cluster.compute(rank, flops_per_entry * partition.size_of(rank))


def _halo_messages(plan, channel="spmv_halo"):
    return [
        (src, d.dst, d.count * BYTES_PER_FLOAT, channel, False)
        for src in range(plan.n_nodes)
        for d in plan.sends[src]
        if d.count > 0
    ]


def _row_block_products(matrix, partition, x):
    """``A @ x`` as the per-rank ``A[I_r, :] @ x`` row-block products."""
    csr = sp.csr_matrix(matrix)
    return np.concatenate([
        csr[lo:hi, :] @ x
        for lo, hi in (partition.bounds(r) for r in range(partition.n_nodes))
    ])


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize(
    "op",
    ["axpy", "aypx", "scale", "subtract", "assign", "dot_many", "fill"],
)
def test_vector_ops_bit_identical(op, backend):
    (cluster, partition, _), (billed, _, _) = _pair(backend=backend)
    rng = np.random.default_rng(3)
    base = rng.standard_normal(partition.n)
    other = rng.standard_normal(partition.n)

    y = DistributedVector.from_global(cluster, partition, base)
    x = DistributedVector.from_global(cluster, partition, other)
    value = None
    if op == "axpy":
        y.axpy(0.37, x)
        expected = base + 0.37 * other
        _bill_per_entry(billed, partition, 2)
    elif op == "aypx":
        y.aypx(-1.25, x)
        expected = base * -1.25 + other
        _bill_per_entry(billed, partition, 2)
    elif op == "scale":
        y.scale(3.5)
        expected = base * 3.5
        _bill_per_entry(billed, partition, 1)
    elif op == "subtract":
        z = DistributedVector(cluster, partition)
        z.subtract(y, x)
        y = z
        expected = base - other
        _bill_per_entry(billed, partition, 1)
    elif op == "assign":
        y.assign(x, charge=True)
        expected = other
        for rank in range(partition.n_nodes):
            billed.memcpy(rank, BYTES_PER_FLOAT * partition.size_of(rank))
    elif op == "dot_many":
        value = y.dot_many([x, y])
        expected = base
        assert value == [flat_dot(base, other), flat_dot(base, base)]
        _bill_per_entry(billed, partition, 4)
        billed.allreduce(2 * BYTES_PER_FLOAT)
    elif op == "fill":
        y.fill(1.5)
        expected = np.full(partition.n, 1.5)

    assert y.to_global().tobytes() == expected.tobytes()
    _assert_cluster_equal(cluster, billed)


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
    (cluster, partition, dmatrix), (billed, _, _) = _pair(backend=backend)
    x = random_vector(partition.n, seed=11)

    out = SpMVExecutor(dmatrix).multiply(DistributedVector.from_global(cluster, partition, x))
    billed.exchange(_halo_messages(dmatrix.plan))
    for rank in range(partition.n_nodes):
        billed.compute(rank, 2 * dmatrix.local_nnz(rank))

    expected = _row_block_products(dmatrix.global_csr, partition, x)
    assert out.to_global().tobytes() == expected.tobytes()
    _assert_cluster_equal(cluster, billed)


def test_spmv_matches_direct_product():
    matrix = poisson_2d(8)
    cluster, partition, dmatrix = make_distributed(matrix, n_nodes=4)
    x = random_vector(partition.n, seed=5)
    out = SpMVExecutor(dmatrix).multiply(
        DistributedVector.from_global(cluster, partition, x)
    )
    np.testing.assert_allclose(out.to_global(), matrix @ x, rtol=1e-13)


def _planned_stashes(executor):
    """What the Eq. 1 plan stashes on each recipient: owner -> indices.

    For each source rank in ascending order, its non-empty natural halo
    sends and then its extra redundancy transfers, appended per
    (recipient, owner).
    """
    planned: dict[int, dict[int, list[np.ndarray]]] = {}
    for src in range(executor.plan.n_nodes):
        pieces = [d for d in executor.plan.sends[src] if d.count > 0]
        pieces += executor.redundancy.extras[src]
        for piece in pieces:
            planned.setdefault(piece.dst, {}).setdefault(src, []).append(
                piece.global_indices
            )
    return {
        dst: {owner: np.concatenate(parts) for owner, parts in by_owner.items()}
        for dst, by_owner in planned.items()
    }


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("destinations", ["eq1", "switch_aware"])
@pytest.mark.parametrize("rule", ["paper", "greedy"])
@pytest.mark.parametrize("phi", [1, 2, 3])
def test_aspmv_bit_identical_including_stashes(phi, rule, destinations, backend):
    """The product equals the plain SpMV; every store holds the plan's stash."""
    # 16 nodes span two leaf switches, so switch_aware differs from Eq. 1.
    (cluster, partition, dmatrix), _ = _pair(
        n_nodes=16, matrix=poisson_2d(12), backend=backend
    )
    executor = ASpMVExecutor(dmatrix, phi=phi, rule=rule, destinations=destinations)
    planned = _planned_stashes(executor)
    assert planned  # every rank sends something at ϕ >= 1
    queue = RedundancyQueue(capacity=2)
    vec = DistributedVector(cluster, partition)
    x = random_vector(partition.n, seed=21)
    pushed = {}  # iteration -> the x its latest push stashed

    # Iteration 7 again after 8 (a rollback re-execution), and four
    # iterations in all through a capacity-2 queue (two evictions).
    for step, iteration in enumerate((7, 8, 7, 9, 10)):
        vec.data[:] = x + step  # a fresh p each push: stale stashes show
        pushed[iteration] = vec.data.copy()
        out = executor.multiply_augmented(vec, iteration, queue).to_global()
        expected = _row_block_products(dmatrix.global_csr, partition, vec.data)
        assert out.tobytes() == expected.tobytes()
        for rank, node in enumerate(cluster.nodes):
            if rank not in planned:
                assert not node.redundancy
                continue
            assert sorted(node.redundancy) == sorted(queue.items)
            for it in queue.items:
                entry = node.redundancy[it]
                assert list(entry) == sorted(planned[rank])
                for owner, (indices, values) in entry.items():
                    np.testing.assert_array_equal(indices, planned[rank][owner])
                    assert values.tobytes() == pushed[it][indices].tobytes()
    assert queue.items == (9, 10)


@pytest.mark.parametrize("backend", ["vectorized"])
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


def _blockwise(precond, partition, values):
    return np.concatenate([
        precond._apply_local(rank, values[lo:hi])
        for rank, (lo, hi) in enumerate(
            partition.bounds(r) for r in range(partition.n_nodes)
        )
    ])


@pytest.mark.parametrize("backend", ["vectorized"])
@pytest.mark.parametrize("name", PRECONDITIONERS)
def test_preconditioner_apply_bit_identical(name, backend):
    (cluster, partition, dmatrix), (billed, _, _) = _pair(backend=backend)
    r_values = random_vector(partition.n, seed=13)
    precond = make_preconditioner(name)
    precond.setup(dmatrix)
    r = DistributedVector.from_global(cluster, partition, r_values)
    out = DistributedVector(cluster, partition)
    precond.apply(r, out)
    for rank in range(partition.n_nodes):
        billed.compute(rank, precond._apply_flops(rank))
    assert out.to_global().tobytes() == _blockwise(precond, partition, r_values).tobytes()
    _assert_cluster_equal(cluster, billed)


def test_flat_apply_matches_blockwise_apply():
    matrix = poisson_2d(8)
    _, partition, dmatrix = make_distributed(matrix, n_nodes=4)
    values = random_vector(partition.n, seed=17)
    for name in PRECONDITIONERS:
        precond = make_preconditioner(name)
        precond.setup(dmatrix)
        # A stale buffer: an in-place matvec that skipped its zero-fill
        # would add the product onto these values.
        out = random_vector(partition.n, seed=18)
        assert precond.flat_apply(values, out) is None
        np.testing.assert_array_equal(out, _blockwise(precond, partition, values))
        np.testing.assert_array_equal(values, random_vector(partition.n, seed=17))


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
    halo = SpMVExecutor(dmatrix).compiled_halo("spmv_halo")
    assert SpMVExecutor(dmatrix).compiled_halo("spmv_halo") is halo  # built once
    assert all(entry[3] == "spmv_halo" for entry in halo.messages)

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
    """The global row order *is* the row blocks' order, entry for entry."""
    matrix = _scrambled_poisson()
    assert not matrix.has_sorted_indices
    x = random_vector(matrix.shape[0], seed=41)
    (cluster, partition, dmatrix), _ = _pair(matrix=matrix)
    out = SpMVExecutor(dmatrix).multiply(
        DistributedVector.from_global(cluster, partition, x)
    )
    assert out.to_global().tobytes() == _row_block_products(matrix, partition, x).tobytes()

    # A recovering solve: Alg. 2 slices the same global matrix mid-run.
    session = repro.SolverSession(matrix, matrix @ x, n_nodes=4, seed=3)
    failure_free = session.solve(repro.SolveRequest(strategy="esr", T=5, phi=1))
    recovered = session.solve(repro.SolveRequest(
        strategy="esr", T=5, phi=1, failures=[repro.FailureEvent(9, (2,))]
    ))
    assert recovered.converged
    assert recovered.iterations == failure_free.iterations
    error = np.linalg.norm(recovered.x - failure_free.x) / np.linalg.norm(failure_free.x)
    assert error <= 1e-13


@pytest.mark.parametrize("backend", ["vectorized"])
def test_cg_update_bit_identical_and_same_accounting(backend):
    """The fused CG tail matches the default composition, charges included."""
    (cl_f, part_f, m_f), (cl_d, part_d, m_d) = _pair(backend=backend)
    n = part_f.n
    x_g = random_vector(n, seed=31)
    r_g = random_vector(n, seed=32)
    p_g = random_vector(n, seed=33)
    rho_g = random_vector(n, seed=34)
    alpha, rz_old = 0.37, 1.25

    results = []
    for cluster, partition, dmatrix, cg_update in (
        (cl_f, part_f, m_f, cl_f.kernels.cg_update),
        (cl_d, part_d, m_d, lambda *a: KernelBackend.cg_update(cl_d.kernels, *a)),
    ):
        precond = make_preconditioner("block_jacobi")
        precond.setup(dmatrix)
        x = DistributedVector.from_global(cluster, partition, x_g)
        r = DistributedVector.from_global(cluster, partition, r_g)
        z = DistributedVector(cluster, partition)
        p = DistributedVector.from_global(cluster, partition, p_g)
        rho = DistributedVector.from_global(cluster, partition, rho_g)
        rz_new, r_norm_sq, beta = cg_update(x, r, z, p, rho, alpha, rz_old, precond)
        results.append(
            (rz_new, r_norm_sq, beta,
             x.to_global(), r.to_global(), z.to_global(), p.to_global())
        )

    (rz_f, rn_f, beta_f, *vecs_f), (rz_d, rn_d, beta_d, *vecs_d) = results
    assert rz_f == rz_d
    assert rn_f == rn_d
    assert beta_f == beta_d
    for vec_f, vec_d in zip(vecs_f, vecs_d):
        np.testing.assert_array_equal(vec_f, vec_d)
    _assert_cluster_equal(cl_f, cl_d)
