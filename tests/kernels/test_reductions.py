"""The canonical reduction: every dot product is one chunked flat ``ddot``.

:func:`repro.kernels.base.flat_dot` fixes the association of every sum
in the engine by the vector length alone.  These tests pin its
definition, that the backend returns exactly its values while billing
per rank, and the property it buys: with a node-independent
preconditioner, a solve's bits no longer depend on the node count.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

import repro
from repro.cluster import CostModel, VirtualCluster
from repro.cluster.cost_model import BYTES_PER_FLOAT
from repro.distribution import BlockRowPartition, DistributedMatrix, DistributedVector
from repro.kernels.base import REDUCTION_CHUNK, flat_dot
from repro.matrices import load
from repro.preconditioners import make_preconditioner

BACKENDS = ("vectorized",)
COSTED = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11)
NOISY = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, noise=0.1)
#: Crosses two chunk boundaries, with a short last chunk.
N = 3 * REDUCTION_CHUNK + 5
N_NODES = 4


def _chunk_loop(a: np.ndarray, b: np.ndarray) -> float:
    """The definition, spelled out: ascending slices, first one starts."""
    total = None
    for start in range(0, a.size, REDUCTION_CHUNK):
        stop = start + REDUCTION_CHUNK
        value = float(a[start:stop] @ b[start:stop])
        total = value if total is None else total + value
    return 0.0 if total is None else total


@pytest.mark.parametrize(
    "n", [0, 1, REDUCTION_CHUNK - 1, REDUCTION_CHUNK, REDUCTION_CHUNK + 1, N]
)
def test_flat_dot_is_the_chunk_loop(n):
    rng = np.random.default_rng(n)
    a, b = rng.standard_normal(n), rng.standard_normal(n)
    value = flat_dot(a, b)
    assert type(value) is float
    assert value == _chunk_loop(a, b)
    assert flat_dot(a, a) == _chunk_loop(a, a)
    if n <= REDUCTION_CHUNK:
        assert value == float(a @ b)


# ----------------------------------------------------------- backend values


def _cluster(backend, cost_model=COSTED, replaced=False):
    cluster = VirtualCluster(N_NODES, cost_model=cost_model, seed=3)
    cluster.kernels = backend
    if replaced:
        cluster.compute(2, 1e6)
        cluster.fail([1])
        cluster.replace([1])
    return cluster


def _vectors(cluster, count=3):
    partition = BlockRowPartition.uniform(N, N_NODES)
    rng = np.random.default_rng(11)
    return partition, [
        DistributedVector.from_global(cluster, partition, rng.standard_normal(N))
        for _ in range(count)
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_dot_many_returns_flat_dot(backend):
    cluster = _cluster(backend)
    _, (x, y, z) = _vectors(cluster)
    assert x.dot_many([y]) == [flat_dot(x.data, y.data)]
    assert x.dot_many([y, x]) == [flat_dot(x.data, y.data), flat_dot(x.data, x.data)]
    assert x.dot(z) == flat_dot(x.data, z.data)


def _jacobi(cluster, partition):
    diagonal = 2.0 + np.random.default_rng(5).random(N)
    matrix = DistributedMatrix(cluster, partition, sp.diags(diagonal).tocsr())
    precond = make_preconditioner("jacobi")
    precond.setup(matrix)
    return precond


def _cg_state(cluster):
    partition, (x, r, p, rho) = _vectors(cluster, count=4)
    z = DistributedVector(cluster, partition)
    return partition, x, r, z, p, rho


@pytest.mark.parametrize("backend", BACKENDS)
def test_cg_update_pair_is_flat_dot(backend):
    cluster = _cluster(backend)
    partition, x, r, z, p, rho = _cg_state(cluster)
    precond = _jacobi(cluster, partition)
    r_after = r.data - 0.25 * rho.data
    z_after = np.empty(N)
    precond.flat_apply(r_after, z_after)
    rz_new, r_norm_sq, beta = cluster.kernels.cg_update(
        x, r, z, p, rho, 0.25, 3.0, precond
    )
    np.testing.assert_array_equal(r.data, r_after)
    np.testing.assert_array_equal(z.data, z_after)
    assert rz_new == flat_dot(r_after, z_after)
    assert r_norm_sq == flat_dot(r_after, r_after)
    assert beta == rz_new / 3.0


# ------------------------------------------------------------------- bills


def _per_rank(partition, per_entry):
    return [(rank, per_entry * partition.size_of(rank)) for rank in range(N_NODES)]


def _assert_same_accounting(a: VirtualCluster, b: VirtualCluster):
    assert a.clocks.tobytes() == b.clocks.tobytes()
    assert a.stats.summary() == b.stats.summary()
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


ACCOUNTING = pytest.mark.parametrize(
    "cost_model,replaced",
    [(COSTED, False), (COSTED, True), (NOISY, False)],
    ids=["fresh", "replaced", "noisy"],
)


@ACCOUNTING
@pytest.mark.parametrize("backend", BACKENDS)
def test_dot_many_bills_equal_per_item_charges(backend, cost_model, replaced):
    fused = _cluster(backend, cost_model, replaced)
    partition, (x, y, _) = _vectors(fused)
    billed = _cluster(backend, cost_model, replaced)
    for others in ([y], [y, x]):
        x.dot_many(others)
        billed.charge(compute=_per_rank(partition, 2 * len(others)))
        billed.allreduce(len(others) * BYTES_PER_FLOAT)
    _assert_same_accounting(fused, billed)


@ACCOUNTING
@pytest.mark.parametrize("backend", BACKENDS)
def test_cg_update_bills_equal_per_item_charges(backend, cost_model, replaced):
    fused = _cluster(backend, cost_model, replaced)
    partition, x, r, z, p, rho = _cg_state(fused)
    precond = _jacobi(fused, partition)
    billed = _cluster(backend, cost_model, replaced)
    fused.kernels.cg_update(x, r, z, p, rho, 0.25, 3.0, precond)
    billed.charge(compute=_per_rank(partition, 2))  # x += alpha p
    billed.charge(compute=_per_rank(partition, 2))  # r -= alpha rho
    billed.charge(compute=precond.charge_profile())  # z = P r
    billed.charge(compute=_per_rank(partition, 4))  # r.z, r.r
    billed.allreduce(2 * BYTES_PER_FLOAT)
    billed.charge(compute=_per_rank(partition, 2))  # p = z + beta p
    _assert_same_accounting(fused, billed)


# --------------------------------------------------------------- partitions


@pytest.fixture(scope="module")
def emilia_tiny():
    matrix, b, _ = load("emilia_923_like", "tiny")
    return matrix, b


@pytest.mark.parametrize("backend", BACKENDS)
def test_solve_bits_do_not_depend_on_the_node_count(emilia_tiny, backend):
    matrix, b = emilia_tiny
    request = repro.SolveRequest(
        strategy="reference", preconditioner="jacobi", backend=backend
    )
    results = []
    for n_nodes in (2, 4, 8):
        session = repro.SolverSession(matrix, b, n_nodes=n_nodes)
        results.append(session.solve(request).result)
    first = results[0]
    assert first.converged
    for other in results[1:]:
        assert other.residual_history == first.residual_history
        assert other.x.tobytes() == first.x.tobytes()

