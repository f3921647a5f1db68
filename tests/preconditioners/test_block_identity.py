"""The O(nnz) block builder against the per-block loops it replaced, bit for bit.

Contract (a)/(d) rest on the block-Jacobi operators being *the same
arrays* as before ``repro.preconditioners.blocks``: same ``indptr`` /
``indices`` (values and dtype), same ``data`` bytes, for ``P_s``, ``M_s``,
the stacked operator and the inner solver's operator.
"""

import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.cluster import VirtualCluster, zero_cost_model
from repro.distribution import BlockRowPartition, DistributedMatrix
from repro.matrices import load, poisson_1d, random_banded_spd
from repro.preconditioners import BlockJacobiPreconditioner
from repro.solvers.inner import serial_block_jacobi

from .reference import reference_block_jacobi, reference_serial_block_jacobi


def _with_duplicates(matrix):
    """The same matrix with every entry stored as two unequal parts."""
    data = np.column_stack([0.3 * matrix.data, 0.7 * matrix.data]).ravel()
    duplicated = sp.csr_matrix(
        (data, np.repeat(matrix.indices, 2), 2 * matrix.indptr), shape=matrix.shape
    )
    assert duplicated.nnz == 2 * matrix.nnz  # the constructor must not merge them
    return duplicated


#: name -> (matrix, rows per node).  47 rows over 4 nodes leaves every
#: ``n_local`` indivisible by 3 and by 10; the uneven partition mixes
#: three block sizes under one ``max_block_size``.
CASES = {
    "indivisible": (random_banded_spd(47, bandwidth=4, density=0.8, seed=3), (12, 12, 12, 11)),
    "uneven": (random_banded_spd(47, bandwidth=6, density=0.6, seed=4), (5, 23, 11, 8)),
    "duplicates": (_with_duplicates(random_banded_spd(40, bandwidth=4, seed=5)), (13, 27)),
    "zeros_in_blocks": (poisson_1d(45), (20, 25)),
}


def assert_same_csr(ours, reference):
    assert type(ours) is type(reference)
    assert ours.shape == reference.shape
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(ours, name), getattr(reference, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("max_block_size", [1, 3, 10])
@pytest.mark.parametrize("case", sorted(CASES))
class TestBitIdentity:
    def test_distributed_operators(self, case, max_block_size):
        matrix, sizes = CASES[case]
        cluster = VirtualCluster(len(sizes), cost_model=zero_cost_model(), seed=0)
        dmatrix = DistributedMatrix(cluster, BlockRowPartition.from_sizes(sizes), matrix)
        precond = BlockJacobiPreconditioner(max_block_size=max_block_size)
        precond.setup(dmatrix)
        forward, backward, stacked = reference_block_jacobi(dmatrix, max_block_size)
        for rank in range(len(sizes)):
            assert_same_csr(precond._forward[rank], forward[rank])
            assert_same_csr(precond._backward[rank], backward[rank])
            assert precond._apply_flops(rank) == 2.0 * forward[rank].nnz
        assert_same_csr(precond._stacked, stacked)

    def test_inner_operator(self, case, max_block_size):
        matrix, _ = CASES[case]
        n = matrix.shape[0]
        reference = reference_serial_block_jacobi(matrix, max_block_size)
        apply, flops = serial_block_jacobi(matrix, max_block_size)
        assert flops == 2.0 * reference.nnz
        v = np.random.default_rng(11).standard_normal(n)
        assert apply(v).tobytes() == (reference @ v).tobytes()
        # Unit vectors read the operator back entry by entry.
        columns = np.column_stack([apply(unit) for unit in np.eye(n)])
        assert columns.tobytes() == reference.toarray().tobytes()


def test_setup_memory_is_linear_in_rows_per_node():
    # 16 384 rows per node: the dense rank block of the reference loop
    # would be 2.1 GB.  O(nnz) keeps the whole set-up in a few tens of MB.
    matrix, _, _ = load("poisson3d", scale="bench")
    assert matrix.shape[0] == 32768
    cluster = VirtualCluster(2, cost_model=zero_cost_model(), seed=0)
    dmatrix = DistributedMatrix(cluster, BlockRowPartition.uniform(32768, 2), matrix)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        BlockJacobiPreconditioner().setup(dmatrix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MB"
    assert time.perf_counter() - start < 5.0
