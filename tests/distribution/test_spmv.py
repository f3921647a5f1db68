"""Unit tests for the distributed SpMV executor."""

import numpy as np
import pytest

from repro.cluster import CostModel, VirtualCluster
from repro.core.redundancy import RedundancyQueue
from repro.distribution import (
    ASpMVExecutor,
    BlockRowPartition,
    DistributedMatrix,
    DistributedVector,
    SpMVExecutor,
)
from repro.exceptions import ConfigurationError
from repro.matrices import poisson_1d, poisson_2d, random_banded_spd

from ..conftest import make_distributed


class TestCorrectness:
    @pytest.mark.parametrize(
        "matrix_factory",
        [
            lambda: poisson_1d(24),
            lambda: poisson_2d(6),
            lambda: random_banded_spd(36, bandwidth=9, density=0.5, seed=4),
        ],
    )
    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_multiply_matches_scipy(self, matrix_factory, n_nodes):
        matrix = matrix_factory()
        cluster, partition, dmatrix = make_distributed(matrix, n_nodes)
        executor = SpMVExecutor(dmatrix)
        x = np.random.default_rng(1).standard_normal(matrix.shape[0])
        dx = DistributedVector.from_global(cluster, partition, x)
        result = executor.multiply(dx)
        assert np.allclose(result.to_global(), matrix @ x)

    def test_repeated_multiplies_reuse_buffers(self, small_spd):
        cluster, partition, dmatrix = make_distributed(small_spd, 4)
        executor = SpMVExecutor(dmatrix)
        rng = np.random.default_rng(2)
        out = DistributedVector(cluster, partition)
        for _ in range(3):
            x = rng.standard_normal(40)
            dx = DistributedVector.from_global(cluster, partition, x)
            executor.multiply(dx, out=out)
            assert np.allclose(out.to_global(), small_spd @ x)

    def test_out_vector_allocated_when_missing(self, small_spd):
        cluster, partition, dmatrix = make_distributed(small_spd, 4)
        executor = SpMVExecutor(dmatrix)
        dx = DistributedVector(cluster, partition)
        result = executor.multiply(dx)
        assert result.n == 40

    def test_partition_mismatch_rejected(self, small_spd):
        cluster, partition, dmatrix = make_distributed(small_spd, 4)
        other = BlockRowPartition.from_sizes([20, 10, 5, 5])
        bad = DistributedVector(cluster, other)
        with pytest.raises(ConfigurationError):
            SpMVExecutor(dmatrix).multiply(bad)

    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_output_sharing_the_input_rejected(self, small_spd, backend):
        # The product writes ``out`` while it still reads ``x``.
        cluster, partition, dmatrix = make_distributed(small_spd, 4)
        cluster.kernels = backend
        x = DistributedVector.from_global(cluster, partition, np.ones(40))
        with pytest.raises(ConfigurationError, match="shares storage"):
            SpMVExecutor(dmatrix).multiply(x, out=x)
        with pytest.raises(ConfigurationError, match="shares storage"):
            ASpMVExecutor(dmatrix, phi=1).multiply_augmented(
                x, iteration=1, queue=RedundancyQueue(capacity=2), out=x
            )
        np.testing.assert_array_equal(x.to_global(), np.ones(40))
        assert cluster.stats.total_messages("spmv_halo") == 0


class TestAccounting:
    def test_flops_charged_per_nnz(self):
        matrix = poisson_1d(16)
        model = CostModel(alpha=0, beta=0, gamma=1.0, mu=0, hop_penalty=0)
        cluster = VirtualCluster(4, cost_model=model, seed=0)
        partition = BlockRowPartition.uniform(16, 4)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        executor = SpMVExecutor(dmatrix)
        x = DistributedVector.from_global(cluster, partition, np.ones(16))
        executor.multiply(x)
        assert cluster.stats.total_flops() == pytest.approx(2 * matrix.nnz)

    def test_halo_bytes_charged(self):
        matrix = poisson_1d(16)
        cluster, partition, dmatrix = None, None, None
        model = CostModel(alpha=0, beta=1.0, gamma=0, mu=0, hop_penalty=0)
        cluster = VirtualCluster(4, cost_model=model, seed=0)
        partition = BlockRowPartition.uniform(16, 4)
        dmatrix = DistributedMatrix(cluster, partition, matrix)
        executor = SpMVExecutor(dmatrix)
        x = DistributedVector.from_global(cluster, partition, np.ones(16))
        executor.multiply(x)
        # 6 halo entries of 8 bytes each
        assert cluster.stats.total_bytes("spmv_halo") == 48

    def test_message_counts(self):
        matrix = poisson_1d(16)
        cluster, partition, dmatrix = make_distributed(matrix, 4)
        executor = SpMVExecutor(dmatrix)
        x = DistributedVector.from_global(cluster, partition, np.ones(16))
        executor.multiply(x)
        assert cluster.stats.total_messages("spmv_halo") == 6
