"""Unit tests for distributed vectors."""

import numpy as np
import pytest

from repro.cluster import VirtualCluster, zero_cost_model
from repro.distribution import BlockRowPartition, DistributedVector
from repro.exceptions import ConfigurationError

from ..conftest import make_distributed


def setup_pair(n=12, n_nodes=4, seed=0):
    cluster = VirtualCluster(n_nodes, cost_model=zero_cost_model(), seed=0)
    partition = BlockRowPartition.uniform(n, n_nodes)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    va = DistributedVector.from_global(cluster, partition, a)
    vb = DistributedVector.from_global(cluster, partition, b)
    return cluster, partition, a, b, va, vb


class TestConstruction:
    def test_zero_vector_default(self):
        cluster = VirtualCluster(3, cost_model=zero_cost_model())
        partition = BlockRowPartition.uniform(9, 3)
        vec = DistributedVector(cluster, partition)
        assert np.all(vec.to_global() == 0.0)

    def test_from_global_roundtrip(self):
        _, _, a, _, va, _ = setup_pair()
        assert np.allclose(va.to_global(), a)

    def test_from_global_size_mismatch(self):
        cluster = VirtualCluster(3, cost_model=zero_cost_model())
        partition = BlockRowPartition.uniform(9, 3)
        with pytest.raises(ConfigurationError):
            DistributedVector.from_global(cluster, partition, np.zeros(5))

    def test_explicit_blocks_copied(self):
        cluster = VirtualCluster(2, cost_model=zero_cost_model())
        partition = BlockRowPartition.uniform(4, 2)
        source = [np.ones(2), np.zeros(2)]
        vec = DistributedVector(cluster, partition, source)
        source[0][:] = 99.0
        assert np.all(vec.blocks[0] == 1.0)

    def test_block_shape_mismatch(self):
        cluster = VirtualCluster(2, cost_model=zero_cost_model())
        partition = BlockRowPartition.uniform(4, 2)
        with pytest.raises(ConfigurationError):
            DistributedVector(cluster, partition, [np.ones(3), np.zeros(2)])

    def test_partition_cluster_mismatch(self):
        cluster = VirtualCluster(2, cost_model=zero_cost_model())
        partition = BlockRowPartition.uniform(9, 3)
        with pytest.raises(ConfigurationError):
            DistributedVector(cluster, partition)


class TestArithmetic:
    def test_axpy(self):
        _, _, a, b, va, vb = setup_pair()
        va.axpy(2.5, vb)
        assert np.allclose(va.to_global(), a + 2.5 * b)

    def test_aypx(self):
        _, _, a, b, va, vb = setup_pair()
        va.aypx(0.5, vb)  # va = vb + 0.5*va
        assert np.allclose(va.to_global(), b + 0.5 * a)

    def test_scale(self):
        _, _, a, _, va, _ = setup_pair()
        va.scale(-3.0)
        assert np.allclose(va.to_global(), -3.0 * a)

    def test_fill(self):
        _, _, _, _, va, _ = setup_pair()
        va.fill(7.0)
        assert np.all(va.to_global() == 7.0)

    def test_assign(self):
        _, _, _, b, va, vb = setup_pair()
        va.assign(vb, charge=False)
        assert np.allclose(va.to_global(), b)

    def test_incompatible_partitions_rejected(self):
        cluster = VirtualCluster(2, cost_model=zero_cost_model())
        p1 = BlockRowPartition.uniform(4, 2)
        p2 = BlockRowPartition.from_sizes([1, 3])
        v1 = DistributedVector(cluster, p1)
        v2 = DistributedVector(cluster, p2)
        with pytest.raises(ConfigurationError):
            v1.axpy(1.0, v2)


class TestReductions:
    def test_dot_matches_numpy(self):
        _, _, a, b, va, vb = setup_pair()
        assert va.dot(vb) == pytest.approx(float(a @ b))

    def test_dot_many_single_allreduce(self):
        cluster, _, a, b, va, vb = setup_pair()
        values = va.dot_many([vb, va])
        assert values[0] == pytest.approx(float(a @ b))
        assert values[1] == pytest.approx(float(a @ a))

    def test_norm2(self):
        _, _, a, _, va, _ = setup_pair()
        assert va.norm2() == pytest.approx(float(np.linalg.norm(a)))

    def test_dot_charges_allreduce(self):
        from repro.cluster import CostModel

        model = CostModel(alpha=1e-6, beta=0.0, gamma=0.0, hop_penalty=0.0)
        cluster = VirtualCluster(4, cost_model=model, seed=0)
        partition = BlockRowPartition.uniform(8, 4)
        v = DistributedVector.from_global(cluster, partition, np.ones(8))
        v.dot(v)
        assert cluster.elapsed() > 0


class TestFailureIntegration:
    def test_wipe_blocks(self):
        _, _, a, _, va, _ = setup_pair()
        va.wipe_blocks([1])
        out = va.to_global()
        assert np.all(out[3:6] == 0.0)
        assert np.allclose(out[:3], a[:3])

    def test_get_global_entries(self):
        _, _, a, _, va, _ = setup_pair()
        assert np.allclose(va.get_global_entries(np.array([0, 5, 11])), a[[0, 5, 11]])

    def test_copy_independent(self):
        _, _, a, _, va, _ = setup_pair()
        clone = va.copy()
        va.fill(0.0)
        assert np.allclose(clone.to_global(), a)

    def test_zeros_like(self):
        _, _, _, _, va, _ = setup_pair()
        z = DistributedVector.zeros_like(va)
        assert z.n == va.n
        assert np.all(z.to_global() == 0.0)

    def test_matrix_fixture_helper(self, small_spd):
        cluster, partition, dmatrix = make_distributed(small_spd, 4)
        assert dmatrix.n == 40
        assert partition.n_nodes == 4
