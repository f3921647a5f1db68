"""Unit tests for the virtual cluster (clocks, accounting, failures)."""

import numpy as np
import pytest

from repro.cluster import CostModel, VirtualCluster, zero_cost_model
from repro.cluster.communicator import MAX_BILLS
from repro.distribution import BlockRowPartition, DistributedVector
from repro.exceptions import ClusterError, ConfigurationError, DeadNodeError


def costed_cluster(n=4, alpha=1e-6, beta=1e-9, gamma=1e-9):
    model = CostModel(alpha=alpha, beta=beta, gamma=gamma, mu=1e-11, hop_penalty=0.0)
    return VirtualCluster(n, cost_model=model, seed=0)


class TestClocks:
    def test_initial_time_zero(self):
        assert costed_cluster().elapsed() == 0.0

    def test_compute_advances_one_clock(self):
        cluster = costed_cluster()
        cluster.compute(1, 1e6)
        assert cluster.clocks[1] == pytest.approx(1e-3)
        assert cluster.clocks[0] == 0.0

    def test_send_makes_receiver_wait_for_sender(self):
        cluster = costed_cluster()
        cluster.compute(0, 1e6)  # sender busy until 1e-3
        cluster.send(0, 1, 1000, channel="test")
        assert cluster.clocks[1] >= cluster.clocks[0]
        assert cluster.clocks[0] > 1e-3

    def test_send_does_not_rewind_receiver(self):
        cluster = costed_cluster()
        cluster.compute(1, 1e9)  # receiver far ahead
        before = cluster.clocks[1]
        cluster.send(0, 1, 8, channel="test")
        assert cluster.clocks[1] == before

    def test_allreduce_synchronises(self):
        cluster = costed_cluster()
        cluster.compute(2, 1e6)
        cluster.allreduce(8)
        assert np.all(cluster.clocks == cluster.clocks[0])
        assert cluster.clocks[0] > 1e-3

    def test_barrier_synchronises_without_cost(self):
        cluster = costed_cluster()
        cluster.compute(3, 1e6)
        cluster.barrier()
        assert np.all(cluster.clocks == cluster.clocks[3])

    def test_advance_raw(self):
        cluster = costed_cluster()
        cluster.advance(0, 0.5)
        assert cluster.clocks[0] == 0.5

    def test_advance_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            costed_cluster().advance(0, -1.0)

    def test_memcpy_charges_mu(self):
        cluster = costed_cluster()
        cluster.memcpy(0, 10**6)
        assert cluster.clocks[0] == pytest.approx(1e-5)


class TestAccounting:
    def test_send_records_channel(self):
        cluster = costed_cluster()
        cluster.send(0, 1, 100, channel="halo")
        assert cluster.stats.total_bytes("halo") == 100
        assert cluster.stats.total_messages("halo") == 1

    def test_compute_records_flops(self):
        cluster = costed_cluster()
        cluster.compute(0, 123.0)
        assert cluster.stats.total_flops() == pytest.approx(123.0)


class TestAccountingFastPaths:
    """Compiled bills and the fast allreduce equal the per-item paths."""

    FLOPS = ((0, 100.0), (1, 250.0), (2, 0.0), (3, 77.0))
    NBYTES = ((0, 4096), (1, 64), (2, 0), (3, 8))

    @pytest.mark.parametrize("replaced", [False, True])
    def test_compiled_bills_equal_the_per_item_loop(self, replaced):
        compiled, per_item = costed_cluster(), costed_cluster()
        for cluster in (compiled, per_item):
            cluster.compute(2, 1e6)
            if replaced:
                cluster.fail([1])
                cluster.replace([1])
        for _ in range(3):
            compiled.charge_compute(self.FLOPS)
            compiled.charge_memcpy(self.NBYTES)
            per_item.charge(compute=self.FLOPS)
            per_item.charge(memcpy=self.NBYTES)
        # The compiled path ran: each profile's bill was found by the
        # profile's identity and counted three times, not yet added.
        flops_bill = compiled._compute_bills[id(self.FLOPS)]
        copy_bill = compiled._memcpy_bills[id(self.NBYTES)]
        assert flops_bill.profile is self.FLOPS and copy_bill.profile is self.NBYTES
        assert compiled.stats._compute_bills == {flops_bill: 3}
        assert compiled.stats._copy_bills == {copy_bill: 3}
        assert compiled.clocks.tobytes() == per_item.clocks.tobytes()
        assert compiled.stats.flops.tobytes() == per_item.stats.flops.tobytes()
        assert (
            compiled.stats.local_copy_bytes.tobytes()
            == per_item.stats.local_copy_bytes.tobytes()
        )

    def test_profiles_built_anew_per_call_keep_the_bill_cache_bounded(self):
        compiled, per_item = costed_cluster(), costed_cluster()
        for _ in range(MAX_BILLS + 50):
            fresh = tuple(list(self.FLOPS))  # equal, but a new tuple each call
            compiled.charge_compute(fresh)
            per_item.charge(compute=self.FLOPS)
        assert len(compiled._compute_bills) <= MAX_BILLS
        assert compiled.clocks.tobytes() == per_item.clocks.tobytes()
        assert compiled.stats.flops.tobytes() == per_item.stats.flops.tobytes()

    @pytest.mark.parametrize("noise", [0.0, 0.1])
    @pytest.mark.parametrize(
        "profile",
        [
            ((0, 1.0), (1, 1.0)),  # partial
            ((1, 1.0), (0, 1.0), (2, 1.0), (3, 1.0)),  # unsorted
            ((0, 1.0), (1, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)),  # a rank twice
        ],
    )
    def test_partial_or_unsorted_profile_rejected(self, profile, noise):
        model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, noise=noise)
        cluster = VirtualCluster(4, cost_model=model, seed=0)
        with pytest.raises(ConfigurationError):
            cluster.charge_compute(profile)
        with pytest.raises(ConfigurationError):
            cluster.charge_memcpy(profile)
        assert not cluster.clocks.any()

    @pytest.mark.parametrize("nbytes", [8, 16])
    def test_fast_allreduce_advances_by_the_model_cost(self, nbytes):
        cluster = costed_cluster(n=8)
        cluster.compute(3, 1e6)
        for _ in range(2):
            expected = cluster.clocks.max() + cluster.cost_model.allreduce_time(nbytes, 8)
            cluster.allreduce(nbytes)
            assert np.all(cluster.clocks == expected)

    def test_fast_allreduce_draws_like_the_uncached_path_under_noise(self):
        model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, noise=0.1)
        fast = VirtualCluster(4, cost_model=model, seed=5)
        uncached = VirtualCluster(4, cost_model=model, seed=5)
        for call in range(100):
            nbytes = 8 * (1 + call % 2)
            fast.allreduce(nbytes)
            uncached.allreduce(nbytes, ranks=range(4))  # the general path
        assert fast.clocks.tobytes() == uncached.clocks.tobytes()
        assert fast.rng.bit_generator.state == uncached.rng.bit_generator.state


class TestFailureSemantics:
    def test_fail_marks_dead(self):
        cluster = costed_cluster()
        cluster.fail([1, 2])
        assert cluster.dead_ranks() == (1, 2)
        assert cluster.alive_ranks() == (0, 3)

    def test_dead_node_cannot_compute(self):
        cluster = costed_cluster()
        cluster.fail([1])
        with pytest.raises(DeadNodeError):
            cluster.compute(1, 1.0)

    def test_dead_node_cannot_send_or_receive(self):
        cluster = costed_cluster()
        cluster.fail([1])
        with pytest.raises(DeadNodeError):
            cluster.send(0, 1, 8, channel="x")
        with pytest.raises(DeadNodeError):
            cluster.send(1, 0, 8, channel="x")

    def test_fail_wipes_registered_vector_blocks(self):
        cluster = VirtualCluster(4, cost_model=zero_cost_model(), seed=0)
        partition = BlockRowPartition.uniform(8, 4)
        vec = DistributedVector.from_global(cluster, partition, np.arange(8.0))
        cluster.fail([2])
        assert np.all(vec.blocks[2] == 0.0)
        assert np.all(vec.blocks[0] == [0.0, 1.0])

    def test_unregistered_vector_survives(self):
        cluster = VirtualCluster(4, cost_model=zero_cost_model(), seed=0)
        partition = BlockRowPartition.uniform(8, 4)
        vec = DistributedVector.from_global(
            cluster, partition, np.arange(8.0), register=False
        )
        cluster.fail([2])
        assert np.all(vec.blocks[2] == [4.0, 5.0])

    def test_fail_wipes_node_stores(self):
        cluster = costed_cluster()
        node = cluster.node(1)
        node.store["x"] = np.ones(3)
        node.scalars["beta"] = 2.0
        node.hold_redundant(5, {0: (np.array([0]), np.array([1.0]))}, 16)
        cluster.fail([1])
        assert node.store == {}
        assert node.scalars == {}
        assert node.redundancy == {}

    def test_fail_everything_rejected(self):
        with pytest.raises(ClusterError):
            costed_cluster().fail([0, 1, 2, 3])

    def test_fail_requires_ranks(self):
        with pytest.raises(ConfigurationError):
            costed_cluster().fail([])

    def test_double_fail_rejected(self):
        cluster = costed_cluster()
        cluster.fail([1])
        with pytest.raises(DeadNodeError):
            cluster.fail([1])

    def test_replace_revives_with_current_clock(self):
        cluster = costed_cluster()
        cluster.compute(0, 1e9)
        cluster.fail([1])
        cluster.replace([1])
        node = cluster.node(1)
        assert node.alive
        assert node.incarnation == 1
        assert cluster.clocks[1] == pytest.approx(cluster.elapsed())

    def test_replace_alive_rejected(self):
        cluster = costed_cluster()
        with pytest.raises(ClusterError):
            cluster.replace([0])

    def test_self_send_rejected(self):
        with pytest.raises(ClusterError):
            costed_cluster().send(1, 1, 8, channel="x")


class TestConstruction:
    def test_topology_size_mismatch_rejected(self):
        from repro.cluster.topology import Ring

        with pytest.raises(ConfigurationError):
            VirtualCluster(4, topology=Ring(8))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            VirtualCluster(0)

    def test_default_topology_is_fat_tree(self):
        from repro.cluster.topology import FatTree

        assert isinstance(VirtualCluster(4).topology, FatTree)

    def test_noise_reproducible_across_same_seed(self):
        model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, noise=0.1)
        times = []
        for _ in range(2):
            cluster = VirtualCluster(2, cost_model=model, seed=99)
            cluster.compute(0, 1e6)
            cluster.send(0, 1, 1000, channel="x")
            times.append(cluster.elapsed())
        assert times[0] == times[1]
