"""Unit tests for the SpMV communication plan (I_{s,l} sets)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distribution.comm_plan import SpMVPlan
from repro.distribution.partition import BlockRowPartition
from repro.exceptions import ConfigurationError
from repro.matrices import poisson_1d, random_banded_spd


def brute_force_halo(matrix: sp.csr_matrix, partition, src: int, dst: int):
    """Reference computation of I_{src,dst} straight from the definition."""
    lo_d, hi_d = partition.bounds(dst)
    lo_s, hi_s = partition.bounds(src)
    block = matrix[lo_d:hi_d, :].tocoo()
    needed = {
        int(c) for c in block.col if lo_s <= c < hi_s
    }
    return sorted(needed)


class TestPlanCorrectness:
    @pytest.mark.parametrize("n_nodes", [2, 3, 4])
    def test_halo_indices_match_brute_force(self, n_nodes):
        matrix = random_banded_spd(24, bandwidth=6, density=0.7, seed=3)
        partition = BlockRowPartition.uniform(24, n_nodes)
        plan = SpMVPlan(matrix, partition)
        for src in range(n_nodes):
            for dst in range(n_nodes):
                if src == dst:
                    continue
                expected = brute_force_halo(matrix, partition, src, dst)
                assert list(plan.halo_indices(src, dst)) == expected

    def test_own_indices_never_in_halo(self):
        matrix = random_banded_spd(20, bandwidth=5, seed=1)
        partition = BlockRowPartition.uniform(20, 4)
        plan = SpMVPlan(matrix, partition)
        for src in range(4):
            lo, hi = partition.bounds(src)
            for descriptor in plan.sends[src]:
                assert np.all(descriptor.global_indices >= lo)
                assert np.all(descriptor.global_indices < hi)
                assert descriptor.dst != src

    def test_compressed_local_matvec_matches_global(self):
        matrix = random_banded_spd(30, bandwidth=8, density=0.6, seed=5)
        partition = BlockRowPartition.uniform(30, 3)
        plan = SpMVPlan(matrix, partition)
        x = np.random.default_rng(0).standard_normal(30)
        expected = matrix @ x
        for rank in range(3):
            lo, hi = partition.bounds(rank)
            # Compress the row block's columns to [own | ghosts]: the
            # ghost list must cover every off-block column it reads.
            ghosts = plan.ghost_globals[rank]
            col_map = np.full(30, -1)
            col_map[lo:hi] = np.arange(hi - lo)
            col_map[ghosts] = hi - lo + np.arange(ghosts.size)
            block = sp.csr_matrix(matrix)[lo:hi, :]
            assert np.all(col_map[block.indices] >= 0)
            local = sp.csr_matrix(
                (block.data, col_map[block.indices], block.indptr),
                shape=(hi - lo, hi - lo + ghosts.size),
            )
            local_x = np.concatenate([x[lo:hi], x[ghosts]])
            assert np.allclose(local @ local_x, expected[lo:hi])

    def test_tridiagonal_only_neighbours_communicate(self):
        matrix = poisson_1d(16)
        partition = BlockRowPartition.uniform(16, 4)
        plan = SpMVPlan(matrix, partition)
        for src in range(4):
            for descriptor in plan.sends[src]:
                assert abs(descriptor.dst - src) == 1
                assert descriptor.count == 1  # one boundary entry per side

    def test_multiplicity_counts_destinations(self):
        matrix = poisson_1d(16)
        partition = BlockRowPartition.uniform(16, 4)
        plan = SpMVPlan(matrix, partition)
        m = plan.multiplicity(1)  # middle node: rows 4..7
        # first entry goes to rank 0, last to rank 2, interior nowhere
        assert list(m) == [1, 0, 0, 1]

    def test_natural_destinations(self):
        matrix = poisson_1d(16)
        partition = BlockRowPartition.uniform(16, 4)
        plan = SpMVPlan(matrix, partition)
        assert plan.natural_destinations(0) == (1,)
        assert set(plan.natural_destinations(1)) == {0, 2}

    def test_total_halo_entries(self):
        matrix = poisson_1d(16)
        partition = BlockRowPartition.uniform(16, 4)
        plan = SpMVPlan(matrix, partition)
        # 3 internal boundaries, 2 entries each (one per direction)
        assert plan.total_halo_entries() == 6

    def test_ghost_positions_are_consistent(self):
        matrix = random_banded_spd(24, bandwidth=7, seed=2)
        partition = BlockRowPartition.uniform(24, 4)
        plan = SpMVPlan(matrix, partition)
        for dst in range(4):
            ghosts = plan.ghost_globals[dst]
            for descriptor in plan.recvs[dst]:
                assert np.array_equal(
                    ghosts[descriptor.ghost_positions], descriptor.global_indices
                )


class TestValidation:
    def test_non_square_rejected(self):
        matrix = sp.random(4, 6, density=0.5, format="csr")
        with pytest.raises(ConfigurationError):
            SpMVPlan(matrix, BlockRowPartition.uniform(4, 2))

    def test_size_mismatch_rejected(self):
        matrix = sp.identity(8, format="csr")
        with pytest.raises(ConfigurationError):
            SpMVPlan(matrix, BlockRowPartition.uniform(6, 2))

    def test_diagonal_matrix_has_no_communication(self):
        matrix = sp.identity(12, format="csr")
        plan = SpMVPlan(matrix, BlockRowPartition.uniform(12, 3))
        assert plan.total_halo_entries() == 0
        assert all(not sends for sends in plan.sends)
