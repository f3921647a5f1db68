"""Unit tests for per-node state (redundancy stashes, failure wipes)."""

import numpy as np

from repro.cluster.node import NodeState


def hold(node, iteration, owner, indices, values):
    """Hold one owner's (indices, values) piece for ``iteration``."""
    entry = (np.asarray(indices, dtype=np.int64), np.asarray(values, dtype=np.float64))
    node.hold_redundant(iteration, {owner: entry}, entry[0].nbytes + entry[1].nbytes)


class TestRedundancyStore:
    def test_stash_and_retrieve(self):
        node = NodeState(0)
        hold(node, 3, 1, [10, 11], [1.0, 2.0])
        idx, vals = node.redundant_for(3, 1)
        assert list(idx) == [10, 11]
        assert list(vals) == [1.0, 2.0]

    def test_hold_replaces_same_iteration(self):
        node = NodeState(0)
        hold(node, 3, 1, [10, 11], [1.0, 2.0])
        hold(node, 3, 2, [12], [3.0])
        assert node.redundant_for(3, 1) is None
        idx, vals = node.redundant_for(3, 2)
        assert list(idx) == [12] and list(vals) == [3.0]
        assert node.redundancy_nbytes == node.redundancy_bytes() == 16

    def test_different_iterations_separate(self):
        node = NodeState(0)
        hold(node, 3, 1, [1], [1.0])
        hold(node, 4, 1, [2], [2.0])
        assert node.redundant_for(3, 1) is not None
        assert node.redundant_for(4, 1) is not None
        assert list(node.redundant_for(4, 1)[0]) == [2]

    def test_missing_returns_none(self):
        node = NodeState(0)
        assert node.redundant_for(1, 0) is None
        hold(node, 1, 2, [0], [0.5])
        assert node.redundant_for(1, 3) is None

    def test_drop_redundant(self):
        node = NodeState(0)
        hold(node, 3, 1, [1], [1.0])
        node.drop_redundant(3)
        assert node.redundant_for(3, 1) is None
        assert node.redundancy_nbytes == 0

    def test_drop_missing_is_noop(self):
        NodeState(0).drop_redundant(99)

    def test_redundancy_bytes_counts_everything(self):
        node = NodeState(0)
        assert node.redundancy_bytes() == 0
        hold(node, 1, 2, np.arange(4), np.zeros(4))
        node.store["x"] = np.zeros(8)
        node.buddy_checkpoints[3] = {"x": np.zeros(2), "iteration": 1}
        expected = 4 * 8 + 4 * 8 + 8 * 8 + 2 * 8
        assert node.redundancy_bytes() == expected


class TestFailure:
    def test_wipe_clears_everything(self):
        node = NodeState(2)
        node.store["a"] = np.ones(2)
        node.scalars["b"] = 1.0
        hold(node, 0, 1, [0], [1.0])
        node.buddy_checkpoints[1] = {"x": np.ones(2)}
        node.wipe()
        assert not node.alive
        assert node.store == {}
        assert node.scalars == {}
        assert node.redundancy == {}
        assert node.buddy_checkpoints == {}

    def test_revive_increments_incarnation(self):
        node = NodeState(2)
        node.wipe()
        node.revive()
        assert node.alive
        assert node.incarnation == 1
        node.wipe()
        node.revive()
        assert node.incarnation == 2
