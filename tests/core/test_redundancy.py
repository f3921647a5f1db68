"""Unit tests for the redundancy queue (Fig. 1 semantics)."""

import pytest

from repro.core.redundancy import RedundancyQueue
from repro.exceptions import ConfigurationError


class TestQueueBasics:
    def test_capacity_respected(self):
        queue = RedundancyQueue(3)
        for j in range(5):
            queue.push(j)
        assert len(queue) == 3
        assert queue.items == (2, 3, 4)

    def test_push_returns_evicted(self):
        queue = RedundancyQueue(2)
        assert queue.push(0) is None
        assert queue.push(1) is None
        assert queue.push(2) == 0

    def test_idempotent_repush(self):
        queue = RedundancyQueue(2)
        queue.push(0)
        queue.push(1)
        assert queue.push(1) is None  # rollback re-execution
        assert queue.items == (0, 1)

    def test_contains(self):
        queue = RedundancyQueue(2)
        queue.push(7)
        assert 7 in queue
        assert 8 not in queue

    def test_clear(self):
        queue = RedundancyQueue(2)
        queue.push(1)
        queue.clear()
        assert len(queue) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            RedundancyQueue(0)


class TestPairs:
    def test_holds_pair(self):
        queue = RedundancyQueue(3)
        queue.push(20)
        queue.push(21)
        assert queue.holds_pair(20, 21)
        assert not queue.holds_pair(19, 20)

    def test_no_pair(self):
        queue = RedundancyQueue(3)
        queue.push(20)
        queue.push(40)
        assert not queue.holds_pair(20, 21)
        assert not queue.holds_pair(40, 41)

    def test_newest_pair_wins(self):
        queue = RedundancyQueue(4)
        for j in (20, 21, 40, 41):
            queue.push(j)
        assert queue.holds_pair(20, 21) and queue.holds_pair(40, 41)
        queue.push(60)  # evicts 20
        assert not queue.holds_pair(20, 21)
        assert queue.holds_pair(40, 41)


class TestFig1Trace:
    """Replicates Fig. 1 of the paper exactly, for T = 20."""

    def test_queue_states_follow_figure(self):
        T = 20
        queue = RedundancyQueue(3)
        # start: [_, _, _]
        assert queue.render() == "[_, _, _]"
        # j = T: first push of the first storage stage
        queue.push(T)
        assert queue.render() == "[_, _, p'(20)]"
        # j = T + 1: second push completes the stage
        queue.push(T + 1)
        assert queue.render() == "[_, p'(20), p'(21)]"
        # j = 2T: the next stage's first push evicts nothing yet
        queue.push(2 * T)
        assert queue.render() == "[p'(20), p'(21), p'(40)]"
        # a failure here must still recover iteration T+1
        assert queue.holds_pair(T, T + 1)
        # j = 2T + 1: completes stage two, evicting p'(20)
        assert queue.push(2 * T + 1) == T
        assert queue.render() == "[p'(21), p'(40), p'(41)]"
        assert queue.holds_pair(2 * T, 2 * T + 1)
        assert not queue.holds_pair(T, T + 1)

    def test_esr_two_slot_rolling_pair(self):
        queue = RedundancyQueue(2)
        for j in range(10):
            queue.push(j)
            if j >= 1:
                assert queue.holds_pair(j - 1, j)
