"""Unit tests for per-node/per-channel statistics."""

from repro.cluster.statistics import ClusterStats


class TestChannels:
    def test_message_updates_both_endpoints(self):
        stats = ClusterStats(4)
        stats.record_message(0, 2, 100, "halo")
        assert stats.bytes_sent[0] == 100
        assert stats.bytes_received[2] == 100
        assert stats.messages_sent[0] == 1
        assert stats.channels["halo"].bytes == 100

    def test_payload_counts_bytes_only(self):
        stats = ClusterStats(4)
        stats.record_payload(0, 1, 64, "extra")
        assert stats.channels["extra"].messages == 0
        assert stats.channels["extra"].bytes == 64
        assert stats.messages_sent[0] == 0

    def test_collective_touches_all_nodes(self):
        stats = ClusterStats(3)
        stats.record_collective(8)
        assert list(stats.bytes_sent) == [8, 8, 8]
        assert stats.channels["reduction"].bytes == 24

    def test_total_bytes_by_channel(self):
        stats = ClusterStats(2)
        stats.record_message(0, 1, 10, "a")
        stats.record_message(1, 0, 20, "b")
        assert stats.total_bytes("a") == 10
        assert stats.total_bytes("b") == 20
        assert stats.total_bytes() == 30

    def test_total_messages(self):
        stats = ClusterStats(2)
        stats.record_message(0, 1, 10, "a")
        stats.record_message(0, 1, 10, "a")
        assert stats.total_messages("a") == 2
        assert stats.total_messages() == 2


class TestComputeAndMemory:
    def test_flops_accumulate_per_node(self):
        stats = ClusterStats(2)
        stats.record_compute(0, 5.0)
        stats.record_compute(0, 7.0)
        assert stats.flops[0] == 12.0
        assert stats.total_flops() == 12.0

    def test_local_copy_bytes(self):
        stats = ClusterStats(2)
        stats.record_local_copy(1, 256)
        assert stats.local_copy_bytes[1] == 256


class TestSummary:
    def test_summary_keys(self):
        stats = ClusterStats(2)
        stats.record_message(0, 1, 10, "halo")
        stats.record_compute(0, 3.0)
        summary = stats.summary()
        assert summary["total_flops"] == 3.0
        assert summary["total_bytes"] == 10.0
        assert summary["bytes[halo]"] == 10.0
        assert summary["messages[halo]"] == 1.0
        assert "peak_redundancy_bytes" in summary
