"""Property: a compiled exchange phase bills exactly what ``exchange`` bills.

:meth:`~repro.cluster.communicator.VirtualCluster.exchange_compiled`
applies a :meth:`~repro.cluster.communicator.VirtualCluster.compile_exchange`
phase as whole-array operations; ``exchange`` walks the same messages
one by one.  For random phases on ``Ring`` and ``FatTree`` clusters of
2–128 nodes — senders that also receive, receivers with many senders,
merged (5th field true) and piggyback payloads, several channels — both
must leave byte-equal clocks, per-rank byte and message counts and
channel totals, starting from the same uneven clocks.  Under cost noise
both must draw the same RNG values, and with a failed node both must
raise the same error after the same partial accounting.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster import CostModel, VirtualCluster
from repro.cluster.topology import FatTree, Ring
from repro.exceptions import ReproError

CHANNELS = ("spmv_halo", "aspmv_extra", "checkpoint")
MODEL = CostModel(alpha=1.3e-6, beta=2.7e-10, gamma=1e-9, mu=1.1e-11, hop_penalty=0.35)


@st.composite
def phases(draw):
    n_nodes = draw(st.integers(2, 128))
    # A few busy ranks give receivers many senders and senders that
    # also receive; the rest of the cluster stays idle.
    hot = draw(st.lists(st.integers(0, n_nodes - 1), min_size=2, max_size=12, unique=True))
    pairs = st.tuples(st.sampled_from(hot), st.sampled_from(hot)).filter(lambda p: p[0] != p[1])
    nbytes = st.integers(0, 1 << 16)
    channel = st.sampled_from(CHANNELS)
    messages = draw(st.lists(
        st.tuples(pairs, nbytes, channel, st.booleans()).map(
            lambda m: (m[0][0], m[0][1], m[1], m[2], m[3])
        ),
        max_size=40,
    ))
    piggyback = draw(st.lists(
        st.tuples(pairs, nbytes, channel).map(lambda m: (m[0][0], m[0][1], m[1], m[2])),
        max_size=10,
    ))
    topology = draw(st.sampled_from([Ring, FatTree]))
    return n_nodes, topology, messages, piggyback


def _pair(n_nodes, topology, noise, data):
    """Two identical clusters with the same uneven clocks."""
    model = MODEL.with_noise(noise)
    clocks = np.array(
        data.draw(st.lists(
            st.floats(0.0, 1e-3, allow_nan=False), min_size=n_nodes, max_size=n_nodes
        )),
        dtype=np.float64,
    )
    clusters = []
    for _ in range(2):
        cluster = VirtualCluster(n_nodes, cost_model=model, topology=topology(n_nodes), seed=3)
        cluster.clocks[:] = clocks
        clusters.append(cluster)
    return clusters


def _outcome(apply):
    try:
        apply()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def _assert_same_accounting(a: VirtualCluster, b: VirtualCluster) -> None:
    assert a.clocks.tobytes() == b.clocks.tobytes()
    for name in ("bytes_sent", "bytes_received", "messages_sent"):
        assert getattr(a.stats, name).tobytes() == getattr(b.stats, name).tobytes(), name
    assert {k: v for k, v in a.stats.channels.items() if v.messages or v.bytes} == {
        k: v for k, v in b.stats.channels.items() if v.messages or v.bytes
    }
    assert a.rng.bit_generator.state == b.rng.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(phase=phases(), noise=st.sampled_from([0.0, 0.05]), data=st.data())
def test_compiled_exchange_bills_like_the_per_message_loop(phase, noise, data):
    n_nodes, topology, messages, piggyback = phase
    generic, compiled = _pair(n_nodes, topology, noise, data)
    phase_bill = compiled.compile_exchange(messages, piggyback)
    for _ in range(2):  # a repeated phase starts from the clocks it left
        generic.exchange(messages, piggyback)
        compiled.exchange_compiled(phase_bill)
        _assert_same_accounting(generic, compiled)


@settings(max_examples=30, deadline=None)
@given(phase=phases(), data=st.data())
def test_compiled_exchange_with_a_dead_node_fails_like_the_per_message_loop(phase, data):
    n_nodes, topology, messages, piggyback = phase
    generic, compiled = _pair(n_nodes, topology, 0.0, data)
    phase_bill = compiled.compile_exchange(messages, piggyback)
    dead = data.draw(st.integers(0, n_nodes - 1))
    generic.fail([dead])
    compiled.fail([dead])
    expected = _outcome(lambda: generic.exchange(messages, piggyback))
    assert _outcome(lambda: compiled.exchange_compiled(phase_bill)) == expected
    _assert_same_accounting(generic, compiled)
