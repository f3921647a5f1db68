"""Property: the billing fast paths account exactly like the per-item paths.

Two clusters get the same random stream of operations.  One bills
through the fast paths a solve uses — compiled ``charge_compute`` /
``charge_memcpy`` profiles, ``exchange_compiled`` and the whole-cluster
``allreduce`` — the other through the per-item reference path only:
``charge``, ``exchange`` and ``allreduce`` over an explicit rank group.
Both also see per-rank ``compute`` / ``memcpy`` calls with non-integral
amounts, group allreduces, fault counters, failures, replacements,
resets and statistics read mid-stream, with cost noise on or off.
A statistic read mid-stream must read the same on both; at the end the
two must hold byte-equal clocks, every
:class:`~repro.cluster.statistics.ClusterStats` array, the same channel
totals in the same order, the same fault counters and ``summary()``,
and the same noise RNG state; an operation that raises must raise the
same error on both.
"""

from __future__ import annotations

import json

from hypothesis import example, given, settings, strategies as st

from repro.cluster import CostModel, VirtualCluster
from repro.cluster.topology import FatTree, Ring
from repro.exceptions import ReproError

CHANNELS = ("spmv_halo", "aspmv_extra", "checkpoint")
MODEL = CostModel(alpha=1.3e-6, beta=2.7e-10, gamma=1.1e-9, mu=1.3e-11, hop_penalty=0.35)
ARRAYS = (
    "flops", "bytes_sent", "bytes_received", "messages_sent",
    "local_copy_bytes", "redundancy_peak_bytes",
)
#: Non-integral flops: the first one a stats object sees ends any
#: reordering of its float additions.
FRACTIONS = st.sampled_from([0.1, 1.0 / 3.0, 2.5e-3, 7.3e-8, 0.5, 1e3 + 0.7])


@st.composite
def phases(draw, n_nodes):
    pairs = st.tuples(st.integers(0, n_nodes - 1), st.integers(0, n_nodes - 1)).filter(
        lambda p: p[0] != p[1]
    )
    messages = draw(st.lists(
        st.tuples(pairs, st.integers(0, 1 << 16), st.sampled_from(CHANNELS), st.booleans())
        .map(lambda m: (m[0][0], m[0][1], m[1], m[2], m[3])),
        max_size=12,
    ))
    piggyback = draw(st.lists(
        st.tuples(pairs, st.integers(0, 1 << 12), st.sampled_from(CHANNELS))
        .map(lambda m: (m[0][0], m[0][1], m[1], m[2])),
        max_size=4,
    ))
    return tuple(messages), tuple(piggyback)


def _profile(draw, n_nodes, amounts):
    return tuple((rank, draw(amounts)) for rank in range(n_nodes))


@st.composite
def scripts(draw):
    n_nodes = draw(st.integers(2, 12))
    integral = st.integers(0, 10**6).map(float)
    bills = {
        "compute": [_profile(draw, n_nodes, integral) for _ in range(2)]
        + [_profile(draw, n_nodes, st.floats(0.0, 1e4, allow_nan=False))],
        "memcpy": [_profile(draw, n_nodes, st.integers(0, 1 << 20)) for _ in range(2)],
    }
    phase_list = [draw(phases(n_nodes)) for _ in range(2)]
    rank = st.integers(0, n_nodes - 1)
    op = st.one_of(
        st.tuples(st.just("charge_compute"), st.integers(0, 2)),
        st.tuples(st.just("charge_compute_copy"), st.integers(0, 2)),
        st.tuples(st.just("charge_memcpy"), st.integers(0, 1)),
        st.tuples(st.just("exchange"), st.integers(0, 1)),
        st.tuples(st.just("allreduce"), st.sampled_from([8, 16, 24])),
        st.tuples(st.just("group_allreduce"), st.sets(rank, min_size=1), st.sampled_from([8, 16])),
        st.tuples(st.just("compute"), rank, st.one_of(integral, FRACTIONS)),
        st.tuples(st.just("memcpy"), rank, st.integers(0, 1 << 16)),
        st.tuples(st.just("fault"), st.sampled_from(["sdc", "rollback"])),
        st.tuples(st.just("fail"), st.sets(rank, min_size=1, max_size=max(1, n_nodes - 1))),
        st.tuples(st.just("replace")),
        st.tuples(st.just("reset")),
        st.tuples(st.just("read"), st.sampled_from(ARRAYS + ("channels", "summary"))),
    )
    # Long runs of bills between reads are what a solve looks like.
    ops = draw(st.lists(op, min_size=1, max_size=60))
    topology = draw(st.sampled_from([Ring, FatTree]))
    noise = draw(st.sampled_from([0.0, 0.05]))
    return n_nodes, topology, noise, bills, phase_list, ops


def _outcome(apply):
    try:
        apply()
    except ReproError as exc:
        return type(exc), str(exc)
    return None


def _assert_same_accounting(fast: VirtualCluster, reference: VirtualCluster) -> None:
    assert fast.clocks.tobytes() == reference.clocks.tobytes()
    for name in ARRAYS:
        assert getattr(fast.stats, name).tobytes() == getattr(reference.stats, name).tobytes(), name
    assert [
        (name, totals.bytes, totals.messages) for name, totals in fast.stats.channels.items()
    ] == [
        (name, totals.bytes, totals.messages) for name, totals in reference.stats.channels.items()
    ]
    assert fast.stats.faults == reference.stats.faults
    assert json.dumps(fast.stats.summary()) == json.dumps(reference.stats.summary())
    assert fast.rng.bit_generator.state == reference.rng.bit_generator.state


def _assert_same_read(name: str, fast: VirtualCluster, reference: VirtualCluster) -> None:
    """One statistic read mid-stream, the way a caller would read it."""
    if name == "summary":
        assert json.dumps(fast.stats.summary()) == json.dumps(reference.stats.summary())
    elif name == "channels":
        assert dict(fast.stats.channels) == dict(reference.stats.channels)
    else:
        assert getattr(fast.stats, name).tobytes() == getattr(reference.stats, name).tobytes()


def _apply(op, fast, reference, bills, compiled, phase_list):
    """Run ``op`` on both clusters: fast paths on ``fast``, per-item on ``reference``."""
    kind = op[0]
    if kind in ("charge_compute", "charge_compute_copy"):
        profile = bills["compute"][op[1]]
        # An equal profile held in a different tuple bills the same.
        billed = profile if kind == "charge_compute" else tuple(list(profile))
        return lambda: fast.charge_compute(billed), lambda: reference.charge(compute=profile)
    if kind == "charge_memcpy":
        profile = bills["memcpy"][op[1]]
        return lambda: fast.charge_memcpy(profile), lambda: reference.charge(memcpy=profile)
    if kind == "exchange":
        messages, piggyback = phase_list[op[1]]
        return (
            lambda: fast.exchange_compiled(compiled[op[1]]),
            lambda: reference.exchange(messages, piggyback),
        )
    if kind == "allreduce":
        return (
            lambda: fast.allreduce(op[1]),
            lambda: reference.allreduce(op[1], ranks=reference.alive_ranks()),
        )
    if kind == "group_allreduce":
        group = sorted(op[1])
        return (
            lambda: fast.allreduce(op[2], ranks=group),
            lambda: reference.allreduce(op[2], ranks=group),
        )
    if kind == "compute":
        return lambda: fast.compute(op[1], op[2]), lambda: reference.compute(op[1], op[2])
    if kind == "memcpy":
        return lambda: fast.memcpy(op[1], op[2]), lambda: reference.memcpy(op[1], op[2])
    if kind == "fault":
        return lambda: fast.record_fault(op[1]), lambda: reference.record_fault(op[1])
    if kind == "fail":
        return lambda: fast.fail(op[1]), lambda: reference.fail(op[1])
    if kind == "replace":
        return (
            lambda: fast.replace(fast.dead_ranks()),
            lambda: reference.replace(reference.dead_ranks()),
        )
    if kind == "reset":
        return fast.reset, reference.reset
    raise AssertionError(kind)


#: Integral bills between non-integral adds: adding the bills' flops
#: later, in one product, rounds differently (1418134.7 against
#: 1418134.7000000002 on rank 0).
ORDER_SENSITIVE = (
    2, FatTree, 0.0,
    {
        "compute": [((0, 709067.0), (1, 3.0)), ((0, 1.0), (1, 1.0)), ((0, 0.5), (1, 0.25))],
        "memcpy": [((0, 8), (1, 8)), ((0, 0), (1, 16))],
    },
    [((), ()), ((), ())],
    [
        ("compute", 0, 0.1), ("charge_compute", 0), ("compute", 0, 0.5),
        ("charge_compute", 0), ("compute", 0, 0.1), ("read", "flops"),
    ],
)


@settings(max_examples=150, deadline=None)
@given(script=scripts())
@example(script=ORDER_SENSITIVE)
def test_fast_path_statistics_equal_the_per_item_reference(script):
    n_nodes, topology, noise, bills, phase_list, ops = script
    fast, reference = (
        VirtualCluster(n_nodes, cost_model=MODEL.with_noise(noise),
                       topology=topology(n_nodes), seed=11)
        for _ in range(2)
    )
    compiled = [fast.compile_exchange(messages, piggyback) for messages, piggyback in phase_list]
    for op in ops:
        if op[0] == "read":
            _assert_same_read(op[1], fast, reference)
            continue
        on_fast, on_reference = _apply(op, fast, reference, bills, compiled, phase_list)
        assert _outcome(on_fast) == _outcome(on_reference), op
    _assert_same_accounting(fast, reference)
