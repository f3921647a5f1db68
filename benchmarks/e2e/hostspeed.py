"""A probe of how fast the host is *right now*, and the factor it gives.

The guests this benchmark runs on change speed in phases: for minutes at
a time every kind of work — interpreter-bound tiny solves, memory-bound
SpMVs, process starts and this probe alike — takes 25-35 % longer, with
no steal time reported and CPU time equal to wall time.  Ten runs that
straddle such a phase disagree by more than any bound a metric may have
(the driver's first check of this benchmark measured 5-11 % and then
20-37 % on the same commit), and no statistic inside a run can remove a
slowdown that lasts longer than the run.

So this probe, a fixed amount of synthetic work that shares nothing with
the program, runs before and after every timed pass and, where a rung
can stop between two ops, every quarter of a second inside it; and a
host-clock metric is reported *at reference host speed*: a rate is
multiplied, a time divided, by ``probe time now / NOMINAL_SECONDS``.  The raw value
and the factor are stored beside every metric.  Comparisons of two
commits stay valid — the probe is the benchmark's, not the program's —
and a run made in a slow phase reads like one made in a normal phase.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Median of :func:`probe` inside a run on the baseline host (see
#: ``baseline.json``) in a normal phase.  Only a scale: on another host
#: every compensated metric is off by one constant factor.
NOMINAL_SECONDS = 0.00197

CHUNKS = 5
#: 160 KB, cache-resident and 64-byte aligned.  Both matter: a 1.6 MB
#: vector made the probe depend on where the process's memory happened to
#: lie (8 % between processes), and a ``ddot`` over a vector that is not
#: cache-line aligned takes 1.75 times as long, so the allocator's choice
#: made the probe bimodal.
_buffer = np.random.default_rng(0).standard_normal(20_000 + 8)
_offset = (-_buffer.ctypes.data // 8) % 8
_vector = _buffer[_offset:_offset + 20_000]


def _chunk() -> float:
    """Reductions and a bytecode loop, the two kinds of work a solve is
    made of, about 1 ms each."""
    start = perf_counter()
    for _ in range(500):
        _vector.dot(_vector)
    total = 0
    for i in range(25_000):
        total += i
    return perf_counter() - start


def probe() -> float:
    """Seconds one chunk of the fixed work takes now (median of five)."""
    return statistics.median(_chunk() for _ in range(CHUNKS))


def factor(probes: list[float]) -> float:
    """Host slowness over a pass, from the probes taken before, during and
    after it: > 1 means slower than nominal."""
    return statistics.fmean(probes) / NOMINAL_SECONDS
