"""Machine-model calibration for the paper-reproduction benchmarks.

The paper's numbers come from 128 VSC3 nodes (fat tree, Intel MPI).  Our
virtual cluster runs at a reduced scale (default 16 nodes, ~10⁴ rows),
so the raw VSC3 constants would put the per-iteration cost composition
in a different regime (start-up latency would dominate the much smaller
messages).  The constants below are chosen so that at the benchmark
scale the failure-free iteration looks like the paper's regime:

* local SpMV computation is the bulk of an iteration,
* halo exchange is a visible but minor fraction,
* the two fused dot-product allreduces cost a few percent,
* one ASpMV extra copy (ϕ=1) adds well under a percent for the
  banded 27-point matrix — matching the ESR column of Table 2.

Rationale per constant:

``gamma`` — effective sparse-kernel rate ≈ 1.5 GFLOP/s (memory-bound
SpMV on one core-dominant process, as in the paper's 1 process/node).
``beta`` — ≈ 6 GB/s effective point-to-point bandwidth.
``alpha`` — 0.6 µs start-up, QDR-InfiniBand-like.
``mu`` — ≈ 60 GB/s local copy bandwidth (checkpoint memcpy).
``hop_penalty`` — fat-tree: +15 % latency per extra hop.
``noise`` — zero: the paper's tables are billed noise-free, so every
cell is one deterministic run rather than a median of noisy
repetitions.
"""

from __future__ import annotations

from ..cluster.cost_model import BENCH_COST_MODEL

__all__ = ["BENCH_COST_MODEL"]
