"""Tests for the benchmark machine-model calibration."""

from repro.cluster import cost_model
from repro.harness.calibration import BENCH_COST_MODEL


def test_bench_model_deterministic_by_default():
    assert BENCH_COST_MODEL.noise == 0.0
    assert BENCH_COST_MODEL is cost_model.BENCH_COST_MODEL


def test_noise_model_wraps_same_constants():
    noisy = BENCH_COST_MODEL.with_noise(0.02)
    assert noisy.noise == 0.02
    assert noisy.alpha == BENCH_COST_MODEL.alpha
    assert noisy.gamma == BENCH_COST_MODEL.gamma


def test_regime_compute_dominates_one_extra_copy():
    """The calibration target: one ASpMV extra copy per iteration
    (phi=1, piggybacked) costs well under the local SpMV compute for a
    bench-scale block (DESIGN.md substitution rationale)."""
    n_local, nnz_per_row = 384, 19
    compute = BENCH_COST_MODEL.compute_time(2 * nnz_per_row * n_local)
    extra = BENCH_COST_MODEL.payload_time(n_local * 8)
    assert extra < 0.2 * compute
