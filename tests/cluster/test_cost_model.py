"""Unit tests for the α/β/γ machine cost model."""

import math

import numpy as np
import pytest

from repro.cluster.cost_model import BYTES_PER_FLOAT, CostModel, zero_cost_model
from repro.exceptions import ConfigurationError


def test_bytes_per_float_is_eight():
    assert BYTES_PER_FLOAT == 8


class TestMessageTime:
    def test_single_hop_is_alpha_plus_bytes_beta(self):
        model = CostModel(alpha=1e-6, beta=1e-9, hop_penalty=0.5)
        assert model.message_time(1000, hops=1) == pytest.approx(1e-6 + 1000 * 1e-9)

    def test_extra_hops_increase_latency_only(self):
        model = CostModel(alpha=1e-6, beta=1e-9, hop_penalty=0.5)
        t1 = model.message_time(1000, hops=1)
        t3 = model.message_time(1000, hops=3)
        assert t3 - t1 == pytest.approx(2 * 0.5 * 1e-6)

    def test_zero_bytes_costs_latency(self):
        model = CostModel(alpha=2e-6, beta=1e-9)
        assert model.message_time(0) == pytest.approx(2e-6)

    def test_hops_below_one_clamped(self):
        model = CostModel(alpha=1e-6, beta=0.0)
        assert model.message_time(10, hops=0) == model.message_time(10, hops=1)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().message_time(-1)


class TestPayloadTime:
    def test_payload_has_no_latency(self):
        model = CostModel(alpha=1e-3, beta=1e-9)
        assert model.payload_time(1000) == pytest.approx(1000 * 1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().payload_time(-5)


class TestComputeAndMemcpy:
    def test_compute_time_linear_in_flops(self):
        model = CostModel(gamma=2e-9)
        assert model.compute_time(1e6) == pytest.approx(2e-3)

    def test_memcpy_time_linear_in_bytes(self):
        model = CostModel(mu=1e-10)
        assert model.memcpy_time(10**6) == pytest.approx(1e-4)

    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().compute_time(-1.0)

    def test_negative_memcpy_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel().memcpy_time(-1)


class TestCollectives:
    def test_allreduce_single_node_free(self):
        assert CostModel().allreduce_time(8, 1) == 0.0

    def test_allreduce_log_rounds(self):
        model = CostModel(alpha=1e-6, beta=1e-9)
        expected = 2 * math.ceil(math.log2(8)) * (1e-6 + 8e-9)
        assert model.allreduce_time(8, 8) == pytest.approx(expected)

    def test_allreduce_non_power_of_two(self):
        model = CostModel(alpha=1e-6, beta=0.0)
        # ceil(log2(5)) = 3 rounds each direction
        assert model.allreduce_time(0, 5) == pytest.approx(6e-6)

    def test_invalid_node_count(self):
        with pytest.raises(ConfigurationError):
            CostModel().allreduce_time(8, 0)


class TestNoise:
    def test_no_noise_returns_input(self):
        model = CostModel(noise=0.0)
        rng = np.random.default_rng(0)
        assert model.perturb(1.5, rng) == 1.5

    def test_noise_is_multiplicative_and_positive(self):
        model = CostModel(noise=0.3)
        rng = np.random.default_rng(0)
        values = [model.perturb(2.0, rng) for _ in range(100)]
        assert all(v > 0 for v in values)
        assert any(abs(v - 2.0) > 1e-6 for v in values)

    def test_noise_seeded_reproducible(self):
        model = CostModel(noise=0.1)
        a = [model.perturb(1.0, np.random.default_rng(42)) for _ in range(1)]
        b = [model.perturb(1.0, np.random.default_rng(42)) for _ in range(1)]
        assert a == b

    def test_zero_cost_not_perturbed(self):
        model = CostModel(noise=0.5)
        assert model.perturb(0.0, np.random.default_rng(0)) == 0.0

    def test_with_noise_copies(self):
        model = CostModel(noise=0.0)
        noisy = model.with_noise(0.2)
        assert noisy.noise == 0.2
        assert model.noise == 0.0
        assert noisy.alpha == model.alpha


class TestValidation:
    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma", "mu"])
    def test_negative_constants_rejected(self, field):
        with pytest.raises(ConfigurationError):
            CostModel(**{field: -1e-9})

    def test_negative_hop_penalty_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(hop_penalty=-0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(noise=-0.1)


def test_zero_cost_model_everything_free():
    model = zero_cost_model()
    assert model.message_time(10**9, hops=5) == 0.0
    assert model.compute_time(1e12) == 0.0
    assert model.allreduce_time(1024, 64) == 0.0
    assert model.memcpy_time(10**9) == 0.0
