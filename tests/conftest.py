"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import is_hypothesis_test, settings

from repro.cluster import CostModel, VirtualCluster, zero_cost_model
from repro.distribution import BlockRowPartition, DistributedMatrix, DistributedVector
from repro.matrices import poisson_1d, poisson_2d, random_banded_spd

#: Example-count multiplier of the ``ci`` Hypothesis profile.  Tier-1
#: runs every property at the count its test states; CI's deep step
#: (``pytest --hypothesis-profile=ci``) runs the replay and oracle
#: properties at this many times that count.
CI_EXAMPLE_SCALE = 5
settings.register_profile("ci", deadline=None)


def pytest_collection_modifyitems(config, items):
    """Under the ``ci`` profile, scale each property's stated example count."""
    if settings.get_current_profile_name() != "ci":
        return
    # A test's own @settings beat any profile, so the settings Hypothesis
    # attached to each test are replaced, not the profile's defaults.
    # Hypothesis keeps them in a private attribute: if that ever moves,
    # stop rather than run the deep step at the tier-1 counts.
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        if test is None or not is_hypothesis_test(test) or test in scaled:
            continue  # a parametrized property is scaled once, not per case
        stated = getattr(test, "_hypothesis_internal_use_settings", None)
        if stated is None:
            raise pytest.UsageError(
                f"cannot find the Hypothesis settings of {item.nodeid} to scale"
            )
        test._hypothesis_internal_use_settings = settings(
            stated, max_examples=stated.max_examples * CI_EXAMPLE_SCALE
        )
        scaled.add(test)


@pytest.fixture
def cluster4() -> VirtualCluster:
    """Four nodes, deterministic unit-cost-free model."""
    return VirtualCluster(4, cost_model=zero_cost_model(), seed=0)


@pytest.fixture
def cluster4_costed() -> VirtualCluster:
    """Four nodes with a simple nonzero cost model."""
    model = CostModel(alpha=1e-6, beta=1e-9, gamma=1e-9, mu=1e-11, hop_penalty=0.0)
    return VirtualCluster(4, cost_model=model, seed=0)


@pytest.fixture
def small_spd() -> sp.csr_matrix:
    """A 40x40 banded SPD matrix."""
    return random_banded_spd(40, bandwidth=5, density=0.8, seed=7)


@pytest.fixture
def poisson_matrix() -> sp.csr_matrix:
    """1-D Poisson of size 64 (bandwidth 1, well understood)."""
    return poisson_1d(64)


@pytest.fixture
def poisson2d_matrix() -> sp.csr_matrix:
    """2-D Poisson on a 8x8 grid (n = 64)."""
    return poisson_2d(8)


def make_distributed(matrix: sp.csr_matrix, n_nodes: int = 4, cost_model=None, seed=0):
    """(cluster, partition, DistributedMatrix) helper used across tests."""
    cluster = VirtualCluster(
        n_nodes, cost_model=cost_model or zero_cost_model(), seed=seed
    )
    partition = BlockRowPartition.uniform(matrix.shape[0], n_nodes)
    dmatrix = DistributedMatrix(cluster, partition, matrix)
    return cluster, partition, dmatrix


def random_vector(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n)


def distributed_from(cluster, partition, values) -> DistributedVector:
    return DistributedVector.from_global(cluster, partition, values)
