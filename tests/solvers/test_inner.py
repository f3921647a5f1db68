"""Unit tests for the inner reconstruction solver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError, ConvergenceError
from repro.matrices import poisson_1d, random_banded_spd
from repro.solvers.inner import INNER_RTOL, inner_pcg, serial_block_jacobi


class TestSerialBlockJacobi:
    def test_apply_matches_block_inverse(self):
        matrix = random_banded_spd(20, bandwidth=3, seed=1)
        apply, flops = serial_block_jacobi(matrix, max_block_size=5)
        v = np.random.default_rng(0).standard_normal(20)
        expected = np.empty(20)
        dense = matrix.toarray()
        for lo in range(0, 20, 5):
            block = dense[lo : lo + 5, lo : lo + 5]
            expected[lo : lo + 5] = np.linalg.solve(block, v[lo : lo + 5])
        assert np.allclose(apply(v), expected)
        assert flops > 0

    def test_empty_matrix(self):
        apply, flops = serial_block_jacobi(sp.csr_matrix((0, 0)))
        assert flops == 0.0

    def test_singular_block_rejected(self):
        diagonal = np.ones(12)
        diagonal[7] = 0.0  # the second of three 4-row blocks has no inverse
        with pytest.raises(ConfigurationError, match="inner block of 4 rows is singular"):
            serial_block_jacobi(sp.diags(diagonal, format="csr"), max_block_size=4)


class TestInnerPCG:
    def test_solves_to_paper_tolerance(self):
        matrix = random_banded_spd(50, bandwidth=4, seed=2)
        x_true = np.random.default_rng(1).standard_normal(50)
        rhs = matrix @ x_true
        x, report = inner_pcg(matrix, rhs)
        assert report.converged
        assert report.relative_residual <= INNER_RTOL
        assert np.allclose(x, x_true, atol=1e-8)

    def test_report_counts_iterations(self):
        matrix = poisson_1d(40)
        rhs = np.ones(40)
        _, report = inner_pcg(matrix, rhs)
        assert 0 < report.iterations <= 40 + 5
        assert report.flops > 0

    def test_zero_rhs_trivial(self):
        matrix = poisson_1d(10)
        x, report = inner_pcg(matrix, np.zeros(10))
        assert np.all(x == 0.0)
        assert report.iterations == 0

    def test_empty_system(self):
        x, report = inner_pcg(sp.csr_matrix((0, 0)), np.empty(0))
        assert x.size == 0
        assert report.converged

    def test_warm_start(self):
        matrix = poisson_1d(30)
        x_true = np.linspace(0, 1, 30)
        rhs = matrix @ x_true
        _, cold = inner_pcg(matrix, rhs)
        _, warm = inner_pcg(matrix, rhs, x0=x_true + 1e-10)
        assert warm.iterations < cold.iterations

    def test_indefinite_matrix_raises(self):
        # eigenvalues -1 and 3: CG hits a non-positive p·Ap direction
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises((ConvergenceError, ConfigurationError)):
            inner_pcg(matrix, np.array([1.0, 0.0]), max_block_size=1)

    def test_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            inner_pcg(poisson_1d(5), np.ones(6))

    def test_budget_exhaustion_raises(self):
        matrix = poisson_1d(400)
        rhs = np.ones(400)
        with pytest.raises(ConvergenceError):
            inner_pcg(matrix, rhs, maxiter=3)
