"""Unit tests for all preconditioners and the factory."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distribution import DistributedVector
from repro.exceptions import ConfigurationError, ReconstructionUnsupportedError
from repro.matrices import poisson_1d, random_banded_spd
from repro.preconditioners import (
    BlockICholPreconditioner,
    BlockJacobiPreconditioner,
    BlockSSORPreconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    PolynomialPreconditioner,
    available_preconditioners,
    ic0_factor,
    make_preconditioner,
    split_into_blocks,
)

from ..conftest import make_distributed


def apply_global(precond, matrix, r):
    """Apply a preconditioner to a global vector via distributed vectors."""
    cluster = precond.matrix.cluster
    partition = precond.matrix.partition
    rv = DistributedVector.from_global(cluster, partition, r)
    out = DistributedVector(cluster, partition)
    precond.apply(rv, out)
    return out.to_global()


@pytest.fixture
def spd40():
    return random_banded_spd(40, bandwidth=4, density=0.8, seed=13)


class TestSplitIntoBlocks:
    def test_exact_division(self):
        assert split_into_blocks(20, 10) == [(0, 10), (10, 20)]

    def test_as_few_blocks_as_possible(self):
        bounds = split_into_blocks(25, 10)
        assert len(bounds) == 3  # ceil(25/10)
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 25

    def test_small_n(self):
        assert split_into_blocks(3, 10) == [(0, 3)]

    def test_empty(self):
        assert split_into_blocks(0, 10) == []

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            split_into_blocks(10, 0)


class TestIdentity:
    def test_apply_is_identity(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = IdentityPreconditioner()
        precond.setup(dmatrix)
        r = np.random.default_rng(0).standard_normal(40)
        assert np.allclose(apply_global(precond, spd40, r), r)

    def test_solve_restricted_identity(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = IdentityPreconditioner()
        precond.setup(dmatrix)
        v = np.arange(10.0)
        assert np.allclose(precond.solve_restricted([1], v), v)


class TestJacobi:
    def test_apply_divides_by_diagonal(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = JacobiPreconditioner()
        precond.setup(dmatrix)
        r = np.random.default_rng(1).standard_normal(40)
        assert np.allclose(apply_global(precond, spd40, r), r / spd40.diagonal())

    def test_solve_restricted_multiplies_back(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = JacobiPreconditioner()
        precond.setup(dmatrix)
        lo, hi = partition.bounds(2)
        v = np.random.default_rng(2).standard_normal(hi - lo)
        restricted = precond.solve_restricted([2], v)
        assert np.allclose(restricted, v * spd40.diagonal()[lo:hi])

    def test_nonpositive_diagonal_rejected(self):
        bad = sp.csr_matrix(np.diag([1.0, -2.0, 3.0, 1.0]))
        _, _, dmatrix = make_distributed(bad, 2)
        with pytest.raises(ConfigurationError):
            JacobiPreconditioner().setup(dmatrix)


class TestBlockJacobi:
    def test_apply_matches_dense_block_inverse(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockJacobiPreconditioner(max_block_size=5)
        precond.setup(dmatrix)
        r = np.random.default_rng(3).standard_normal(40)
        result = apply_global(precond, spd40, r)
        # reference: apply each 5x5 block inverse
        expected = np.empty(40)
        dense = spd40.toarray()
        for rank in range(4):
            lo, hi = partition.bounds(rank)
            for blo, bhi in split_into_blocks(hi - lo, 5):
                block = dense[lo + blo : lo + bhi, lo + blo : lo + bhi]
                expected[lo + blo : lo + bhi] = np.linalg.solve(
                    block, r[lo + blo : lo + bhi]
                )
        assert np.allclose(result, expected)

    def test_solve_restricted_is_inverse_of_apply(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockJacobiPreconditioner(max_block_size=10)
        precond.setup(dmatrix)
        lo, hi = partition.bounds(1)
        v = np.random.default_rng(4).standard_normal(hi - lo)
        forward = precond._apply_local(1, v)
        roundtrip = precond.solve_restricted([1], forward)
        assert np.allclose(roundtrip, v)

    def test_solve_restricted_multiple_ranks(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockJacobiPreconditioner()
        precond.setup(dmatrix)
        sizes = partition.size_of(1) + partition.size_of(3)
        v = np.random.default_rng(5).standard_normal(sizes)
        result = precond.solve_restricted([3, 1], v)  # ranks get sorted
        assert result.shape == (sizes,)

    def test_restricted_rhs_size_validated(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = BlockJacobiPreconditioner()
        precond.setup(dmatrix)
        with pytest.raises(ConfigurationError):
            precond.solve_restricted([1], np.zeros(99))

    def test_block_bounds_respect_max_size(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = BlockJacobiPreconditioner(max_block_size=3)
        precond.setup(dmatrix)
        for lo, hi in precond.block_bounds(0):
            assert hi - lo <= 3

    def test_unset_up_rejected(self):
        precond = BlockJacobiPreconditioner()
        with pytest.raises(ConfigurationError):
            _ = precond.matrix

    def test_invalid_block_size(self):
        with pytest.raises(ConfigurationError):
            BlockJacobiPreconditioner(max_block_size=0)

    def test_indefinite_block_names_rank_and_rows(self, spd40):
        # Rank 2 owns rows [20, 30); with blocks of 5 its second block
        # is local rows [5, 10).  Flip one pivot of that block only.
        broken = spd40.tolil()
        broken[27, 27] = -1.0
        _, _, dmatrix = make_distributed(broken.tocsr(), 4)
        with pytest.raises(ConfigurationError, match=r"rank 2 rows \[5,10\) is not SPD"):
            BlockJacobiPreconditioner(max_block_size=5).setup(dmatrix)

    @pytest.mark.parametrize("poison", [np.nan, np.inf])
    def test_non_finite_entry_rejected_at_setup(self, spd40, poison):
        broken = spd40.tolil()
        broken[12, 11] = poison
        _, _, dmatrix = make_distributed(broken.tocsr(), 4)
        with pytest.raises(ConfigurationError, match=r"rank 1 rows \[0,10\) has non-finite"):
            BlockJacobiPreconditioner().setup(dmatrix)


class TestBlockSSOR:
    def test_apply_positive_definite_action(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = BlockSSORPreconditioner(omega=1.0)
        precond.setup(dmatrix)
        r = np.random.default_rng(6).standard_normal(40)
        z = apply_global(precond, spd40, r)
        assert float(r @ z) > 0  # SPD operator

    def test_inverse_roundtrip(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockSSORPreconditioner(omega=1.3)
        precond.setup(dmatrix)
        lo, hi = partition.bounds(0)
        v = np.random.default_rng(7).standard_normal(hi - lo)
        assert np.allclose(
            precond.solve_restricted([0], precond._apply_local(0, v)), v
        )

    def test_cached_transpose_applies_byte_identically(self, spd40):
        import scipy.sparse.linalg as spla

        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockSSORPreconditioner(omega=1.3)
        precond.setup(dmatrix)
        for rank in range(4):
            v = np.random.default_rng(rank).standard_normal(partition.size_of(rank))
            cached = precond._lower_t[rank]
            applied = precond._apply_local(rank, v)
            assert precond._lower_t[rank] is cached  # built at setup, not per apply
            # The uncached path: transpose the factor for every back solve.
            lower = precond._lower[rank]
            y = spla.spsolve_triangular(lower, v, lower=True)
            y *= precond._mid[rank]
            expected = spla.spsolve_triangular(lower.T.tocsr(), y, lower=False)
            assert applied.tobytes() == expected.tobytes()

    def test_omega_bounds(self):
        with pytest.raises(ConfigurationError):
            BlockSSORPreconditioner(omega=2.0)
        with pytest.raises(ConfigurationError):
            BlockSSORPreconditioner(omega=0.0)


class TestBlockIChol:
    def test_ic0_factor_exact_on_tridiagonal(self):
        # IC(0) on a tridiagonal SPD matrix is the exact Cholesky factor.
        a = poisson_1d(12)
        factor = ic0_factor(a)
        assert np.allclose((factor @ factor.T).toarray(), a.toarray())

    def test_ic0_pattern_is_lower_triangle(self, spd40):
        factor = ic0_factor(spd40)
        coo = factor.tocoo()
        assert np.all(coo.row >= coo.col)

    def test_apply_approximates_inverse(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = BlockICholPreconditioner()
        precond.setup(dmatrix)
        r = np.random.default_rng(8).standard_normal(40)
        z = apply_global(precond, spd40, r)
        assert float(r @ z) > 0

    def test_inverse_roundtrip(self, spd40):
        _, partition, dmatrix = make_distributed(spd40, 4)
        precond = BlockICholPreconditioner()
        precond.setup(dmatrix)
        lo, hi = partition.bounds(2)
        v = np.random.default_rng(9).standard_normal(hi - lo)
        assert np.allclose(
            precond.solve_restricted([2], precond._apply_local(2, v)), v
        )

    def test_nonpositive_diagonal_rejected(self):
        bad = sp.csr_matrix(np.diag([1.0, 0.0, 1.0, 1.0]))
        with pytest.raises(ConfigurationError):
            ic0_factor(bad)


class TestPolynomial:
    def test_apply_is_spd_operator(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = PolynomialPreconditioner(degree=2)
        precond.setup(dmatrix)
        rng = np.random.default_rng(10)
        for _ in range(5):
            r = rng.standard_normal(40)
            z = apply_global(precond, spd40, r)
            assert float(r @ z) > 0

    def test_degree_one_matches_closed_form(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = PolynomialPreconditioner(degree=1, omega=0.8)
        precond.setup(dmatrix)
        r = np.random.default_rng(11).standard_normal(40)
        z = apply_global(precond, spd40, r)
        dinv = 0.8 / spd40.diagonal()
        z0 = dinv * r
        expected = z0 + dinv * (r - spd40 @ z0)
        assert np.allclose(z, expected)

    def test_reconstruction_unsupported(self, spd40):
        _, _, dmatrix = make_distributed(spd40, 4)
        precond = PolynomialPreconditioner()
        precond.setup(dmatrix)
        assert not precond.supports_reconstruction
        with pytest.raises(ReconstructionUnsupportedError):
            precond.solve_restricted([0], np.zeros(10))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PolynomialPreconditioner(degree=0)
        with pytest.raises(ConfigurationError):
            PolynomialPreconditioner(omega=1.5)


class TestFactory:
    def test_all_names_construct(self, spd40):
        for name in available_preconditioners():
            precond = make_preconditioner(name)
            assert precond.name == name

    def test_kwargs_forwarded(self):
        precond = make_preconditioner("block_jacobi", max_block_size=4)
        assert precond.max_block_size == 4

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            make_preconditioner("amg")

    def test_reconstruction_support_flags(self):
        support = {
            name: make_preconditioner(name).supports_reconstruction
            for name in available_preconditioners()
        }
        assert support["identity"] and support["jacobi"] and support["block_jacobi"]
        assert support["block_ssor"] and support["block_ichol"]
        assert not support["polynomial"]
