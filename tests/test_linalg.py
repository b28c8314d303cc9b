"""Validated dense symmetric linear algebra: construction gates, factorization,
solves, and principal blocks."""

import math

import numpy as np
import pytest

from artifact.linalg import (
    MAX_DIM,
    PD_TOLERANCE,
    CorrelationMatrix,
    IndexSubset,
    NotPositiveDefinite,
    solve_spd,
    spd_factorize,
)
from conftest import equi_matrix, random_correlation, small_eigenvalue_correlation


class TestIndexSubset:
    def test_of_sorts_and_dedupes_via_validation(self):
        s = IndexSubset.of(2, 1)
        assert s.members == (1, 2)
        assert str(s) == "{1,2}"

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            IndexSubset((2, 2))

    def test_labels_start_at_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            IndexSubset((0, 1))

    def test_full(self):
        assert IndexSubset.full(3).members == (1, 2, 3)
        assert IndexSubset.full(0).members == ()

    def test_as_indices_zero_based(self):
        assert IndexSubset.of(1, 3).as_indices().tolist() == [0, 2]

    def test_positions_in_superset(self):
        sup = IndexSubset.of(2, 5, 7)
        assert IndexSubset.of(5, 7).positions_in(sup).tolist() == [1, 2]
        with pytest.raises(ValueError, match="not contained"):
            IndexSubset.of(3).positions_in(sup)

    def test_validate_within(self):
        IndexSubset.of(1, 4).validate_within(4)
        with pytest.raises(ValueError, match="out of range"):
            IndexSubset.of(1, 5).validate_within(4)

    def test_container_protocol(self):
        s = IndexSubset.of(1, 3)
        assert len(s) == 2
        assert list(s) == [1, 3]
        assert 3 in s and 2 not in s

    @pytest.mark.parametrize("members", [(1.7, 2), (True, 2), (1, np.True_), ("1", 2)])
    def test_labels_must_be_integers(self, members):
        with pytest.raises(ValueError, match="index labels must be integers"):
            IndexSubset(members)

    def test_numpy_integer_labels(self):
        s = IndexSubset((np.int64(3), np.int32(1)))
        assert s.members == (1, 3)
        assert all(type(m) is int for m in s.members)


class TestCorrelationMatrix:
    def test_identity_accepted(self):
        m = CorrelationMatrix(np.eye(3))
        assert m.dim == 3
        assert repr(m) == "CorrelationMatrix(dim=3)"

    def test_entries_read_only(self):
        m = CorrelationMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 1] = 0.5

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            CorrelationMatrix(np.ones((2, 3)))

    def test_dimension_cap(self):
        CorrelationMatrix(np.eye(MAX_DIM))
        with pytest.raises(ValueError, match="outside supported range"):
            CorrelationMatrix(np.eye(MAX_DIM + 1))

    def test_asymmetry_names_the_entry(self):
        a = np.eye(3)
        a[0, 2] = 0.5
        a[2, 0] = 0.5 + 1e-13
        with pytest.raises(ValueError, match=r"\(1,3\)"):
            CorrelationMatrix(a)

    def test_diagonal_must_be_one_exactly(self):
        a = np.eye(2)
        a[1, 1] = 1.0 + 1e-15
        with pytest.raises(ValueError, match=r"\(2,2\)"):
            CorrelationMatrix(a)

    def test_off_diagonal_strictly_below_one(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="strictly below 1"):
            CorrelationMatrix(a)

    def test_not_positive_definite_at_construction(self):
        # equi-correlation needs rho > -1/(d-1); -0.6 < -0.5 fails at minor 3
        a = np.full((3, 3), -0.6)
        np.fill_diagonal(a, 1.0)
        with pytest.raises(NotPositiveDefinite) as err:
            CorrelationMatrix(a)
        assert err.value.minor == 3
        assert err.value.pivot <= PD_TOLERANCE

    def test_nonfinite_rejected(self):
        a = np.eye(2)
        a[0, 1] = a[1, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            CorrelationMatrix(a)


def log_det(lower: np.ndarray) -> float:
    """log|m| from the lower factor of m, as upsilon reads it: twice the sum
    of the logs of the diagonal."""
    return 2.0 * float(np.sum(np.log(np.diagonal(lower))))


class TestSpdFactorize:
    def test_identity(self):
        lower = spd_factorize(np.eye(2))
        assert isinstance(lower, np.ndarray)
        assert np.array_equal(lower, np.eye(2))
        assert log_det(lower) == 0.0

    def test_two_by_two_log_det(self):
        lower = spd_factorize(np.array([[1.0, 0.6], [0.6, 1.0]]))
        assert log_det(lower) == pytest.approx(math.log(0.64), abs=1e-12)

    def test_log_det_matches_one_minus_rho_squared(self):
        for rho in np.linspace(-0.95, 0.95, 39):
            lower = spd_factorize(np.array([[1.0, rho], [rho, 1.0]]))
            assert log_det(lower) == pytest.approx(math.log1p(-rho * rho), abs=1e-12)

    def test_invalid_correlation_value_fails_pd(self):
        with pytest.raises(NotPositiveDefinite):
            spd_factorize(np.array([[1.0, 1.01], [1.01, 1.0]]))

    def test_visibly_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="asymmetry"):
            spd_factorize(np.array([[1.0, 0.2], [0.3, 1.0]]))

    def test_reconstruction_and_triangularity(self, rng):
        sigma = random_correlation(rng, 12)
        lower = spd_factorize(sigma)
        assert np.allclose(np.triu(lower, 1), 0.0)
        assert np.allclose(lower @ lower.T, sigma.entries, atol=1e-12)
        _, ref = np.linalg.slogdet(sigma.entries)
        assert log_det(lower) == pytest.approx(ref, abs=1e-10)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="exceeds supported maximum"):
            spd_factorize(np.eye(MAX_DIM + 1))


class TestSolveSpd:
    def test_identity(self):
        lower = spd_factorize(np.eye(2))
        assert np.allclose(solve_spd(lower, np.array([1.0, 1.0])), [1.0, 1.0])

    def test_equicorrelated_pair(self):
        lower = spd_factorize(np.array([[1.0, 0.6], [0.6, 1.0]]))
        x = solve_spd(lower, np.array([1.0, 1.0]))
        assert x == pytest.approx([0.625, 0.625], abs=1e-14)

    def test_uncorrelated_passthrough(self):
        lower = spd_factorize(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(solve_spd(lower, np.array([3.0, -2.0])), [3.0, -2.0])

    def test_roundtrip_recovers_solution(self, rng):
        sigma = random_correlation(rng, 12)
        x = rng.standard_normal(12)
        rhs = sigma.entries @ x
        got = solve_spd(spd_factorize(sigma), rhs)
        assert np.linalg.norm(got - x) <= 1e-10 * np.linalg.norm(x)

    def test_matrix_rhs(self, rng):
        sigma = random_correlation(rng, 5)
        rhs = rng.standard_normal((5, 3))
        got = solve_spd(spd_factorize(sigma), rhs)
        assert np.allclose(sigma.entries @ got, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        lower = spd_factorize(np.eye(3))
        with pytest.raises(ValueError, match="leading dimension"):
            solve_spd(lower, np.ones(2))

    @pytest.mark.parametrize("family", [random_correlation, small_eigenvalue_correlation])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_residuals_match_numpy_up_to_max_dim(self, rng, family, columns):
        # backward error |m x - b| / (|m| |x| + |b|); on the nearly singular
        # family x itself is determined only to about cond(m) eps
        for d in (1, 2, 5, 12, 16, 33, MAX_DIM):
            m = family(rng, d).entries
            b = rng.standard_normal(d if columns is None else (d, columns))
            got = solve_spd(spd_factorize(m), b)
            want = np.linalg.solve(m, b)
            assert got.shape == b.shape
            for x in (got, want):
                residual = np.linalg.norm(m @ x - b)
                assert residual <= 1e-12 * (np.linalg.norm(m) * np.linalg.norm(x) + np.linalg.norm(b))
            if family is random_correlation:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("rhs", [np.array([1.0, -2.0, 0.5]), np.arange(6.0).reshape(3, 2)])
    def test_rhs_left_unmodified(self, rhs):
        before = rhs.copy()
        got = solve_spd(spd_factorize(equi_matrix(3, 0.4)), rhs)
        assert np.array_equal(rhs, before)
        assert not np.shares_memory(got, rhs)


class TestSubmatrix:
    """Every library path factors principal blocks of one matrix."""

    def test_every_principal_block_factorizes(self, rng):
        import itertools

        sigma = random_correlation(rng, 5)
        for r in range(1, 6):
            for combo in itertools.combinations(range(1, 6), r):
                idx = np.asarray(combo) - 1
                spd_factorize(CorrelationMatrix(sigma.entries[np.ix_(idx, idx)]))


def test_equi_matrix_positive_definite_boundary():
    # valid strictly above rho = -1/(d-1)
    equi_matrix(4, -0.33)
    with pytest.raises(NotPositiveDefinite):
        equi_matrix(4, -0.34)
