"""Structural solver for min z' Sigma^{-1} z subject to z >= 1: closed forms,
bit parity with the enumeration oracle, grid-search oracle agreement, KKT
certification beyond the enumeration's reach, and breakdown reporting."""

import dataclasses
import gc
import itertools
import math
import weakref

import numpy as np
import pytest

import artifact.qp as qp_module
from artifact.asymptotics import (
    MarginalSpec,
    asymptotic_estimate,
    cone_analysis,
)
from artifact.linalg import CorrelationMatrix, IndexSubset, spd_factorize
from artifact.qp import (
    BOUNDARY_EPS,
    QpSolution,
    SolverInconsistency,
    SubsetQpSolver,
    kkt_residuals,
    solve_qp,
    subset_solver,
)
from conftest import (
    at_least,
    coupled_pair_matrix,
    equi_matrix,
    near_tie_4x4,
    random_correlation,
    rect,
    small_eigenvalue_correlation,
    tie_block_matrix,
    two_block_6x6,
)
from oracles import brute_force_qp, enumeration_qp


class TestClosedForms:
    @pytest.mark.parametrize("rho", [-0.8, -0.2, 0.0, 0.3, 0.6, 0.95])
    def test_bivariate_equicorrelation(self, rho):
        sol = solve_qp(equi_matrix(2, rho))
        assert sol.active_set.members == (1, 2)
        assert len(sol.inactive_set) == 0
        assert np.array_equal(sol.e_star, [1.0, 1.0])
        assert sol.gamma == pytest.approx(2.0 / (1.0 + rho), rel=1e-12)
        assert sol.h == pytest.approx([1.0 / (1.0 + rho)] * 2, rel=1e-12)

    def test_coupled_pair_drops_third_coordinate(self):
        rho = 0.6
        sol = solve_qp(coupled_pair_matrix(rho))
        assert sol.active_set.members == (1, 2)
        assert sol.inactive_set.members == (3,)
        assert sol.gamma == pytest.approx(1.25, abs=1e-12)
        e3 = 2.0 * math.sqrt(2.0) * rho / (1.0 + rho)
        assert sol.e_star[2] == pytest.approx(e3, rel=1e-12)
        assert e3 == pytest.approx(1.0607, abs=5e-5)
        assert np.array_equal(sol.e_star[:2], [1.0, 1.0])

    def test_identity_all_active(self):
        sol = solve_qp(CorrelationMatrix(np.eye(3)))
        assert sol.active_set.members == (1, 2, 3)
        assert sol.gamma == 3.0
        assert np.array_equal(sol.e_star, np.ones(3))
        assert np.array_equal(sol.h, np.ones(3))

    def test_gamma_monotone_decreasing_in_rho(self):
        gammas = [solve_qp(equi_matrix(2, rho)).gamma for rho in np.linspace(-0.9, 0.9, 19)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))

    def test_nonnegative_weights_force_all_active(self, rng):
        # whenever Sigma^{-1} 1 >= 0, the minimizer is the all-ones corner
        seen = 0
        for _ in range(60):
            sigma = random_correlation(rng, int(rng.integers(2, 6)))
            w = np.linalg.solve(sigma.entries, np.ones(sigma.dim))
            sol = solve_qp(sigma)
            if np.min(w) > 0:
                seen += 1
                assert len(sol.inactive_set) == 0
                assert np.array_equal(sol.e_star, np.ones(sigma.dim))
        assert seen >= 10

    def test_dimension_validation(self):
        with pytest.raises(ValueError, match="2 <= d <= 64"):
            solve_qp(CorrelationMatrix(np.eye(1)))
        assert solve_qp(CorrelationMatrix(np.eye(13))).gamma == 13.0

    def test_repeat_calls_bit_identical(self):
        sigma = coupled_pair_matrix(0.45)
        a, b = solve_qp(sigma), solve_qp(sigma)
        assert a.gamma == b.gamma
        assert np.array_equal(a.e_star, b.e_star)
        assert np.array_equal(a.h, b.h)
        assert a.active_set == b.active_set

    def test_near_singular_matrix_still_solves(self):
        sol = solve_qp(near_tie_4x4())
        assert sol.active_set.members == (1, 2)
        assert sol.gamma == pytest.approx(4.0 / 3.0, abs=1e-8)


class TestSubsetSolver:
    def test_matches_standalone_solve_on_principal_block(self):
        sigma = coupled_pair_matrix(0.6)
        solver = SubsetQpSolver(sigma)
        for members in [(1, 2), (1, 3), (2, 3), (1, 2, 3)]:
            sub_sol = solver.solve(IndexSubset(members))
            idx = np.asarray(members) - 1
            ref = solve_qp(CorrelationMatrix(sigma.entries[np.ix_(idx, idx)]))
            assert sub_sol.gamma == ref.gamma
            assert np.array_equal(np.sort(sub_sol.h), np.sort(ref.h))
            assert sub_sol.support.members == members

    def test_subset_labels_refer_to_parent(self):
        solver = SubsetQpSolver(coupled_pair_matrix(0.6))
        sol = solver.solve(IndexSubset.of(1, 3))
        assert sol.active_set.members == (1, 3)
        # {1,3} block is 2x2 equi-correlation at sqrt(2) * 0.6
        assert sol.gamma == pytest.approx(2.0 / (1.0 + math.sqrt(2.0) * 0.6), rel=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError, match="empty subset"):
            SubsetQpSolver(equi_matrix(2, 0.1)).solve(IndexSubset(()))

    def test_solution_cache(self, monkeypatch):
        factored = []

        def counting_factorize(m):
            factored.append(len(m))
            return spd_factorize(m)

        monkeypatch.setattr(qp_module, "spd_factorize", counting_factorize)
        solver = SubsetQpSolver(coupled_pair_matrix(0.6))
        solver.solve(IndexSubset.of(1, 2))
        full = solver.solve(IndexSubset.full(3))
        assert solver.solve(IndexSubset.full(3)) is full
        assert full.active_set.members == (1, 2)
        # one factor per solve, of its accepted active set: {1,2} for both
        # subsets; the repeated solve factors nothing
        assert factored == [2, 2]

    def test_out_of_range_subset(self):
        with pytest.raises(ValueError, match="out of range"):
            SubsetQpSolver(equi_matrix(3, 0.2)).solve(IndexSubset.of(4))


def factor_correlation(rng: np.random.Generator, d: int) -> CorrelationMatrix:
    """Normalized A A' + s I with A of rank 1..3 and s in [1e-3, 1]: strong
    correlations, so inactive and boundary coordinates are common."""
    a = rng.standard_normal((d, int(rng.integers(1, 4))))
    s = a @ a.T + 10.0 ** rng.uniform(-3.0, 0.0) * np.eye(d)
    inv_sd = 1.0 / np.sqrt(np.diagonal(s))
    lower = np.tril(s * inv_sd[:, None] * inv_sd[None, :], -1)
    return CorrelationMatrix(lower + lower.T + np.eye(d))


def nearly_singular_correlation(rng: np.random.Generator, d: int) -> CorrelationMatrix:
    """Correlation matrix whose 1..3 smallest eigenvalues are pushed to
    1e-9.5..1e-7 before normalizing: many coordinates sit near a tie."""
    a = rng.standard_normal((d, d))
    w, v = np.linalg.eigh(a @ a.T)
    w[: int(rng.integers(1, 4))] = 10.0 ** rng.uniform(-9.5, -7.0)
    s = v @ np.diag(w) @ v.T
    inv_sd = 1.0 / np.sqrt(np.diagonal(s))
    lower = np.tril(s * inv_sd[:, None] * inv_sd[None, :], -1)
    return CorrelationMatrix(lower + lower.T + np.eye(d))


def drop_then_add_4x4() -> CorrelationMatrix:
    """Sigma^{-1} 1 = (-13.4, 10.2, 6.1, -0.33) but the active set is
    {2,3,4}: from the warm start the dual loop drops coordinates 1 and 4,
    then adds 4 back, and stops on its third pass."""
    return CorrelationMatrix(
        np.array(
            [
                [1.0, 0.94, 0.82, 0.82],
                [0.94, 1.0, 0.59, 0.86],
                [0.82, 0.59, 1.0, 0.57],
                [0.82, 0.86, 0.57, 1.0],
            ]
        )
    )


def assert_same_solution(got: QpSolution, want: QpSolution) -> None:
    assert got.gamma == want.gamma
    assert np.array_equal(got.e_star, want.e_star)
    assert np.array_equal(got.h, want.h)
    assert got.active_set == want.active_set
    assert got.inactive_set == want.inactive_set
    assert got.support == want.support
    assert got.boundary_set == want.boundary_set


PARITY_FIXTURES = {
    "near_tie_4x4": near_tie_4x4,
    "two_block_6x6": two_block_6x6,
    "coupled_pair_0.2": lambda: coupled_pair_matrix(0.2),
    "coupled_pair_0.45": lambda: coupled_pair_matrix(0.45),
    "coupled_pair_threshold": lambda: coupled_pair_matrix(1.0 / (2.0 * math.sqrt(2.0) - 1.0)),
    "coupled_pair_0.6": lambda: coupled_pair_matrix(0.6),
    "drop_then_add_4x4": drop_then_add_4x4,
    "tie_block_6x6": lambda: tie_block_matrix(6),
}


class TestEnumerationParity:
    """The dual solve with its tie window makes the enumeration's decisions,
    bit for bit, near-ties and boundary coordinates included."""

    @pytest.mark.parametrize("name", sorted(PARITY_FIXTURES))
    def test_every_subset_of_fixture(self, name):
        sigma = PARITY_FIXTURES[name]()
        solver = SubsetQpSolver(sigma)
        for size in range(1, sigma.dim + 1):
            for combo in itertools.combinations(range(1, sigma.dim + 1), size):
                subset = IndexSubset(combo)
                assert_same_solution(solver.solve(subset), enumeration_qp(sigma, subset))

    def test_random_matrices(self):
        rng = np.random.default_rng(20261018)
        families = (random_correlation, factor_correlation, nearly_singular_correlation)
        for i in range(120):
            d = 2 + i % 7
            sigma = families[i % 3](rng, d)
            subsets = [IndexSubset.full(d)]
            if d <= 5:
                subsets = [
                    IndexSubset(combo)
                    for size in range(1, d + 1)
                    for combo in itertools.combinations(range(1, d + 1), size)
                ]
            solver = SubsetQpSolver(sigma)
            for subset in subsets:
                assert_same_solution(solver.solve(subset), enumeration_qp(sigma, subset))


class TestBoundarySet:
    """The inactive coordinates that sit at 1 in the minimizer, classified
    where the solution is assembled."""

    @pytest.mark.parametrize(
        "make,want",
        [
            # 3-6 at 0.75 * 2 / 1.5 = 1 over the active pair {1,2}
            (lambda: tie_block_matrix(6), (3, 4, 5, 6)),
            (lambda: coupled_pair_matrix(1.0 / (2.0 * math.sqrt(2.0) - 1.0)), (3,)),
            (lambda: coupled_pair_matrix(0.6), ()),
        ],
        ids=["tie_block_6x6", "coupled_pair_threshold", "coupled_pair_0.6"],
    )
    def test_full_set(self, make, want):
        sol = solve_qp(make())
        assert sol.boundary_set.members == want
        assert set(want) <= set(sol.inactive_set)


class TestDualWeights:
    """The in-house NNLS for the dual: scipy's weights, and a bounded loop."""

    def test_agrees_with_scipy_nnls(self):
        # lam is determined only to about cond(Sigma) eps, so on the nearly
        # singular family the check is the distance (lam - ref)' Sigma
        # (lam - ref) that the tie window measures (radius^2 4e-9 gamma)
        from scipy.optimize import nnls

        rng = np.random.default_rng(20261019)
        families = (random_correlation, factor_correlation, small_eigenvalue_correlation)
        for i in range(180):
            d = int(rng.integers(2, 41))
            sigma = families[i % 3](rng, d)
            lower = spd_factorize(sigma)
            ref, _ = nnls(lower.T, np.linalg.inv(lower).sum(axis=1))
            lam = qp_module._dual_weights(sigma.entries)
            gamma = float(np.sum(ref))
            gap = lam - ref
            assert np.all(lam >= 0.0)
            assert gap @ sigma.entries @ gap <= 1e-12 * gamma
            if families[i % 3] is not small_eigenvalue_correlation:
                assert np.max(np.abs(gap)) <= 1e-12 * gamma

    def test_warm_start_takes_one_solve_where_weights_are_positive(self, monkeypatch):
        solves = []
        original = np.linalg.solve

        def counting(*args):
            solves.append(args[0].shape)
            return original(*args)

        monkeypatch.setattr(qp_module.np.linalg, "solve", counting)
        lam = qp_module._dual_weights(equi_matrix(6, 0.3).entries)
        assert solves == [(6, 6)]
        assert lam == pytest.approx([1.0 / 2.5] * 6, rel=1e-14)

    def test_pass_bound_raises(self, monkeypatch):
        full = IndexSubset.full(4)
        for passes in (1, 2):
            monkeypatch.setattr(qp_module, "_DUAL_MAX_PASSES", passes)
            with pytest.raises(SolverInconsistency, match=f"did not converge in {passes} passes"):
                SubsetQpSolver(drop_then_add_4x4()).solve(full)
        monkeypatch.setattr(qp_module, "_DUAL_MAX_PASSES", 3)
        assert SubsetQpSolver(drop_then_add_4x4()).solve(full).active_set.members == (2, 3, 4)


class TestDualBounds:
    """A size's bounds: one per subset, in increasing order, never above
    the value solve returns, and equal to it where Sigma_S^{-1} 1 > 0."""

    def test_bounds_stay_below_solved_values(self):
        rng = np.random.default_rng(20261018)
        families = (random_correlation, factor_correlation, nearly_singular_correlation)
        matrices = [near_tie_4x4(), two_block_6x6()]
        matrices += [family(rng, 8) for family in families for _ in range(4)]
        for sigma in matrices:
            solver = SubsetQpSolver(sigma)
            labels = IndexSubset.full(sigma.dim).members
            for size in range(1, sigma.dim + 1):
                subsets, bounds = solver.dual_bounds(labels, size)
                assert len(subsets) == math.comb(sigma.dim, size)
                assert np.all(np.diff(bounds) >= 0.0)
                gammas = [solver.solve(IndexSubset(tuple(row))).gamma for row in subsets.tolist()]
                assert np.all(bounds <= gammas)

    def test_bound_is_the_value_where_weights_are_positive(self):
        solver = SubsetQpSolver(equi_matrix(5, 0.3))
        for size in range(1, 6):
            _, bounds = solver.dual_bounds((1, 2, 3, 4, 5), size)
            assert bounds == pytest.approx([size / (1.0 + 0.3 * (size - 1))] * len(bounds), rel=3e-9)

    def test_bounds_of_a_subset_are_cached(self):
        solver = SubsetQpSolver(two_block_6x6())
        subsets, bounds = solver.dual_bounds((2, 4, 5), 2)
        assert sorted(map(tuple, subsets.tolist())) == [(2, 4), (2, 5), (4, 5)]
        assert solver.dual_bounds((2, 4, 5), 2)[1] is bounds


class TestBeyondEnumeration:
    """Dimensions the 3^d ranking could not reach, certified by kkt_residuals."""

    @pytest.mark.parametrize("d", [12, 24, 40, 64])
    def test_wishart_solutions_certify(self, d):
        sigma = random_correlation(np.random.default_rng(d), d)
        report = kkt_residuals(sigma, solve_qp(sigma))
        assert report.stationarity < 1e-9
        assert report.min_h > 0.0
        assert report.min_inactive_slack >= -BOUNDARY_EPS
        assert report.gamma_gap < 1e-10
        assert report.max_active_violation == 0.0

    def test_nearly_singular_window_stays_small(self, monkeypatch):
        # 22 coordinates pass the single-coordinate test here, so ranking
        # every combination of them would take 2^22 candidates
        sigma = nearly_singular_correlation(np.random.default_rng(0), 40)
        ranked = []
        original = SubsetQpSolver._candidate

        def counting(self, *args):
            ranked.append(args[0])
            return original(self, *args)

        monkeypatch.setattr(SubsetQpSolver, "_candidate", counting)
        report = kkt_residuals(sigma, solve_qp(sigma))
        assert len(ranked) < 1000
        assert report.stationarity < 1e-9
        assert report.min_h > 0.0
        assert report.min_inactive_slack >= -BOUNDARY_EPS
        assert report.gamma_gap < 1e-10
        assert report.max_active_violation == 0.0

    def test_rectangular_law_and_cone_cap_at_d_40(self):
        sigma = random_correlation(np.random.default_rng(40), 40)
        marg = MarginalSpec(alpha=2.0)
        est = asymptotic_estimate(sigma, marg, rect(IndexSubset.full(40), (1.0,) * 40))
        assert est.power_exponent == pytest.approx(2.0 * solve_qp(sigma).gamma, rel=1e-15)
        with pytest.raises(ValueError, match="cone analysis supports d <= 16, got d=40"):
            cone_analysis(sigma, 2)


class TestSolverCache:
    def test_one_solver_per_matrix(self, monkeypatch):
        built = []
        original = SubsetQpSolver.__init__

        def counting_init(self, sigma):
            built.append(sigma)
            original(self, sigma)

        monkeypatch.setattr(SubsetQpSolver, "__init__", counting_init)
        sigma = equi_matrix(3, 0.5)
        marg = MarginalSpec(alpha=2.0)
        for level in (2, 3, 2):
            cone_analysis(sigma, level)
        for tail_set in [
            rect(IndexSubset.of(1, 2), (1.0, 1.0)),
            rect(IndexSubset.full(3), (1.0, 2.0, 1.0)),
            at_least((1.0, 1.0, 1.0), 2),
        ]:
            asymptotic_estimate(sigma, marg, tail_set)
        solve_qp(sigma)
        assert built == [sigma]

    def test_solver_released_with_matrix(self):
        sigma = equi_matrix(3, 0.5)
        solver = weakref.ref(subset_solver(sigma))
        solve_qp(sigma)
        assert subset_solver(sigma) is solver()
        del sigma
        gc.collect()
        assert solver() is None


class TestKktResiduals:
    def test_identity_solution_has_zero_residuals(self):
        sigma = CorrelationMatrix(np.eye(3))
        report = kkt_residuals(sigma, solve_qp(sigma))
        assert report.stationarity == 0.0
        assert report.min_h == 1.0
        assert report.min_inactive_slack == math.inf
        assert report.gamma_gap == 0.0
        assert report.max_active_violation == 0.0

    def test_coupled_pair_certifies(self):
        sigma = coupled_pair_matrix(0.6)
        report = kkt_residuals(sigma, solve_qp(sigma))
        assert report.stationarity < 1e-9
        assert report.min_h > 0.0
        assert report.min_inactive_slack >= -BOUNDARY_EPS
        assert report.gamma_gap < 1e-10
        assert report.max_active_violation == 0.0

    def test_perturbed_active_coordinate_is_flagged(self):
        sigma = coupled_pair_matrix(0.6)
        sol = solve_qp(sigma)
        e_bad = sol.e_star.copy()
        e_bad[0] += 0.1
        bad = dataclasses.replace(sol, e_star=e_bad)
        report = kkt_residuals(sigma, bad)
        assert report.max_active_violation == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_random_solutions_certify(self, rng, d):
        for _ in range(20):
            sigma = random_correlation(rng, d)
            sol = solve_qp(sigma)
            assert sol.gamma > 1.0
            assert np.min(sol.h) > 0.0
            assert abs(np.sum(sol.h) - sol.gamma) <= 1e-10 * max(1.0, sol.gamma)
            report = kkt_residuals(sigma, sol)
            assert report.stationarity < 1e-9
            assert report.min_inactive_slack >= -BOUNDARY_EPS
            assert report.gamma_gap < 1e-10
            assert report.max_active_violation == 0.0


class TestBruteForceOracle:
    def test_bivariate_example(self):
        gamma, z = brute_force_qp(equi_matrix(2, 0.6), grid_halfwidth=2.0, grid_step=0.01)
        assert gamma == pytest.approx(1.25, abs=0.02)
        assert np.array_equal(z, [1.0, 1.0])

    def test_identity(self):
        gamma, z = brute_force_qp(equi_matrix(2, 0.0), grid_halfwidth=2.0, grid_step=0.01)
        assert gamma == pytest.approx(2.0, abs=1e-12)
        assert np.array_equal(z, [1.0, 1.0])

    def test_coupled_pair_third_coordinate_floats(self):
        gamma, z = brute_force_qp(coupled_pair_matrix(0.6), grid_halfwidth=2.0, grid_step=0.05)
        assert gamma == pytest.approx(1.25, abs=0.03)
        assert z[0] == z[1] == 1.0
        assert z[2] == pytest.approx(1.06, abs=0.06)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="d <= 4"):
            brute_force_qp(equi_matrix(5, 0.1), 2.0, 0.1)
        with pytest.raises(ValueError, match="positive"):
            brute_force_qp(equi_matrix(2, 0.1), 2.0, 0.0)

    @pytest.mark.parametrize("d,step", [(2, 0.01), (3, 0.05), (4, 0.05)])
    def test_random_agreement(self, rng, d, step):
        for _ in range(15):
            sigma = random_correlation(rng, d)
            sol = solve_qp(sigma)
            approx_gamma, _ = brute_force_qp(sigma, grid_halfwidth=2.5, grid_step=step)
            assert approx_gamma >= sol.gamma - 1e-12
            assert abs(approx_gamma - sol.gamma) <= 2.0 * step * d


def test_solver_inconsistency_reports_candidates(monkeypatch):
    # force every candidate to fail the weight-positivity gate
    monkeypatch.setattr(qp_module, "H_TOLERANCE", math.inf)
    with pytest.raises(SolverInconsistency, match="I="):
        solve_qp(equi_matrix(2, 0.2))


def test_solution_is_frozen():
    sol = solve_qp(equi_matrix(2, 0.2))
    assert isinstance(sol, QpSolution)
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.gamma = 2.0
