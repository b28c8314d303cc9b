"""Decay laws for tail sets "at least k of S exceed x_S" (rectangles,
at-least-level sets, box complements), cone-level analysis with limit
masses, and the bivariate normal-versus-Pareto comparison."""

import dataclasses
import gc
import math
import weakref

import mpmath
import numpy as np
import pytest

from artifact.asymptotics import (
    AsymptoticEstimate,
    ConeAnalysis,
    ContributingSet,
    MarginalSpec,
    TailSet,
    UnsupportedDegeneracy,
    _log_mass,
    _log_scale,
    _logsumexp,
    asymptotic_estimate,
    bivariate_comparison,
    cone_analysis,
    limit_mass,
    subset_coefficients,
)
from artifact.gaussian import orthant_probability
from artifact.linalg import (
    CorrelationMatrix,
    IndexSubset,
    NotPositiveDefinite,
    solve_spd,
    spd_factorize,
)
from artifact.qp import BOUNDARY_EPS, kkt_residuals, subset_solver
from conftest import (
    at_least,
    box_complement,
    coupled_pair_matrix,
    equi_matrix,
    near_tie_4x4,
    random_correlation,
    rect,
    tie_block_matrix,
    two_block_6x6,
)
from oracles import (
    bivariate_rectangle_log_law,
    cone_log_scaling_inverse,
    full_cone_scan,
    levels_tie,
)

PARETO2 = MarginalSpec(alpha=2.0)
ONE = CorrelationMatrix(np.eye(1))


def pair_upsilon(rho: float) -> float:
    return (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))


class TestMarginalSpec:
    def test_defaults(self):
        assert PARETO2.scale_c == 1.0

    @pytest.mark.parametrize("field", ["alpha", "scale_c"])
    @pytest.mark.parametrize(
        "value",
        [True, "2", 10**400, math.inf, math.nan, 0.0],
        ids=["bool", "str", "huge-int", "inf", "nan", "zero"],
    )
    def test_parameters_are_finite_positive_reals(self, field, value):
        with pytest.raises(ValueError, match=field):
            MarginalSpec(**{"alpha": 2.0, field: value})


class TestTailSetValidation:
    def test_rectangular_threshold_count(self):
        with pytest.raises(ValueError, match="one threshold per coordinate"):
            rect(IndexSubset.of(1, 2), (1.0,))

    def test_rectangular_positive_thresholds(self):
        with pytest.raises(ValueError, match="strictly positive"):
            rect(IndexSubset.of(1), (0.0,))

    def test_at_least_level_range(self):
        with pytest.raises(ValueError, match="level must be an integer in 1..3"):
            at_least((1.0, 1.0, 1.0), 4)
        with pytest.raises(ValueError, match="level must be an integer in 1..3"):
            at_least((1.0, 1.0, 1.0), 0)
        # a NumPy integer is the level it holds, stored as an int
        numpy_level = at_least((1.0, 1.0, 1.0), np.int64(2))
        assert numpy_level == at_least((1.0, 1.0, 1.0), 2)
        assert type(numpy_level.k) is int

    def test_complement_box_thresholds(self):
        with pytest.raises(ValueError, match="nonempty"):
            box_complement(())

    def test_subset_is_an_index_subset(self):
        with pytest.raises(ValueError, match="subset must be an IndexSubset, got \\(1, 2\\)"):
            TailSet((1, 2), (1.0, 1.0), 2)


def marginal_tail(marg: MarginalSpec, x: float):
    """Decay law of a single coordinate's exceedance, X_1 > t x."""
    return asymptotic_estimate(CorrelationMatrix(np.eye(1)), marg, rect((1,), (x,)))


class TestMarginalTail:
    def test_pareto_point_values(self):
        est = marginal_tail(PARETO2, 1.0)
        assert math.exp(est.evaluate_log(10.0)) == pytest.approx(0.01, rel=1e-12)
        est3 = marginal_tail(PARETO2, 3.0)
        assert math.exp(est3.evaluate_log(10.0)) == pytest.approx(1.0 / 900.0, rel=1e-12)

    def test_scale_constant(self):
        marg = MarginalSpec(alpha=1.0, scale_c=2.0)
        est = marginal_tail(marg, 1.0)
        assert math.exp(est.evaluate_log(100.0)) == pytest.approx(0.005, rel=1e-12)

    def test_shape(self):
        est = marginal_tail(PARETO2, 2.0)
        assert est.power_exponent == 2.0
        assert est.log_log_exponent == 0.0
        assert est.contributing_sets[0].subset == IndexSubset.of(1)
        assert est.contributing_sets[0].active_set == IndexSubset.of(1)


class TestRectangular:
    @pytest.mark.parametrize("rho", [-0.5, 0.0, 0.25, 0.6, 0.9])
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    def test_bivariate_closed_form(self, rho, alpha):
        marg = MarginalSpec(alpha=alpha)
        x1, x2 = 1.0, 2.0
        est = asymptotic_estimate(
            equi_matrix(2, rho), marg, rect(IndexSubset.of(1, 2), (x1, x2))
        )
        assert est.power_exponent == pytest.approx(2.0 * alpha / (1.0 + rho), rel=1e-12)
        assert est.log_log_exponent == pytest.approx(-rho / (1.0 + rho), rel=1e-12)
        expected_const = (
            -(rho / (1.0 + rho)) * math.log(2.0 * math.pi)
            + 1.5 * math.log1p(rho)
            - 0.5 * math.log1p(-rho)
            - (alpha / (1.0 + rho)) * math.log(x1 * x2)
        )
        assert est.log_constant == pytest.approx(expected_const, rel=1e-12)

    def test_reference_point_values(self):
        est = asymptotic_estimate(
            equi_matrix(2, 0.6), PARETO2, rect(IndexSubset.of(1, 2), (1.0, 1.0))
        )
        assert est.power_exponent == pytest.approx(2.5, abs=1e-12)
        assert est.log_log_exponent == pytest.approx(-0.375, abs=1e-12)
        assert math.exp(est.log_constant) == pytest.approx(1.606, abs=1e-3)
        assert math.exp(est.log_constant) == pytest.approx(
            (2.0 * math.pi) ** -0.375 * 1.6**1.5 / math.sqrt(0.4), rel=1e-12
        )

    def test_independence_is_exact_product(self):
        x1, x2 = 1.0, 3.0
        est = asymptotic_estimate(
            equi_matrix(2, 0.0), PARETO2, rect(IndexSubset.of(1, 2), (x1, x2))
        )
        assert est.power_exponent == 4.0
        assert est.log_log_exponent == 0.0
        assert math.exp(est.log_constant) == pytest.approx((x1 * x2) ** -2.0, rel=1e-12)
        for t in [10.0, 100.0, 1e4, 1e6]:
            product = -2.0 * (math.log(t * x1) + math.log(t * x2))
            assert est.evaluate_log(t) == pytest.approx(product, rel=1e-12)

    def test_identity_reduction_d3(self):
        est = asymptotic_estimate(
            CorrelationMatrix(np.eye(3)),
            PARETO2,
            rect(IndexSubset.full(3), (1.0, 2.0, 0.5)),
        )
        for t in [10.0, 1e3, 1e8]:
            expected = sum(-2.0 * math.log(t * x) for x in (1.0, 2.0, 0.5))
            assert est.evaluate_log(t) == pytest.approx(expected, rel=1e-12)

    def test_inactive_threshold_does_not_enter(self):
        # on the coupled-pair matrix the third coordinate is inactive, so its
        # threshold must not change the law
        sigma = coupled_pair_matrix(0.6)
        a = asymptotic_estimate(sigma, PARETO2, rect(IndexSubset.full(3), (1.0, 1.0, 1.0)))
        b = asymptotic_estimate(sigma, PARETO2, rect(IndexSubset.full(3), (1.0, 1.0, 9.0)))
        assert a.log_constant == b.log_constant
        assert a.power_exponent == b.power_exponent

    def test_evaluate_guard(self):
        est = asymptotic_estimate(
            equi_matrix(2, 0.2), PARETO2, rect(IndexSubset.of(1, 2), (1.0, 1.0))
        )
        with pytest.raises(ValueError, match="t >= 10"):
            est.evaluate_log(5.0)
        # An int too large for a float is not a finite t.
        for t in (10**400, math.inf, True, "100"):
            with pytest.raises(ValueError, match="finite number"):
                est.evaluate_log(t)

    def test_evaluate_refuses_outside_the_regime(self):
        # t * min_threshold <= 1 is refused, t * 0.05 = 1 at t = 20 included;
        # at t = 21 the law applies.
        est = asymptotic_estimate(
            equi_matrix(2, 0.5), PARETO2, rect(IndexSubset.of(1, 2), (0.05, 1.0))
        )
        assert est.min_threshold == 0.05
        for t in (10.0, 20.0):
            with pytest.raises(ValueError, match=rf"t \* min\(thresholds\) = {t!r} \* 0.05 is at most 1"):
                est.evaluate_log(t)
        assert est.evaluate_log(21.0) < 0.0
        # A probability above 1 is named first, though t * 0.001 <= 1 too.
        est = asymptotic_estimate(equi_matrix(2, 0.5), PARETO2, box_complement((0.001, 0.001)))
        assert est.min_threshold == 0.001
        with pytest.raises(ValueError, match=r"is 9\.90\d*, above 0: the limit law does not apply"):
            est.evaluate_log(10.0)


class TestLogSumExp:
    """The max-shifted log-sum of the additive and carrier laws."""

    def test_single_entry_is_itself(self):
        for v in (-745.0, -1.5, 0.0, 3.25, 700.0):
            assert _logsumexp([v]) == v

    def test_minus_infinity_adds_nothing(self):
        assert _logsumexp([-math.inf, 1.5]) == 1.5
        assert _logsumexp([-math.inf, -math.inf]) == -math.inf
        assert _logsumexp([2.0, -math.inf, 2.0]) == 2.0 + math.log(2.0)
        assert _logsumexp([math.inf, 1.0]) == math.inf
        assert math.isnan(_logsumexp([1.0, math.nan]))

    def test_matches_mpmath(self):
        # Within 2 eps of the 40-digit value; far-apart entries do not
        # overflow or lose the largest.
        rng = np.random.default_rng(8)
        lists = [list(rng.normal(0.0, 5.0, rng.integers(1, 8))) for _ in range(300)]
        lists += [[-1000.0, 1000.0, 0.0], [1e-300, -1e-300], [-800.0, -801.0]]
        with mpmath.workdps(40):
            for values in lists:
                exact = mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(v)) for v in values))
                got = _logsumexp(values)
                assert abs(got - exact) <= 2 * np.finfo(float).eps * max(1.0, abs(exact)), values


class TestEstimateAlgebra:
    @staticmethod
    def law(power_exponent, log_log_exponent):
        part = ContributingSet(IndexSubset.of(1), IndexSubset.of(1), 1.0, 0.0)
        return AsymptoticEstimate(0.0, power_exponent, log_log_exponent, 2.0, (part,), 1.0)

    def test_decays_faster_than_orders_by_power_then_loglog(self):
        slow = self.law(2.0, 0.0)
        fast = self.law(3.0, 0.0)
        assert fast.decays_faster_than(slow)
        assert not slow.decays_faster_than(fast)
        tie_a = self.law(2.5, -0.875)
        tie_b = self.law(2.5, -0.375)
        assert tie_a.decays_faster_than(tie_b)
        assert not tie_b.decays_faster_than(tie_a)


def assert_scans_agree(sigma: CorrelationMatrix) -> None:
    """cone_analysis equals the unpruned scan in every field at every level.

    The levels are scanned in increasing order first, as cmd_analyze does,
    before the unpruned scan solves every subset.
    """
    levels = range(2, sigma.dim + 1)
    cones = [cone_analysis(sigma, level) for level in levels]
    for level, got in zip(levels, cones):
        want = full_cone_scan(sigma, level)
        for field in dataclasses.fields(ConeAnalysis):
            if field.name != "coefficients":
                assert getattr(got, field.name) == getattr(want, field.name), field.name
        assert len(got.coefficients) == len(want.coefficients)
        for a, b in zip(got.coefficients, want.coefficients):
            sa, sb = a.solution, b.solution
            assert (sa.support, sa.gamma, sa.active_set, a.orthant, a.log_upsilon) == (
                sb.support, sb.gamma, sb.active_set, b.orthant, b.log_upsilon
            )
            assert np.array_equal(sa.h, sb.h)


def assert_relabelled(sigma: CorrelationMatrix, perm: np.ndarray) -> None:
    """Moving coordinate perm[i] to position i relabels every QP solution,
    active set, boundary set and cone family, and keeps each gamma within
    1e-12; each log Upsilon too, where every boundary component has at most
    3 coordinates (closed forms, se 0), as a QMC factor integrates its
    coordinates in another order."""
    moved = CorrelationMatrix(sigma.entries[np.ix_(perm, perm)])
    new_label = {old + 1: new + 1 for new, old in enumerate(perm)}

    def relabel(subset: IndexSubset) -> tuple[int, ...]:
        return tuple(sorted(new_label[j] for j in subset.members))

    for level in range(2, sigma.dim + 1):
        base, cone = cone_analysis(sigma, level), cone_analysis(moved, level)
        assert abs(cone.gamma - base.gamma) <= 1e-12
        twins = {c.solution.support.members: c for c in cone.coefficients}
        assert sorted(twins) == sorted(relabel(c.solution.support) for c in base.coefficients)
        for c in base.coefficients:
            twin = twins[relabel(c.solution.support)]
            sol, twin_sol = c.solution, twin.solution
            assert abs(twin_sol.gamma - sol.gamma) <= 1e-12
            for part in ("active_set", "inactive_set", "boundary_set"):
                assert getattr(twin_sol, part).members == relabel(getattr(sol, part)), part
            h = dict(zip(map(new_label.get, sol.active_set.members), sol.h))
            assert twin_sol.h == pytest.approx([h[j] for j in twin_sol.active_set.members], rel=1e-12)
            if c.orthant.se == 0.0:
                assert abs(twin.log_upsilon - c.log_upsilon) <= 1e-12


class TestConeAnalysis:
    @pytest.mark.parametrize("rho", [-0.3, 0.25, 0.5])
    def test_equicorrelation_levels(self, rho):
        sigma = equi_matrix(3, rho)
        for level in (2, 3):
            cone = cone_analysis(sigma, level)
            expected = level * 2.0 / (1.0 + (level - 1) * rho)
            assert PARETO2.alpha * cone.gamma == pytest.approx(expected, rel=1e-12)
            assert cone.gamma == pytest.approx(expected / 2.0, rel=1e-12)
        two = cone_analysis(sigma, 2)
        assert {c.solution.support.members for c in two.coefficients} == {(1, 2), (1, 3), (2, 3)}
        assert two.min_active_size == 2
        three = cone_analysis(sigma, 3)
        assert [c.solution.support.members for c in three.coefficients] == [(1, 2, 3)]
        # a strict gap: the level-2 family holds no 3-subset
        assert two.gamma < three.gamma

    def test_coupled_pair_level_two_prefers_strong_pairs(self):
        cone = cone_analysis(coupled_pair_matrix(0.6), 2)
        r2 = math.sqrt(2.0) * 0.6
        assert cone.gamma == pytest.approx(2.0 / (1.0 + r2), rel=1e-12)
        assert PARETO2.alpha * cone.gamma == pytest.approx(2.1638837510877567, rel=1e-12)
        assert {c.solution.support.members for c in cone.coefficients} == {(1, 3), (2, 3)}

    def test_coupled_pair_level_three_rides_the_pair(self):
        cone = cone_analysis(coupled_pair_matrix(0.6), 3)
        assert cone.gamma == pytest.approx(1.25, abs=1e-12)
        assert PARETO2.alpha * cone.gamma == pytest.approx(2.5, abs=1e-12)
        assert [c.solution.support.members for c in cone.coefficients] == [(1, 2, 3)]
        assert cone.principal()[0].solution.active_set.members == (1, 2)
        assert cone.min_active_size == 2

    def test_coupled_pair_rho_02_indices(self):
        sigma = coupled_pair_matrix(0.2)
        two = cone_analysis(sigma, 2)
        three = cone_analysis(sigma, 3)
        assert PARETO2.alpha * two.gamma == pytest.approx(3.11807516315383, rel=1e-12)
        assert PARETO2.alpha * three.gamma == pytest.approx(3.978132980964469, rel=1e-12)
        # closed form for the full-active level-3 value
        r = 0.2
        p = (1.0 - math.sqrt(2.0) * r) / (1.0 + r - 4.0 * r * r)
        gamma3 = 1.0 + 2.0 * p * (1.0 - math.sqrt(2.0) * r)
        assert three.gamma == pytest.approx(gamma3, rel=1e-12)

    def test_two_block_exact_tie(self):
        cone = cone_analysis(two_block_6x6(), 3)
        assert cone.gamma == pytest.approx(1.25, abs=1e-12)
        assert {c.solution.support.members for c in cone.coefficients} == {(1, 2, 3), (4, 5, 6)}
        assert cone.min_active_size == 2
        assert [c.solution.support.members for c in cone.principal()] == [(1, 2, 3)]
        assert cone.principal()[0].solution.active_set.members == (1, 2)
        active_sets = {c.solution.active_set.members for c in cone.coefficients}
        assert active_sets == {(1, 2), (4, 5, 6)}

    def test_level_validation(self):
        sigma = equi_matrix(3, 0.2)
        with pytest.raises(ValueError, match="level must be an integer in 2..3"):
            cone_analysis(sigma, 1)
        with pytest.raises(ValueError, match="level must be an integer in 2..3"):
            cone_analysis(sigma, 4)
        numpy_level = cone_analysis(sigma, np.int64(2))
        int_level = cone_analysis(sigma, 2)
        assert (numpy_level.gamma, [c.solution.support for c in numpy_level.coefficients]) == (
            int_level.gamma, [c.solution.support for c in int_level.coefficients]
        )
        assert type(numpy_level.level) is int
        with pytest.raises(ValueError, match="d <= 16, got d=17"):
            cone_analysis(CorrelationMatrix(np.eye(17)), 2)

    @pytest.mark.parametrize(
        "make",
        [
            near_tie_4x4,
            two_block_6x6,
            lambda: coupled_pair_matrix(0.2),
            lambda: coupled_pair_matrix(0.45),
            lambda: coupled_pair_matrix(1.0 / (2.0 * math.sqrt(2.0) - 1.0)),
            lambda: coupled_pair_matrix(0.6),
            lambda: equi_matrix(4, 0.3),
        ],
        ids=["near_tie_4x4", "two_block_6x6", "cp_0.2", "cp_0.45", "cp_threshold", "cp_0.6", "equi4"],
    )
    def test_pruned_scan_matches_full_scan(self, make):
        assert_scans_agree(make())

    def test_level_scans_skip_subsets_that_cannot_tie(self):
        sigma = two_block_6x6()
        for level in range(2, 7):
            cone_analysis(sigma, level)
        # 57 subsets have size >= 2; their dual bounds rule out the rest
        assert len(subset_solver(sigma)._solutions) == 13

    def test_pruned_scan_matches_full_scan_random(self, rng):
        for _ in range(20):
            assert_scans_agree(random_correlation(rng, int(rng.integers(3, 11))))

    def test_pruned_scan_matches_full_scan_tie_block_d13(self):
        assert_scans_agree(tie_block_matrix(13))

    @pytest.mark.parametrize(
        "sigma",
        [
            two_block_6x6(),
            near_tie_4x4(),
            coupled_pair_matrix(0.2),
            coupled_pair_matrix(0.6),
            tie_block_matrix(6),
            tie_block_matrix(10),
        ],
        ids=[
            "two_block_6x6",
            "near_tie_4x4",
            "coupled_0.2",
            "coupled_0.6",
            "tie_block_6",
            "tie_block_10",
        ],
    )
    def test_every_cone_member_certifies(self, sigma):
        # Each member's own record carries the solution that kkt_residuals
        # certifies, within the bounds of its docstring.
        for level in range(2, sigma.dim + 1):
            for c in cone_analysis(sigma, level).coefficients:
                report = kkt_residuals(sigma, c.solution)
                where = (level, c.solution.support, report)
                assert report.stationarity < 1e-9, where
                assert report.min_h > 0.0, where
                assert report.min_inactive_slack >= -BOUNDARY_EPS, where
                assert report.gamma_gap < 1e-10, where
                assert report.max_active_violation == 0.0, where

    def test_block_diagonal_levels_are_min_plus(self, rng):
        # The QP separates over independent blocks, so for Sigma = diag(A, B)
        # gamma_k = min over i of gamma^A_i + gamma^B_(k-i), with gamma_0 = 0
        # and gamma_1 = 1.
        def gammas(sigma):
            return [0.0, 1.0] + [cone_analysis(sigma, k).gamma for k in range(2, sigma.dim + 1)]

        blocks = [random_correlation(rng, d) for d in (2, 3, 4, 5)]
        blocks += [near_tie_4x4(), coupled_pair_matrix(0.6), equi_matrix(3, 0.5)]
        for a, b in zip(blocks, blocks[1:] + blocks[:1]):
            entries = np.zeros((a.dim + b.dim, a.dim + b.dim))
            entries[: a.dim, : a.dim] = a.entries
            entries[a.dim :, a.dim :] = b.entries
            joint, ga, gb = gammas(CorrelationMatrix(entries)), gammas(a), gammas(b)
            for k in range(2, a.dim + b.dim + 1):
                expected = min(
                    ga[i] + gb[k - i] for i in range(max(0, k - b.dim), min(k, a.dim) + 1)
                )
                assert joint[k] == pytest.approx(expected, rel=1e-12), (a.dim, b.dim, k)

    @pytest.mark.parametrize(
        "make",
        [
            near_tie_4x4,
            two_block_6x6,
            lambda: coupled_pair_matrix(0.2),
            lambda: coupled_pair_matrix(0.6),
            lambda: tie_block_matrix(6),
        ],
        ids=["near_tie_4x4", "two_block_6x6", "cp_0.2", "cp_0.6", "tie_block_6x6"],
    )
    def test_relabelling_permutes_every_solution(self, rng, make):
        sigma = make()
        for _ in range(20):
            assert_relabelled(sigma, rng.permutation(sigma.dim))

    def test_relabelling_permutes_every_solution_random(self, rng):
        for _ in range(30):
            sigma = random_correlation(rng, int(rng.integers(3, 7)))
            for _ in range(20):
                assert_relabelled(sigma, rng.permutation(sigma.dim))

    def test_monotone_indices_random(self, rng):
        for _ in range(25):
            d = int(rng.integers(2, 7))
            sigma = random_correlation(rng, d)
            alphas = [PARETO2.alpha * cone_analysis(sigma, i).gamma for i in range(2, d + 1)]
            assert PARETO2.alpha <= alphas[0] + 1e-12
            assert all(a <= b + 1e-12 for a, b in zip(alphas, alphas[1:]))


class TestLimitMasses:
    def test_cone_index_past_largest_float(self):
        # alpha * gamma = 1.7e308 * 4/3 is past the largest float: the law
        # refuses its power exponent, while the mass at thresholds 1 is
        # Upsilon, whatever alpha.
        sigma = equi_matrix(2, 0.5)
        marg = MarginalSpec(alpha=1.7e308)
        both = rect((1, 2), (1.0, 1.0))
        with pytest.raises(ValueError, match="power_exponent must be a finite number, got inf"):
            asymptotic_estimate(sigma, marg, both)
        assert limit_mass(sigma, marg, both) == pytest.approx(pair_upsilon(0.5), rel=1e-12)

    def test_level_one_additive(self):
        sigma = equi_matrix(3, 0.5)
        assert limit_mass(sigma, PARETO2, box_complement((1.0, 1.0, 1.0))) == 3.0
        assert limit_mass(sigma, PARETO2, box_complement((1.0, 2.0))) == pytest.approx(1.25, rel=1e-15)
        with pytest.raises(ValueError, match="label 4 out of range for dimension 3"):
            limit_mass(sigma, PARETO2, box_complement((1.0,) * 4))
        # Two finite masses near 1e308 sum past the largest float.
        with pytest.raises(ValueError, match="limit mass is past the largest float at alpha = 1.0"):
            limit_mass(sigma, MarginalSpec(alpha=1.0), box_complement((1e-308, 1e-308)))

    def test_level_one_homogeneity(self):
        sigma = equi_matrix(3, 0.5)
        x = (1.0, 2.0, 0.5)
        assert limit_mass(sigma, PARETO2, box_complement(tuple(2.0 * v for v in x))) == pytest.approx(
            0.25 * limit_mass(sigma, PARETO2, box_complement(x)), rel=1e-15
        )

    def test_rectangular_mass_on_minimizing_pair(self):
        value = limit_mass(equi_matrix(3, 0.5), PARETO2, rect(IndexSubset.of(1, 2), (1.0, 1.0)))
        assert value == pytest.approx(pair_upsilon(0.5), rel=1e-12)
        assert value == pytest.approx(0.4135, abs=5e-5)

    def test_rectangular_mass_zero_off_family(self):
        sigma = coupled_pair_matrix(0.2)
        assert limit_mass(sigma, PARETO2, rect(IndexSubset.of(1, 2), (1.0, 1.0))) == 0.0
        assert limit_mass(sigma, PARETO2, rect(IndexSubset.of(1, 3), (1.0, 1.0))) > 0.0

    def test_rectangular_mass_homogeneity(self):
        sigma = equi_matrix(3, 0.5)
        cone = cone_analysis(sigma, 2)
        lam = 3.0
        base = limit_mass(sigma, PARETO2, rect(IndexSubset.of(1, 2), (1.0, 2.0)))
        scaled = limit_mass(sigma, PARETO2, rect(IndexSubset.of(1, 2), (lam, 2.0 * lam)))
        assert math.log(scaled) == pytest.approx(
            math.log(base) - PARETO2.alpha * cone.gamma * math.log(lam), rel=1e-12
        )

    def test_at_least_equicorrelation_closed_form(self):
        rho = 0.5
        sigma = equi_matrix(3, rho)
        x = (1.0, 2.0, 3.0)
        value = limit_mass(sigma, PARETO2, at_least(x, 2))
        pairs = [(1.0, 2.0), (1.0, 3.0), (2.0, 3.0)]
        expected = pair_upsilon(rho) * sum(
            (a * b) ** (-2.0 / (1.0 + rho)) for a, b in pairs
        )
        assert value == pytest.approx(expected, rel=1e-12)
        unit = limit_mass(sigma, PARETO2, at_least((1.0, 1.0, 1.0), 2))
        assert unit == pytest.approx(3.0 * pair_upsilon(rho), rel=1e-12)
        assert unit == pytest.approx(1.2404900146990325, rel=1e-12)

    def test_at_least_coupled_pair_sums_two_terms(self):
        value = limit_mass(coupled_pair_matrix(0.2), PARETO2, at_least((1.0, 1.0, 1.0), 2))
        assert value == pytest.approx(2.0 * pair_upsilon(math.sqrt(2.0) * 0.2), rel=1e-10)

    def test_at_least_homogeneity(self):
        sigma = equi_matrix(3, 0.4)
        cone = cone_analysis(sigma, 2)
        lam = 2.5
        base = limit_mass(sigma, PARETO2, at_least((1.0, 2.0, 3.0), 2))
        scaled = limit_mass(sigma, PARETO2, at_least((lam, 2.0 * lam, 3.0 * lam), 2))
        assert math.log(scaled) == pytest.approx(
            math.log(base) - PARETO2.alpha * cone.gamma * math.log(lam), rel=1e-12
        )

    def test_degenerate_gap_refused(self):
        sigma = near_tie_4x4()
        cone = cone_analysis(sigma, 3)
        assert cone.coefficients[-1].solution.support.members == (1, 2, 3, 4)
        assert cone_analysis(sigma, 4).gamma == cone.gamma  # float-identical collapse
        with pytest.raises(UnsupportedDegeneracy, match="levels 3 and 4 share"):
            limit_mass(sigma, PARETO2, at_least((1.0,) * 4, 3))

    @staticmethod
    def assert_level_gap_refusals_match_oracle(sigma: CorrelationMatrix) -> list[int]:
        """Both laws of "at least k of all", 2 <= k < d, refuse exactly at
        the levels the all-subsets oracle ties to the next; returns them."""
        tied = []
        for level in range(2, sigma.dim):
            tail_set = at_least((1.0,) * sigma.dim, level)
            expect = levels_tie(sigma, level)
            for law in (asymptotic_estimate, limit_mass):
                try:
                    law(sigma, PARETO2, tail_set)
                    refused = False
                except UnsupportedDegeneracy:
                    refused = True
                assert refused == expect, (law.__name__, level)
            if expect:
                tied.append(level)
        return tied

    @pytest.mark.parametrize(
        "make, tied",
        [
            (near_tie_4x4, [3]),
            (two_block_6x6, []),
            (lambda: coupled_pair_matrix(0.2), []),
            (lambda: coupled_pair_matrix(0.6), []),
            (lambda: tie_block_matrix(6), []),
            (lambda: tie_block_matrix(7), []),
            (lambda: tie_block_matrix(8), []),
        ],
        ids=["near_tie_4x4", "two_block_6x6", "cp_0.2", "cp_0.6", "tie_block_6", "tie_block_7", "tie_block_8"],
    )
    def test_level_gap_refusal_matches_all_subsets_oracle(self, make, tied):
        assert self.assert_level_gap_refusals_match_oracle(make()) == tied

    def test_level_gap_refusal_matches_all_subsets_oracle_random(self, rng):
        for d in range(3, 8):
            for _ in range(4):
                self.assert_level_gap_refusals_match_oracle(random_correlation(rng, d))

    def test_two_block_level_three_mass_single_term(self):
        # {4,5,6} ties on gamma but has a larger active set, so only the
        # pair-backed block contributes mass
        value = limit_mass(two_block_6x6(), PARETO2, at_least((1.0,) * 6, 3))
        assert value == pytest.approx(pair_upsilon(0.6), rel=1e-12)

    def test_cone_levels_cap_the_dimension(self):
        # A rectangle's law reads only the subsets of its own labels; its
        # mass scans the level-2 cone over all 20 coordinates, past d = 16.
        sigma = equi_matrix(20, 0.2)
        both = rect((1, 2), (1.0, 1.0))
        assert asymptotic_estimate(sigma, PARETO2, both).power_exponent == pytest.approx(10.0 / 3.0, rel=1e-12)
        with pytest.raises(ValueError, match="cone analysis supports d <= 16, got d=20"):
            limit_mass(sigma, PARETO2, both)
        assert limit_mass(sigma, PARETO2, box_complement((1.0,) * 20)) == 20.0

    @pytest.mark.parametrize("scale_c", [1.0, 2.0])
    @pytest.mark.parametrize(
        "sigma, level",
        [
            (equi_matrix(3, 0.5), 2),
            (equi_matrix(3, 0.5), 3),
            (coupled_pair_matrix(0.6), 2),
            (coupled_pair_matrix(0.6), 3),
            (two_block_6x6(), 3),
            (equi_matrix(4, 0.3), 2),
            (equi_matrix(4, 0.3), 3),
            (equi_matrix(4, 0.3), 4),
        ],
    )
    def test_cone_scaling_normalizes_law_to_mass(self, sigma, level, scale_c):
        # P(at least `level` of X exceed t x) / b_level(t) -> mu_level(x); the
        # decay law has no other t-dependence, so the identity holds at every t
        marg = MarginalSpec(alpha=1.7, scale_c=scale_c)
        tail_set = at_least(tuple(np.linspace(0.7, 1.6, sigma.dim)), level)
        cone = cone_analysis(sigma, level)
        est = asymptotic_estimate(sigma, marg, tail_set)
        log_mu = math.log(limit_mass(sigma, marg, tail_set))
        for t in (10.0, 1e3, 1e6):
            normalized = est.evaluate_log(t) + cone_log_scaling_inverse(cone, marg, t)
            assert normalized == pytest.approx(log_mu, abs=1e-12)


class TestDispatcherAndTailProbability:
    def test_rect_singleton_routes_to_marginal(self):
        est = asymptotic_estimate(
            equi_matrix(2, 0.3), PARETO2, rect(IndexSubset.of(2), (3.0,))
        )
        assert est.power_exponent == 2.0
        assert math.exp(est.evaluate_log(10.0)) == pytest.approx(1.0 / 900.0, rel=1e-12)

    def test_complement_box(self):
        est = asymptotic_estimate(
            CorrelationMatrix(np.eye(3)), PARETO2, box_complement((1.0, 1.0, 1.0))
        )
        assert est.power_exponent == 2.0
        assert est.log_log_exponent == 0.0
        assert math.exp(est.evaluate_log(100.0)) == pytest.approx(3e-4, rel=1e-12)
        assert len(est.contributing_sets) == 3

    def test_at_least_level_one_matches_complement_box(self):
        # both are the union of the single-coordinate exceedances, whose
        # laws add up
        sigma = equi_matrix(3, 0.4)
        x = (1.0, 2.0, 3.0)
        a = asymptotic_estimate(sigma, PARETO2, at_least(x, 1))
        singles = [asymptotic_estimate(sigma, PARETO2, rect((j,), (x[j - 1],))) for j in (1, 2, 3)]
        assert a.log_constant == pytest.approx(
            math.log(sum(math.exp(b.log_constant) for b in singles)), rel=1e-14
        )
        assert all(a.power_exponent == b.power_exponent for b in singles)
        assert [c.subset for c in a.contributing_sets] == [b.contributing_sets[0].subset for b in singles]

    def test_at_least_full_level_matches_rectangle(self):
        # at k = |S| the cone holds S alone, so the constant is the
        # rectangle's scale times mass, bit for bit
        sigma = equi_matrix(2, 0.35)
        a = asymptotic_estimate(sigma, PARETO2, at_least((1.0, 2.0), 2))
        coeff = subset_coefficients(sigma, IndexSubset.of(1, 2))
        sol = coeff.solution
        assert a.power_exponent == PARETO2.alpha * sol.gamma
        assert a.log_log_exponent == 0.5 * (sol.gamma - len(sol.active_set))
        assert a.log_constant == _log_scale(sol.gamma, PARETO2) + _log_mass(coeff, PARETO2, (1.0, 2.0))
        assert [c.subset for c in a.contributing_sets] == [IndexSubset.of(1, 2)]

    def test_at_least_two_of_three_composition(self):
        est = asymptotic_estimate(
            equi_matrix(3, 0.5), PARETO2, at_least((1.0, 1.0, 1.0), 2)
        )
        assert est.power_exponent == pytest.approx(8.0 / 3.0, rel=1e-12)
        assert est.log_log_exponent == pytest.approx(-1.0 / 3.0, rel=1e-12)
        assert est.evaluate_log(1000.0) == pytest.approx(-18.086235923323805, rel=1e-12)
        assert len(est.contributing_sets) == 3

    def test_at_least_degenerate_raises(self):
        with pytest.raises(UnsupportedDegeneracy):
            asymptotic_estimate(near_tie_4x4(), PARETO2, at_least((1.0,) * 4, 3))

    def test_threshold_count_validation(self):
        with pytest.raises(ValueError, match="need 3 thresholds"):
            asymptotic_estimate(
                equi_matrix(3, 0.2), PARETO2, TailSet(IndexSubset.full(3), (1.0, 1.0), 1)
            )

    def test_subset_must_fit_the_matrix(self):
        with pytest.raises(ValueError, match="label 4 out of range for dimension 3"):
            asymptotic_estimate(equi_matrix(3, 0.2), PARETO2, box_complement((1.0,) * 4))


# {1,2} is the one principal pair at level 2: gamma 4/3 against 20/11.
PAIR_LED_3X3 = CorrelationMatrix(np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.1], [0.1, 0.1, 1.0]]))


class TestOneLawPerSet:
    @pytest.mark.parametrize(
        "sigma",
        [two_block_6x6(), random_correlation(np.random.default_rng(6), 6)],
        ids=["two_block_6x6", "random_6x6"],
    )
    def test_at_least_k_of_s_matches_principal_submatrix(self, sigma):
        # "at least k of S" only sees the coordinates in S, so on Sigma it
        # has the law of "at least k of all" on the principal block Sigma_S
        x = (0.7, 1.3, 0.9, 2.1, 1.1, 0.6)
        for members in [(1, 2, 3), (2, 4, 5, 6), (1, 3, 4, 6), (1, 2, 3, 4, 5)]:
            subset = IndexSubset(members)
            block = CorrelationMatrix(sigma.entries[np.ix_(subset.as_indices(), subset.as_indices())])
            x_s = tuple(x[j - 1] for j in members)
            for k in range(1, len(members) + 1):
                try:
                    got = asymptotic_estimate(sigma, PARETO2, TailSet(subset, x_s, k))
                except UnsupportedDegeneracy:
                    with pytest.raises(UnsupportedDegeneracy):
                        asymptotic_estimate(block, PARETO2, at_least(x_s, k))
                    continue
                want = asymptotic_estimate(block, PARETO2, at_least(x_s, k))
                assert got.power_exponent == pytest.approx(want.power_exponent, rel=1e-14)
                assert got.log_log_exponent == pytest.approx(want.log_log_exponent, abs=1e-14)
                assert got.log_constant == pytest.approx(want.log_constant, rel=1e-12, abs=1e-14)
                relabel = [
                    (IndexSubset(members[i - 1] for i in c.subset), IndexSubset(members[i - 1] for i in c.active_set))
                    for c in want.contributing_sets
                ]
                assert [(c.subset, c.active_set) for c in got.contributing_sets] == relabel

    def test_underflowing_masses_stay_in_log_space(self):
        # exp of each log mass underflows to 0 at these thresholds; the law
        # sums the masses in log space, and {1,2} is the only carrier
        big = (1e200,) * 3
        law = asymptotic_estimate(PAIR_LED_3X3, PARETO2, at_least(big, 2))
        pair = asymptotic_estimate(PAIR_LED_3X3, PARETO2, rect((1, 2), big[:2]))
        assert math.isfinite(law.log_constant)
        assert law.log_constant == pair.log_constant
        cone = cone_analysis(PAIR_LED_3X3, 2)
        assert [c.solution.support for c in cone.carriers(at_least(big, 2))] == [IndexSubset.of(1, 2)]
        assert [c.solution.support for c in cone.carriers(rect((1, 2), big[:2]))] == [
            IndexSubset.of(1, 2)
        ]
        assert cone.carriers(rect((1, 3), big[:2])) == ()

    def test_coefficients_computed_once_per_matrix(self, monkeypatch):
        import artifact.asymptotics as asymptotics

        calls = []
        original = asymptotics.upsilon
        monkeypatch.setattr(asymptotics, "upsilon", lambda *a: calls.append(a) or original(*a))
        sigma = equi_matrix(4, 0.3)
        first = subset_coefficients(sigma, IndexSubset.of(1, 2, 3))
        cone_analysis(sigma, 3)
        asymptotic_estimate(sigma, PARETO2, rect((1, 2, 3), (1.0, 2.0, 3.0)))
        assert subset_coefficients(sigma, IndexSubset.of(1, 2, 3)) is first
        members = [sol.support.members for _, sol in calls]
        assert len(members) == len(set(members))

    def test_coefficients_released_with_matrix(self):
        sigma = equi_matrix(3, 0.5)
        coeff = weakref.ref(subset_coefficients(sigma, IndexSubset.of(1, 2)))
        assert subset_coefficients(sigma, IndexSubset.of(1, 2)) is coeff()
        del sigma
        gc.collect()
        assert coeff() is None

    def test_record_holds_the_solution_and_orthant_factor(self):
        # The record keeps the solver's own solution, not a copy, and the
        # orthant estimate of its boundary block with its standard error.
        sigma = tie_block_matrix(6)
        full = IndexSubset.full(6)
        c = subset_coefficients(sigma, full)
        assert c.solution is subset_solver(sigma).solve(full)
        act = c.solution.active_set.as_indices()
        bnd = c.solution.boundary_set.as_indices()
        assert len(bnd) == 4
        cross = sigma.entries[np.ix_(bnd, act)]
        lower = spd_factorize(sigma.entries[np.ix_(act, act)])
        block = sigma.entries[np.ix_(bnd, bnd)] - cross @ solve_spd(lower, cross.T)
        assert c.orthant == orthant_probability(block)
        assert c.orthant.se > 0.0


class TestBivariateComparison:
    def test_margin_dominated(self):
        rep = bivariate_comparison(2.0 / 3.0, 2.0, 1.0, 2.0, 10.0)
        assert rep.gaussian_regime == "margin-dominated"
        expected = math.log(
            math.exp(-0.5 * 400.0) / math.sqrt(2.0 * math.pi)
        ) - math.log(20.0)
        assert rep.gaussian_log_asym == pytest.approx(expected, rel=1e-12)

    def test_joint_dominated_equal_thresholds(self):
        rep = bivariate_comparison(2.0 / 3.0, 2.0, 1.0, 1.0, 10.0)
        assert rep.gaussian_regime == "joint-dominated"
        assert rep.gaussian_log_asym is not None

    def test_independence_value_is_squared_mills_ratio(self):
        t = 20.0
        rep = bivariate_comparison(0.0, 2.0, 1.0, 1.0, t)
        mills = -0.5 * math.log(2.0 * math.pi) - 0.5 * t * t - math.log(t)
        assert rep.gaussian_log_asym == pytest.approx(2.0 * mills, rel=1e-12)
        assert rep.gaussian_log_asym == pytest.approx(-407.82934161351733, rel=1e-12)

    def test_negative_rho_reports_regime_without_value(self):
        rep = bivariate_comparison(-0.3, 2.0, 1.0, 1.0, 10.0)
        assert rep.gaussian_regime == "joint-dominated"
        assert rep.gaussian_log_asym is None
        assert math.isfinite(rep.pareto_log_asym)

    def test_boundary_regime_halves_the_constant(self):
        ratio = 0.5
        margin = bivariate_comparison(0.7, 2.0, 1.0, 2.0, 10.0)
        boundary = bivariate_comparison(ratio, 2.0, 1.0, 2.0, 10.0)
        assert boundary.gaussian_regime == "boundary"
        assert boundary.gaussian_log_asym == pytest.approx(
            margin.gaussian_log_asym + math.log(0.5), rel=1e-12
        )

    RHOS = [-0.9, -0.5, -0.2, 0.0, 0.3, 0.6, 0.9, 0.95]
    ALPHAS = [0.5, 1.0, 2.0, 5.0]
    THRESHOLDS = [(1.0, 1.0), (1.0, 2.0), (0.3, 0.7), (5.0, 0.5)]
    TS = [10.0, 100.0, 1e6]

    @pytest.mark.parametrize("rho", RHOS)
    def test_pareto_side_matches_rectangular_law(self, rho):
        # The Pareto side is the rectangle's law itself, and the law is the
        # d = 2 closed form; where the law is above probability 1, both refuse.
        for alpha in self.ALPHAS:
            marg = MarginalSpec(alpha)
            for x1, x2 in self.THRESHOLDS:
                est = asymptotic_estimate(
                    equi_matrix(2, rho), marg, rect(IndexSubset.of(1, 2), (x1, x2))
                )
                for t in self.TS:
                    want = bivariate_rectangle_log_law(rho, alpha, x1, x2, t)
                    if want > 0.0:
                        with pytest.raises(ValueError, match="above 0"):
                            est.evaluate_log(t)
                        with pytest.raises(ValueError, match="above 0"):
                            bivariate_comparison(rho, alpha, x1, x2, t)
                        continue
                    rep = bivariate_comparison(rho, alpha, x1, x2, t)
                    assert rep.pareto_log_asym == est.evaluate_log(t)
                    assert rep.pareto_log_asym == pytest.approx(want, rel=1e-12)

    def test_pareto_side_refuses_four_grid_cases(self):
        # The grid above has 384 cases; the law exceeds probability 1 on 4,
        # all at t = 10 and alpha 0.5 (rho -0.9 at (0.3, 0.7): log p = 5.05).
        refused = [
            (rho, alpha, x, t)
            for rho in self.RHOS
            for alpha in self.ALPHAS
            for x in self.THRESHOLDS
            for t in self.TS
            if bivariate_rectangle_log_law(rho, alpha, *x, t) > 0.0
        ]
        assert [(rho, x) for rho, _, x, _ in refused] == [
            (-0.9, (0.3, 0.7)), (0.9, (0.3, 0.7)), (0.95, (1.0, 1.0)), (0.95, (0.3, 0.7))
        ]
        assert {(alpha, t) for _, alpha, _, t in refused} == {(0.5, 10.0)}
        with pytest.raises(ValueError, match=r"is 5\.04976\d*, above 0"):
            bivariate_comparison(-0.9, 0.5, 0.3, 0.7, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="rho"):
            bivariate_comparison(1.0, 2.0, 1.0, 1.0, 10.0)
        # t is guarded by the law's own t >= 10, so e < t < 10 is refused too.
        for t in (2.0, 5.0, 9.999):
            with pytest.raises(ValueError, match="t >= 10"):
                bivariate_comparison(0.2, 2.0, 1.0, 1.0, t)

    @pytest.mark.parametrize("rho", [1.0 - 1e-11, -1.0 + 1e-11])
    def test_rho_next_to_one_is_not_positive_definite(self, rho):
        # 1 - rho^2 is about 2e-11, below the pivot tolerance of a
        # correlation matrix.
        with pytest.raises(NotPositiveDefinite):
            bivariate_comparison(rho, 2.0, 1.0, 1.0, 10.0)

    @pytest.mark.parametrize("rho", [False, True])
    def test_bool_rho_rejected(self, rho):
        with pytest.raises(ValueError, match=r"rho must lie in \(-1, 1\)"):
            bivariate_comparison(rho, 2.0, 1.0, 1.0, 10.0)

    @pytest.mark.parametrize("rho", [np.float32(0.5), np.float16(-0.25), np.int8(0)])
    def test_numpy_real_rho(self, rho):
        assert bivariate_comparison(rho, 2.0, 1.0, 2.0, 10.0) == bivariate_comparison(
            float(rho), 2.0, 1.0, 2.0, 10.0
        )


class TestPropertySuites:
    def test_sum_rule_random(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            sigma = random_correlation(rng, d)
            cone = cone_analysis(sigma, 2)
            for coeff in cone.coefficients:
                sol = coeff.solution
                assert abs(float(np.sum(sol.h)) - sol.gamma) <= 1e-10 * max(1.0, sol.gamma)

    def test_permutation_equivariance(self, rng):
        for _ in range(10):
            d = 4
            sigma = random_correlation(rng, d)
            perm = rng.permutation(d)
            permuted = CorrelationMatrix(sigma.entries[np.ix_(perm, perm)])
            x = np.asarray([1.0, 2.0, 0.7, 1.4])
            base = asymptotic_estimate(
                sigma, PARETO2, rect(IndexSubset.full(d), tuple(x))
            )
            # coordinate j of the permuted matrix is old coordinate perm[j]
            moved = asymptotic_estimate(
                permuted, PARETO2, rect(IndexSubset.full(d), tuple(x[perm]))
            )
            assert moved.power_exponent == pytest.approx(base.power_exponent, rel=1e-11)
            assert moved.log_log_exponent == pytest.approx(base.log_log_exponent, abs=1e-11)
            assert moved.log_constant == pytest.approx(base.log_constant, abs=1e-9)
            for level in range(2, d + 1):
                a = cone_analysis(sigma, level)
                b = cone_analysis(permuted, level)
                assert b.gamma == pytest.approx(a.gamma, rel=1e-12)
                assert b.min_active_size == a.min_active_size
