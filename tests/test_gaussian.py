"""The heavy-tail-to-normal quantile expansion, orthant probabilities, and
the joint-tail constant and its evaluation."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import ndtr as scipy_ndtr
from scipy.special import ndtri as scipy_ndtri

import artifact.gaussian as gaussian_module
from artifact.asymptotics import MarginalSpec, rv_quantile_expansion
from artifact.gaussian import (
    ORTHANT_RANDOMIZATIONS,
    AsymptoticRegimeWarning,
    OrthantEstimate,
    TailCoefficients,
    UnsupportedDegeneracy,
    _components,
    _ndtr,
    _ndtri,
    _scrambled_sobol,
    gaussian_joint_tail,
    orthant_probability,
    upsilon,
)
from artifact.linalg import CorrelationMatrix, NotPositiveDefinite
from artifact.qp import solve_qp
from conftest import (
    coupled_pair_matrix,
    equi_matrix,
    near_tie_4x4,
    tie_block_matrix,
    two_block_6x6,
)
from oracles import joint_tail_quadrature, normal_pdf


def quantile_oracle(p) -> float:
    """High-precision inverse normal cdf via erfinv.

    120 digits so that 2p - 1 keeps precision even at survival levels
    around 1e-60 (alpha = 5 at t = 1e12).
    """
    with mpmath.workdps(120):
        return float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))


class TestQuantileExpansion:
    def test_reference_point(self):
        value = rv_quantile_expansion(MarginalSpec(alpha=2.0), 1.0, 1e6)
        assert value == pytest.approx(7.0404, abs=2e-4)
        exact = quantile_oracle(1.0 - 1e-12)
        assert abs(value - exact) < 0.01

    def test_error_shrinks_with_t(self):
        marg = MarginalSpec(alpha=2.0)
        errors = []
        for t in [1e6, 1e9, 1e12]:
            # survival level (t x)^(-alpha), exact quantile via symmetry
            exact = -quantile_oracle(t ** -2.0)
            errors.append(abs(rv_quantile_expansion(marg, 1.0, t) - exact))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("x", [0.5, 1.0, 3.0])
    def test_error_monotone_over_grid(self, alpha, x):
        marg = MarginalSpec(alpha=alpha)
        ts = [1e6, 1e8, 1e10, 1e12]
        errors = []
        for t in ts:
            survival = mpmath.mpf(t) ** -alpha * mpmath.mpf(x) ** -alpha
            exact = -quantile_oracle(survival)
            errors.append(abs(rv_quantile_expansion(marg, x, t) - exact))
        assert all(a > b for a, b in zip(errors, errors[1:]))
        # scaled error stays bounded
        assert all(e * math.sqrt(math.log(t)) < 2.0 for e, t in zip(errors, ts))

    @pytest.mark.parametrize("scale_c", [0.25, 4.0])
    @pytest.mark.parametrize("x", [0.5, 3.0])
    def test_scale_c_is_the_marginal_spec_convention(self, scale_c, x):
        # MarginalSpec's survival at s = t x is s^-alpha / scale_c: the
        # expansion converges to that level's quantile, which lies at least
        # 0.26 from the quantile of scale_c s^-alpha on this grid.
        marg = MarginalSpec(alpha=2.0, scale_c=scale_c)
        errors = []
        for t in [1e6, 1e9, 1e12]:
            level = (mpmath.mpf(t) * mpmath.mpf(x)) ** -2
            value = rv_quantile_expansion(marg, x, t)
            errors.append(abs(value + quantile_oracle(level / scale_c)))
            assert errors[-1] < abs(value + quantile_oracle(level * scale_c)) / 5.0
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.02

    def test_scale_c_reference_point(self):
        # At scale_c = 4, alpha = 2, t = 1e6: the quantile is 7.2253 under
        # survival s^-2 / 4, and 6.8385 under 4 s^-2.
        value = rv_quantile_expansion(MarginalSpec(alpha=2.0, scale_c=4.0), 1.0, 1e6)
        assert value == pytest.approx(7.2269, abs=1e-4)
        assert -quantile_oracle(mpmath.mpf(10) ** -12 / 4) == pytest.approx(7.2253, abs=1e-4)
        one = rv_quantile_expansion(MarginalSpec(alpha=2.0), 1.0, 1e6)
        assert value - one == pytest.approx(math.log(4.0) / math.sqrt(4.0 * math.log(1e6)), rel=1e-12)

    def test_threshold_dependence_identity(self):
        for alpha in [1.0, 2.0]:
            t = 1e8
            one = rv_quantile_expansion(MarginalSpec(alpha), 1.0, t)
            two = rv_quantile_expansion(MarginalSpec(alpha), 2.0, t)
            expected = math.log(2.0**alpha) / math.sqrt(2.0 * alpha * math.log(t))
            assert two - one == pytest.approx(expected, rel=1e-12)

    def test_small_t_rejected(self):
        with pytest.raises(ValueError, match="t > e"):
            rv_quantile_expansion(MarginalSpec(alpha=2.0), 1.0, 2.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            rv_quantile_expansion(MarginalSpec(alpha=0.0), 1.0, 1e6)
        with pytest.raises(ValueError, match="x"):
            rv_quantile_expansion(MarginalSpec(alpha=1.0), -2.0, 1e6)


def closed_form_2(r: float) -> float:
    return 0.25 + math.asin(r) / (2.0 * math.pi)


class TestOrthant:
    def test_degenerate_dimensions(self):
        # No coordinates: the empty product, the float 1.0 with se 0.0.
        empty = orthant_probability(np.empty((0, 0)))
        assert empty == OrthantEstimate(1.0, 0.0)
        assert type(empty.value) is float and type(empty.se) is float
        assert orthant_probability([[2.5]]).value == 0.5

    def test_bivariate_values(self):
        assert orthant_probability([[1.0, 0.0], [0.0, 1.0]]).value == 0.25
        est = orthant_probability([[1.0, 0.5], [0.5, 1.0]])
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert est.se == 0.0

    def test_bivariate_covariance_is_rescaled(self):
        est = orthant_probability([[4.0, 1.0], [1.0, 1.0]])
        assert est.value == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_trivariate_equicorrelated(self):
        cov = equi_matrix(3, 0.5).entries
        assert orthant_probability(cov).value == pytest.approx(0.25, abs=1e-12)

    def test_monotone_in_correlation(self):
        values = [orthant_probability([[1.0, r], [r, 1.0]]).value for r in np.linspace(-0.95, 0.95, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_qmc_matches_embedded_bivariate(self):
        # The QMC path on its own; orthant_probability splits the blocks
        # apart and multiplies their closed forms.
        for r in [-0.4, 0.2, 0.6]:
            cov = block_diag([[1.0, r], [r, 1.0]], np.eye(2))
            est = gaussian_module._rqmc_orthant(cov, 7)
            assert est.se > 0.0
            expected = closed_form_2(r) * 0.25
            assert abs(est.value - expected) <= max(3.0 * est.se, 1e-5)
            assert orthant_probability(cov, seed=7) == OrthantEstimate(expected, 0.0)

    def test_qmc_matches_embedded_trivariate(self):
        cov = block_diag(equi_matrix(3, 0.5).entries, [[1.0]])
        est = gaussian_module._rqmc_orthant(cov, 11)
        assert abs(est.value - 0.125) <= max(3.0 * est.se, 1e-5)
        assert orthant_probability(cov, seed=11) == OrthantEstimate(0.125, 0.0)

    @pytest.mark.parametrize(
        "index, minor",
        [([], 1), ([0, 0], 2), ([0, 1, 2, 0], 4), ([0, 1, 2, 0, 1], 4)],
        ids=["zero_variance", "comonotone", "m4", "m5"],
    )
    def test_singular_covariance_is_refused(self, index, minor):
        # A zero variance, or a coordinate repeated, makes the covariance
        # singular: the pivot of the first dependent coordinate is zero.
        base = np.array([[1.0, 0.3, 0.5], [0.3, 1.0, 0.2], [0.5, 0.2, 1.0]])
        cov = base[np.ix_(index, index)] if index else np.zeros((1, 1))
        with pytest.raises(NotPositiveDefinite, match=f"leading minor of order {minor} ") as err:
            orthant_probability(cov, seed=0)
        assert err.value.minor == minor

    def test_qmc_deterministic_per_seed(self):
        cov = equi_matrix(4, 0.3).entries
        a = orthant_probability(cov, seed=3)
        b = orthant_probability(cov, seed=3)
        assert (a.value, a.se) == (b.value, b.se)
        assert orthant_probability(cov, seed=np.int64(3)) == a
        with pytest.raises(ValueError, match=r"seed must be an integer in 0\.\.18446744073709551615, got True"):
            orthant_probability(cov, seed=True)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive definite"):
            orthant_probability([[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            orthant_probability([[1.0, 0.2], [0.4, 1.0]])
        # Relative asymmetry 1e-9: above linalg's SYMMETRY_TOLERANCE.
        with pytest.raises(ValueError, match="not symmetric"):
            orthant_probability([[1.0, 0.2], [0.2 + 1e-9, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            orthant_probability([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="square"):
            orthant_probability(np.ones((2, 3)))

    def test_qmc_value_pinned(self):
        # The analyze-d10 benchmark's 4x4 boundary block; the value was
        # recorded with scipy.stats.qmc.Sobol as the point engine.
        est = orthant_probability(equi_matrix(4, 0.2).entries, seed=0)
        assert est.value == 0.11301207317564645

    def test_qmc_escalates_twice_when_the_target_is_missed(self, monkeypatch):
        # A target of 0 is never met: each of the three levels takes four
        # times the points of the one before, and then the estimate is
        # refused.
        monkeypatch.setattr(gaussian_module, "ORTHANT_TARGET_SE", 0.0)
        sizes = []
        sobol = gaussian_module._scrambled_sobol

        def recording(dim, n, seq):
            sizes.append(n)
            return sobol(dim, n, seq)

        monkeypatch.setattr(gaussian_module, "_scrambled_sobol", recording)
        with pytest.raises(
            UnsupportedDegeneracy,
            match=r"^the orthant QMC over a component of 4 coordinates reached a relative standard error of .*, above the target 0$",
        ):
            orthant_probability(equi_matrix(4, 0.5).entries, seed=5)
        assert sizes == [n for n in (8192, 32768, 131072) for _ in range(ORTHANT_RANDOMIZATIONS)]

    def test_relative_target_missed_is_refused(self):
        # equi(6, -0.197) is nearly singular (smallest eigenvalue 0.015).
        # Its orthant, about 1.06e-6, meets an absolute se of 1e-4 at the
        # first level with 4% relative error; after the last level its
        # relative se is still 0.2%, 20 times the target.
        with pytest.raises(
            UnsupportedDegeneracy,
            match=r"^the orthant QMC over a component of 6 coordinates reached a relative standard error of 0\.00207, above the target 0\.0001$",
        ):
            orthant_probability(equi_matrix(6, -0.197).entries, seed=0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dimension 65 exceeds supported maximum 64"):
            orthant_probability(np.eye(65))


class TestOrthantComponents:
    """The orthant splits into the independent components of the
    correlation's nonzero pattern, at every size."""

    def test_components_follow_the_nonzero_pattern(self):
        corr = np.eye(6)
        for i, j in [(0, 3), (3, 5), (1, 4)]:
            corr[i, j] = corr[j, i] = 0.3
        assert [part.tolist() for part in _components(corr)] == [[0, 3, 5], [1, 4], [2]]

    @pytest.mark.parametrize(
        "corr",
        [
            [[1.0]],
            [[1.0, 0.3], [0.3, 1.0]],
            np.eye(2),
            [[1.0, 0.2, 0.5], [0.2, 1.0, -0.1], [0.5, -0.1, 1.0]],
            [[1.0, 0.4, 0.0], [0.4, 1.0, -0.3], [0.0, -0.3, 1.0]],
            [[1.0, 0.0, 0.6], [0.0, 1.0, 0.0], [0.6, 0.0, 1.0]],
            np.eye(3),
        ],
        ids=["single", "pair", "two_singles", "triple", "chain", "pair_and_single", "three_singles"],
    )
    def test_up_to_three_coordinates_the_components_give_the_closed_form(self, corr):
        # A connected pattern is one component with the same block, and a
        # split one multiplies by 1/2 per single, which is exact: the
        # product is the whole correlation's closed form to the bit.
        corr = np.array(corr)
        want = OrthantEstimate(gaussian_module._closed_form_orthant(corr), 0.0)
        assert orthant_probability(corr) == want

    @pytest.mark.parametrize(
        "corr",
        [
            [[1.0]],
            [[1.0, 0.3], [0.3, 1.0]],
            [[1.0, 0.2, 0.5], [0.2, 1.0, -0.1], [0.5, -0.1, 1.0]],
            equi_matrix(4, 0.5).entries,
        ],
        ids=["m1", "m2", "m3", "m4"],
    )
    def test_one_component_is_its_own_estimate_to_the_bit(self, corr):
        # The product of one factor is 1.0 times its value, and its se 0.0
        # plus its own: the component's estimate, unchanged.
        corr = np.array(corr)
        if len(corr) > 3:
            want = gaussian_module._rqmc_orthant(corr, 0)
            assert want.se > 0.0
        else:
            want = OrthantEstimate(gaussian_module._closed_form_orthant(corr), 0.0)
        est = orthant_probability(corr, seed=0)
        assert [est.value.hex(), est.se.hex()] == [want.value.hex(), want.se.hex()]

    def test_factors_multiply_and_se_by_delta_method(self):
        a, b = equi_matrix(4, 0.5).entries, equi_matrix(5, 0.2).entries
        cov = block_diag(a, [[1.0, 0.3], [0.3, 1.0]], b)
        est = orthant_probability(cov, seed=5)
        pa, pb = orthant_probability(a, seed=5), orthant_probability(b, seed=5)
        pair = closed_form_2(0.3)
        assert pa.se > 0.0 and pb.se > 0.0
        assert est.value == math.prod([pa.value, pair, pb.value])
        # The delta-method terms are added: one seed's errors are correlated.
        assert est.se == pytest.approx(pa.se * pair * pb.value + pb.se * pa.value * pair, rel=1e-12)


EPS = np.finfo(float).eps


def ulps(values, reference) -> np.ndarray:
    """Relative error of each value against its mpmath reference, in units
    of the double epsilon."""
    return np.array([float(abs((mpmath.mpf(v) - r) / r)) for v, r in zip(values, reference)]) / EPS


def quantile_reference(p: float, start: float):
    """Phi^{-1}(p) to 50 digits: three Newton steps on mpmath's ncdf from a
    start within a few ulps (erfinv(2p - 1) loses p's digits near 0)."""
    with mpmath.workdps(50):
        x, target = mpmath.mpf(start), mpmath.mpf(p)
        for _ in range(3):
            x -= (mpmath.ncdf(x) - target) / mpmath.npdf(x)
        return +x


class TestNormalKernels:
    """The in-house Phi (Cephes' ndtr) and Phi^{-1} (AS 241) against mpmath,
    with scipy.special as the bar to meet."""

    @pytest.mark.parametrize(
        "num,den,low,high,target,bound",
        [
            ("_ERF_T", "_ERF_U", 0.0, 1.0, lambda x: mpmath.erf(x) / x, 2.0),
            ("_ERFC_P", "_ERFC_Q", 1.0, 8.0, lambda x: mpmath.erfc(x) * mpmath.exp(x * x), 6.0),
            ("_ERFC_R", "_ERFC_S", 8.0, 27.0, lambda x: mpmath.erfc(x) * mpmath.exp(x * x), 4.0),
        ],
        ids=["erf", "erfc", "erfc-far"],
    )
    def test_cephes_coefficients(self, num, den, low, high, target, bound):
        # Each rational form against the function it approximates, to about
        # 1.5 times its worst error (1.1, 4.0 and 2.8 eps): a wrong digit in
        # a coefficient shows here, whatever the other forms do. A change
        # of 2e-14 in one coefficient of U reads 6.4 eps.
        x = np.linspace(low, high, 401)[1:]
        arg = x * x if num == "_ERF_T" else x
        ratio = gaussian_module._polevl(getattr(gaussian_module, num), arg, np.empty(x.size))
        ratio /= gaussian_module._polevl(getattr(gaussian_module, den), arg, np.empty(x.size))
        with mpmath.workdps(40):
            reference = [target(mpmath.mpf(v)) for v in x]
        assert ulps(ratio, reference).max() <= bound

    @staticmethod
    def ndtr_errors(low, high):
        """Relative errors in eps of _ndtr and of scipy's ndtr on a grid and
        seeded uniform points in [low, high]."""
        x = np.concatenate([np.linspace(low, high, 501), np.random.default_rng(1).uniform(low, high, 1500)])
        with mpmath.workdps(40):
            reference = [mpmath.ncdf(mpmath.mpf(v)) for v in x]
        return ulps(_ndtr(x), reference), ulps(scipy_ndtr(x), reference)

    @pytest.mark.parametrize(
        "low,high,share", [(-1.5, 1.5, 1.0), (-8, -1.5, 1.0), (-20, -8, 0.9), (-37.5, -20, 0.9)]
    )
    def test_ndtr_no_less_accurate_than_scipy(self, low, high, share):
        # The worst relative error grows into the lower tail for both:
        # about 6, 45, 270 and 1000 eps on these ranges for scipy. Below -8,
        # Cephes' split of exp(-x^2), which scipy's ndtr does not take,
        # keeps the port more than 10% below it (0.84 and 0.81 measured).
        ours, theirs = self.ndtr_errors(low, high)
        assert ours.max() <= share * theirs.max(), (ours.max(), theirs.max())

    def test_ndtr_upper_tail_within_an_ulp(self):
        # Phi is in [0.93, 1) here, where an ulp is eps / 2.
        ours, _ = self.ndtr_errors(1.5, 8.3)
        assert ours.max() <= 0.5

    @pytest.mark.parametrize(
        "p",
        [
            np.random.default_rng(2).uniform(0.0, 1.0, 600),
            10.0 ** -np.random.default_rng(3).uniform(1.2, 300.0, 600),
            1.0 - np.random.default_rng(4).uniform(1e-16, 0.075, 600),
        ],
        ids=["unit", "lower-tail", "upper-tail"],
    )
    def test_ndtri_matches_mpmath_and_scipy(self, p):
        ours = _ndtri(p)
        reference = [quantile_reference(v, start) for v, start in zip(p, ours)]
        assert ulps(ours, reference).max() <= 1e-15 / EPS
        assert np.all(np.abs(ours - scipy_ndtri(p)) <= 5.0 * EPS * np.abs(ours))

    def test_ndtri_inverts_ndtr(self):
        p = np.random.default_rng(5).uniform(0.0, 1.0, 10000)
        np.testing.assert_allclose(_ndtr(_ndtri(p)), p, rtol=1e-14)

    def test_special_values(self):
        cdf = _ndtr(np.array([-np.inf, np.inf, np.nan, 0.0, -40.0, 40.0]))
        assert cdf.tolist()[:2] == [0.0, 1.0] and math.isnan(cdf[2])
        # Phi(-40) underflows to 0, as in Cephes.
        assert cdf.tolist()[3:] == [0.5, 0.0, 1.0]
        quantile = _ndtri(np.array([0.0, 1.0, 0.5, np.nan, -0.1, 1.1, 5e-324]))
        assert quantile.tolist()[:3] == [-np.inf, np.inf, 0.0]
        assert np.isnan(quantile[3:6]).all()
        # The least subnormal is still in the far tail form's range.
        reference = quantile_reference(5e-324, quantile[6])
        assert ulps(quantile[6:], [reference]).max() <= 1e-15 / EPS

    @pytest.mark.parametrize("kernel", [_ndtr, _ndtri], ids=["ndtr", "ndtri"])
    def test_shapes(self, kernel):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, (3, 4)) if kernel is _ndtr else rng.uniform(0.0, 1.0, (3, 4))
        want = kernel(x.ravel()).reshape(3, 4)
        assert kernel(x[0, 0]).shape == ()
        assert kernel(x[0, 0]) == want[0, 0]
        assert np.array_equal(kernel(x), want)
        assert np.array_equal(kernel(x.T), want.T)

    def test_ndtr_out(self):
        x = np.random.default_rng(6).normal(0.0, 3.0, (3, 4))
        want = _ndtr(x)
        # out may be the input itself: contiguous, a strided column, or an
        # N-D array that is not C-contiguous.
        for view in (lambda a: a, lambda a: a[:, 1], lambda a: a.T):
            target = view(x.copy())
            assert _ndtr(target, out=target) is target
            assert np.array_equal(target, view(want))
        with pytest.raises(ValueError, match="shape"):
            _ndtr(x, out=np.empty(12))

    @pytest.mark.parametrize("kernel", [_ndtr, _ndtri], ids=["ndtr", "ndtri"])
    def test_a_value_does_not_depend_on_the_array_it_arrives_in(self, kernel):
        # A long array, across the 16,384- and 65,536-value marks where
        # earlier kernels cut their input, against one value at a time.
        rng = np.random.default_rng(7)
        size = 3 * 65536 + 5
        x = rng.normal(0.0, 3.0, size) if kernel is _ndtr else rng.uniform(0.0, 1.0, size)
        single = np.array([kernel(x[i : i + 1])[0] for i in range(0, size, 97)])
        assert np.array_equal(kernel(x)[::97], single)


class TestScrambledSobol:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 7, 12, 31, 63])
    def test_bit_identical_to_scipy(self, dim):
        from scipy.stats import qmc

        for entropy in (0, 3, 2**40 + 7):
            for n in (1, 5, 8192, 32768):
                # Spawning advances a SeedSequence, so each engine gets its own copy.
                child = np.random.SeedSequence(entropy, spawn_key=(1,)).spawn(3)[2]
                twin = np.random.SeedSequence(entropy, spawn_key=(1,)).spawn(3)[2]
                engine = qmc.Sobol(d=dim, scramble=True, rng=np.random.default_rng(twin))
                with warnings.catch_warnings():
                    # n = 5 breaks the balance properties; scipy says so.
                    warnings.simplefilter("ignore", UserWarning)
                    expected = engine.random(n)
                got = _scrambled_sobol(dim, n, child)
                assert got.dtype == np.float64 and got.shape == (n, dim)
                assert np.array_equal(got, expected), (entropy, n)

    def test_points_are_stratified(self):
        # Scrambling keeps the (0, m, 1)-net property: each coordinate of
        # 2^k points puts exactly one point in every interval [j, j+1) / 2^k.
        points = _scrambled_sobol(5, 1024, np.random.SeedSequence(9))
        cells = np.floor(points * 1024).astype(int)
        for column in cells.T:
            assert np.array_equal(np.sort(column), np.arange(1024))


RHO_BOUNDARY = 1.0 / (2.0 * math.sqrt(2.0) - 1.0)


class TestUpsilon:
    @pytest.mark.parametrize("rho", [-0.4, 0.0, 0.3, 0.6])
    def test_bivariate_closed_form(self, rho):
        sigma = equi_matrix(2, rho)
        result = upsilon(sigma, solve_qp(sigma))
        expected = (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))
        assert math.exp(result.log_upsilon) == pytest.approx(expected, rel=1e-12)
        assert result.orthant.value == 1.0
        assert len(solve_qp(sigma).boundary_set) == 0
        assert result.log_upsilon == pytest.approx(math.log(expected), abs=1e-12)

    def test_identity_three_dim(self):
        sigma = CorrelationMatrix(np.eye(3))
        result = upsilon(sigma, solve_qp(sigma))
        assert math.exp(result.log_upsilon) == pytest.approx((2.0 * math.pi) ** -1.5, rel=1e-12)
        assert result.orthant.value == 1.0

    def test_boundary_coordinate_halves_the_constant(self):
        # at this correlation the floating coordinate sits exactly at 1
        sigma = coupled_pair_matrix(RHO_BOUNDARY)
        result = upsilon(sigma, solve_qp(sigma))
        assert solve_qp(sigma).boundary_set.members == (3,)
        assert result.orthant.value == 0.5
        rho = RHO_BOUNDARY
        pair = (1.0 + rho) ** 1.5 / (2.0 * math.pi * math.sqrt(1.0 - rho))
        assert math.exp(result.log_upsilon) == pytest.approx(0.5 * pair, rel=1e-10)

    def test_interior_coordinate_contributes_factor_one(self):
        sigma = coupled_pair_matrix(0.6)
        result = upsilon(sigma, solve_qp(sigma))
        assert len(solve_qp(sigma).boundary_set) == 0
        assert result.orthant.value == 1.0
        assert isinstance(result, TailCoefficients)

    def test_permutation_leaves_constant_unchanged(self):
        sigma = coupled_pair_matrix(0.6)
        base = upsilon(sigma, solve_qp(sigma))
        perm = [2, 0, 1]  # old label j+1 becomes position of j in perm
        permuted = CorrelationMatrix(sigma.entries[np.ix_(perm, perm)])
        moved = upsilon(permuted, solve_qp(permuted))
        assert moved.log_upsilon == pytest.approx(base.log_upsilon, abs=1e-12)
        assert solve_qp(permuted).gamma == pytest.approx(solve_qp(sigma).gamma, abs=1e-13)

    def test_independent_near_singular_pairs(self):
        # diag(near_tie_4x4, near_tie_4x4): the full set's boundary block is
        # two independent 2 x 2 blocks at correlation -1 + eps, on which one
        # QMC over the four coordinates integrates exactly 0
        one = near_tie_4x4()
        both = CorrelationMatrix(block_diag(one.entries, one.entries))
        sol = solve_qp(both)
        assert sol.boundary_set.members == (3, 4, 7, 8)
        single = upsilon(one, solve_qp(one))
        assert single.log_upsilon == pytest.approx(-12.29830779632155, rel=1e-15)
        assert upsilon(both, sol).log_upsilon == pytest.approx(2.0 * single.log_upsilon, abs=1e-12)

    def test_independent_blocks_multiply(self):
        # diag(tie block, near_tie_4x4): the boundary block is the tie
        # block's 4-dim orthant and the near-tie pair, with zeros between
        tie, near = tie_block_matrix(6), near_tie_4x4()
        both = CorrelationMatrix(block_diag(tie.entries, near.entries))
        factors = [upsilon(s, solve_qp(s)).orthant.value for s in (tie, near)]
        assert factors == pytest.approx([0.1130120731756465, 1.102657836682397e-05], rel=1e-15)
        joint = upsilon(both, solve_qp(both))
        assert joint.orthant.value == pytest.approx(factors[0] * factors[1], rel=1e-12)

    @pytest.mark.parametrize("value", [0.0, math.nan])
    def test_degenerate_orthant_factor_is_refused(self, monkeypatch, value):
        monkeypatch.setattr(
            gaussian_module, "_rqmc_orthant", lambda corr, seed: OrthantEstimate(value, 0.0)
        )
        sigma = tie_block_matrix(6)
        with pytest.raises(
            UnsupportedDegeneracy, match=rf"orthant factor of boundary set \{{3,4,5,6\}} is {value!r}"
        ):
            upsilon(sigma, solve_qp(sigma))


class TestJointTail:
    @pytest.mark.parametrize("u", [3.0, 5.0, 8.0])
    def test_independent_pair_is_product_of_mills_tails(self, u):
        sigma = equi_matrix(2, 0.0)
        got = gaussian_joint_tail(sigma, u)
        mills = math.log(normal_pdf(u) / u)
        assert got == pytest.approx(2.0 * mills, rel=1e-12)

    def test_identity_three_dim(self):
        sigma = CorrelationMatrix(np.eye(3))
        got = gaussian_joint_tail(sigma, 5.0)
        assert got == pytest.approx(3.0 * math.log(normal_pdf(5.0) / 5.0), rel=1e-12)

    def test_quadrature_ratio_in_band(self):
        for rho, u in [(0.3, 5.0), (0.3, 6.0), (0.5, 6.0)]:
            sigma = equi_matrix(2, rho)
            ratio = math.exp(gaussian_joint_tail(sigma, u)) / joint_tail_quadrature(sigma, u)
            assert 0.85 <= ratio <= 1.15

    def test_quadrature_ratio_documented_corner(self):
        # (rho, u) = (0.5, 5) sits just outside the nominal 15% band at
        # order=1; this pins the first-order value, the acceptance gate
        # checks the band at order=2
        sigma = equi_matrix(2, 0.5)
        ratio = math.exp(gaussian_joint_tail(sigma, 5.0)) / joint_tail_quadrature(sigma, 5.0)
        assert 1.10 <= ratio <= 1.20

    @pytest.mark.parametrize("u", [3.0, 5.0, 8.0])
    def test_second_order_independent_pair(self, u):
        got = gaussian_joint_tail(equi_matrix(2, 0.0), u, order=2)
        mills = math.log(normal_pdf(u) / u)
        assert got == pytest.approx(2.0 * mills + math.log(1.0 - 2.0 / u**2), rel=1e-12)

    @pytest.mark.parametrize("rho", [-0.4, 0.3, 0.5])
    def test_second_order_bivariate_closed_form(self, rho):
        # Sigma^{-1} = [[1, -rho], [-rho, 1]] / (1 - rho^2) and D = u / (1 + rho)
        # give f = 1 - (1 + rho)(2 - rho) / ((1 - rho) u^2)
        sigma, u = equi_matrix(2, rho), 5.0
        factor = 1.0 - (1.0 + rho) * (2.0 - rho) / ((1.0 - rho) * u * u)
        step = gaussian_joint_tail(sigma, u, order=2) - gaussian_joint_tail(sigma, u)
        assert step == pytest.approx(math.log(factor), rel=1e-12)

    @pytest.mark.parametrize(
        "sigma, u",
        [
            (equi_matrix(3, 0.3), 6.0),
            # active set {1,2}, coordinate 3 interior
            (CorrelationMatrix(np.array([[1.0, 0.2, 0.7], [0.2, 1.0, 0.7], [0.7, 0.7, 1.0]])), 5.0),
        ],
    )
    def test_second_order_three_dim_beats_first_order(self, sigma, u):
        exact = joint_tail_quadrature(sigma, u)
        first = math.log(math.exp(gaussian_joint_tail(sigma, u)) / exact)
        second = math.log(math.exp(gaussian_joint_tail(sigma, u, order=2)) / exact)
        assert 0.85 <= math.exp(second) <= 1.15
        assert abs(second) < abs(first)

    @pytest.mark.parametrize("rho", [0.3, 0.5])
    def test_second_order_shift_error_is_fourth_order(self, rho):
        # P(Z >= u 1 + z / u) with z = (2, 2) is the unshifted tail at u + 2 / u.
        # An O(1/u^4) error falls by 1.5^4 from u = 6 to u = 9, an O(1/u^2)
        # one (the shift's own 1/u^2 terms left out) only by 1.5^2.
        sigma, shift = equi_matrix(2, rho), np.array([2.0, 2.0])

        def log_error(u):
            exact = joint_tail_quadrature(sigma, u + 2.0 / u)
            return gaussian_joint_tail(sigma, u, z_shift=shift, order=2) - math.log(exact)

        assert abs(log_error(9.0)) * 1.5**3 < abs(log_error(6.0))

    def test_second_order_refusals(self):
        with pytest.raises(ValueError, match=r"boundary set \{3,4\}"):
            gaussian_joint_tail(near_tie_4x4(), 5.0, order=2)
        with pytest.raises(ValueError, match="u=5"):
            gaussian_joint_tail(two_block_6x6(), 5.0, order=2)
        for order in (3, True, 2.0):
            with pytest.raises(ValueError, match=r"order must be an integer in 1\.\.2"):
                gaussian_joint_tail(equi_matrix(2, 0.3), 5.0, order=order)

    def test_second_order_boundary_refusal_runs_no_orthant(self, monkeypatch):
        # The 6 x 6 tie block's minimizer has the 4-dimensional boundary set
        # {3,4,5,6}; order=2 is refused before the orthant QMC is run.
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return orthant_probability(*args, **kwargs)

        monkeypatch.setattr(gaussian_module, "orthant_probability", counting)
        with pytest.raises(ValueError, match=r"boundary set \{3,4,5,6\}"):
            gaussian_joint_tail(tie_block_matrix(6), 5.0, order=2)
        assert calls == []
        gaussian_joint_tail(tie_block_matrix(6), 5.0)
        assert len(calls) == 1

    def test_shift_moves_result_by_weighted_inner_product(self):
        sigma = equi_matrix(2, 0.5)
        base = gaussian_joint_tail(sigma, 6.0)
        shifted = gaussian_joint_tail(sigma, 6.0, z_shift=np.array([math.log(2.0), 0.0]))
        assert shifted - base == pytest.approx(-math.log(2.0) / 1.5, rel=1e-12)

    def test_low_u_warns(self):
        with pytest.warns(AsymptoticRegimeWarning):
            gaussian_joint_tail(equi_matrix(2, 0.2), 2.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive real"):
            gaussian_joint_tail(equi_matrix(2, 0.2), -1.0)
        with pytest.raises(ValueError, match="length 2"):
            gaussian_joint_tail(equi_matrix(2, 0.2), 5.0, z_shift=np.ones(3))
        for bad in (math.nan, math.inf, -math.inf):
            for order in (1, 2):
                with pytest.raises(ValueError, match="z_shift must be a finite number"):
                    gaussian_joint_tail(equi_matrix(2, 0.2), 5.0, z_shift=[bad, 0.0], order=order)


def scaled_tail_reference(rho: float, u: float) -> float:
    """P(Z1 > u, Z2 > u) at correlation rho, from 30-digit mpmath quadrature.

    Integrates phi(u) exp(-s^2/2 - u s) Phibar((u - rho (u + s)) / sd) over
    s >= 0, with breakpoints at multiples of 1/u where the mass sits; a
    plain quadrature over [u, inf) loses digits at large u.
    """
    with mpmath.workdps(30):
        r, b = mpmath.mpf(rho), mpmath.mpf(u)
        sd = mpmath.sqrt(1 - r * r)

        def integrand(s):
            return mpmath.exp(-s * s / 2 - b * s) * mpmath.ncdf(-(b - r * (b + s)) / sd)

        points = [mpmath.mpf(0)] + [mpmath.mpf(k) / b for k in (1, 2, 4, 8, 16, 32)]
        return float(mpmath.npdf(b) * mpmath.quad(integrand, points + [mpmath.inf]))


class TestQuadratureOracle:
    @pytest.mark.parametrize("rho", [0.3, 0.5, -0.4])
    @pytest.mark.parametrize("u", [6.3, 8.3, 9.2, 12.2])
    def test_relative_accuracy_far_in_the_tail(self, rho, u):
        got = joint_tail_quadrature(equi_matrix(2, rho), u)
        assert got == pytest.approx(scaled_tail_reference(rho, u), rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("u", [6.0, 8.0])
    def test_independent_triple_far_in_the_tail(self, u):
        tail = float(mpmath.ncdf(-u) ** 3)
        got = joint_tail_quadrature(CorrelationMatrix(np.eye(3)), u)
        assert got == pytest.approx(tail, rel=1e-8, abs=0.0)

    def test_independent_pair(self):
        sigma = equi_matrix(2, 0.0)
        tail = float(mpmath.ncdf(-4.0)) ** 2
        assert joint_tail_quadrature(sigma, 4.0) == pytest.approx(tail, rel=1e-9, abs=0.0)

    def test_independent_triple(self):
        sigma = CorrelationMatrix(np.eye(3))
        tail = float(mpmath.ncdf(-4.0)) ** 3
        assert joint_tail_quadrature(sigma, 4.0) == pytest.approx(tail, rel=1e-7, abs=0.0)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="d <= 3"):
            joint_tail_quadrature(CorrelationMatrix(np.eye(4)), 5.0)

    def test_far_tail_returns_zero(self):
        assert joint_tail_quadrature(equi_matrix(2, 0.2), 45.0) == 0.0
