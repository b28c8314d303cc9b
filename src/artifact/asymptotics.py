"""Asymptotic tail probabilities for heavy-tailed vectors with normal dependence.

The model: each coordinate has survival function ~ s^{-alpha} / scale_c and the
joint law is a multivariate normal copula with correlation matrix Sigma. For a
tail event at scale t (rectangular exceedance, at-least-i exceedances, or
complement of a box) the probability decays like

    constant * (2 alpha log t)^beta * t^{-a},

and this module computes (constant, a, beta) exactly from the structural QP
solution of each exceedance set: a = alpha * gamma_S, beta = (gamma_S - |I_S|)/2,
and the constant combines the tail constant Upsilon_S with the thresholds
weighted by h. Everything is carried in log space.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import logsumexp, ndtri

from .gaussian import (
    LOG_TWO_PI,
    AsymptoticRegimeWarning,
    UpsilonResult,
    _finite_real,
    _positive_real,
    _require_t_above_e,
    upsilon,
)
from .linalg import MAX_ENUMERATION_DIM, CorrelationMatrix, IndexSubset
from .qp import subset_solver

# Two QP values tie (same cone family) when they differ by less than this,
# relative to max(1, gamma). Membership is a discrete decision fed by
# floating-point output; exact block-diagonal ties must be detected.
GAMMA_TIE_REL = 1e-9

H_SUM_TOLERANCE = 1e-10

MIN_EVAL_T = 10.0


class UnsupportedDegeneracy(ValueError):
    """Adjacent cone levels decay at the same rate; the at-least-i constant
    formula assumes a strict gap and is refused rather than silently wrong."""


def _require_eval_t(t, what: str) -> None:
    """Every limit formula is evaluated only at finite t >= MIN_EVAL_T."""
    if not _finite_real(t, "t") >= MIN_EVAL_T:
        raise ValueError(f"{what} is guarded to t >= {MIN_EVAL_T:g}, got {t!r}")


def _positive_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(_finite_real(v, name) for v in values)
    if len(out) == 0:
        raise ValueError(f"{name} must be nonempty")
    for v in out:
        if not v > 0:
            raise ValueError(f"{name} must be strictly positive reals, got {v!r}")
    return out


@dataclass(frozen=True)
class MarginalSpec:
    """Shared marginal tail: survival(s) ~ s^{-alpha} / scale_c.

    The limit formulas use only this tail shape. scale_c = 1 is also the
    exact Pareto law s^{-alpha} on s >= 1, the one the simulator draws by
    its inverse cdf.
    """

    alpha: float
    scale_c: float = 1.0

    def __post_init__(self):
        _positive_real(self.alpha, "alpha")
        _positive_real(self.scale_c, "scale_c")

    def log_b_inverse(self, t: float) -> float:
        """log(1 / survival(t)) = log scale_c + alpha log t."""
        return math.log(self.scale_c) + self.alpha * math.log(t)


@dataclass(frozen=True)
class Rectangular:
    """Joint exceedance {y : y_s > x_s for every s in subset}."""

    subset: IndexSubset
    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds", _positive_tuple(self.thresholds, "thresholds")
        )
        if len(self.thresholds) != len(self.subset):
            raise ValueError(
                f"need one threshold per coordinate of {self.subset}, "
                f"got {len(self.thresholds)}"
            )


@dataclass(frozen=True)
class AtLeastI:
    """At least ``level`` coordinates exceed their componentwise thresholds."""

    thresholds: tuple[float, ...]
    level: int

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds", _positive_tuple(self.thresholds, "thresholds")
        )
        if not (isinstance(self.level, int) and 1 <= self.level <= len(self.thresholds)):
            raise ValueError(
                f"level must be an integer in 1..{len(self.thresholds)}, "
                f"got {self.level!r}"
            )


@dataclass(frozen=True)
class ComplementBox:
    """Complement of the box [0, x]: some coordinate exceeds its threshold."""

    thresholds: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "thresholds", _positive_tuple(self.thresholds, "thresholds")
        )


TailSetSpec = Union[Rectangular, AtLeastI, ComplementBox]


def _check_dimension(tail_set: TailSetSpec, dim: int) -> None:
    """Raise unless tail_set describes coordinates of a dim-dimensional vector."""
    if isinstance(tail_set, Rectangular):
        tail_set.subset.validate_within(dim)
    elif isinstance(tail_set, (AtLeastI, ComplementBox)):
        if len(tail_set.thresholds) != dim:
            raise ValueError(f"need {dim} thresholds, got {len(tail_set.thresholds)}")
    else:
        raise TypeError(f"unsupported tail set specification: {tail_set!r}")


def _normal_event(
    tail_set: TailSetSpec, dim: int, alpha: float, ts
) -> tuple[np.ndarray, int, np.ndarray]:
    """The tail set scaled by each t of ts, as an event on the normal rows Z
    of the exact Pareto(alpha) model X_j = survival(Z_j)^{-1/alpha}.

    Returns (indices S, count k, thresholds c): X is in t_m * set exactly
    when at least k of the Z_j, j in S, exceed c[j, m] = -Phi^{-1}((t_m x_j)^{-alpha}).
    A coordinate with t_m x_j <= 1 always exceeds (c = -inf). Each row of c
    is nondecreasing in t, as the events are nested: rounding in the power
    and in ndtri can lower a threshold by an ulp between grid points a few
    ulps apart, and the running maximum undoes that.
    """
    _check_dimension(tail_set, dim)
    if isinstance(tail_set, Rectangular):
        indices, k = tail_set.subset.as_indices(), len(tail_set.subset)
    else:
        indices = np.arange(dim)
        k = 1 if isinstance(tail_set, ComplementBox) else tail_set.level
    survival = np.power(np.outer(tail_set.thresholds, ts), -alpha)
    return indices, k, np.maximum.accumulate(-ndtri(np.minimum(1.0, survival)), axis=1)


@dataclass(frozen=True)
class ContributingSet:
    """One exceedance set's share of an estimate.

    subset/active_set are None for a bare marginal contribution with no
    attached coordinate label.
    """

    subset: Optional[IndexSubset]
    active_set: Optional[IndexSubset]
    gamma: float
    log_constant: float


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Decay law log P ~ log_constant + beta log(2 alpha log t) - a log t.

    power_exponent is a, log_log_exponent is beta.
    """

    log_constant: float
    power_exponent: float
    log_log_exponent: float
    alpha: float
    contributing_sets: tuple[ContributingSet, ...]

    def __post_init__(self):
        _positive_real(self.power_exponent, "power_exponent")
        _positive_real(self.alpha, "alpha")
        _finite_real(self.log_log_exponent, "log_log_exponent")
        _finite_real(self.log_constant, "log_constant")

    def evaluate_log(self, t: float) -> float:
        """Log of the approximation at scale t; guarded to t >= 10."""
        _require_eval_t(t, "asymptotic evaluation")
        return (
            self.log_constant
            + self.log_log_exponent * math.log(2.0 * self.alpha * math.log(t))
            - self.power_exponent * math.log(t)
        )

    def decays_faster_than(self, other: "AsymptoticEstimate") -> bool:
        """True when self/other -> 0 as t grows (self is log-subdominant)."""
        gap = self.power_exponent - other.power_exponent
        if abs(gap) > 1e-12 * max(1.0, abs(other.power_exponent)):
            return gap > 0
        return self.log_log_exponent < other.log_log_exponent - 1e-12


@dataclass(frozen=True)
class TailCoefficients:
    """Structural tail data of one exceedance set: its QP value gamma, active
    set, weights h (parallel to active_set), and tail constant."""

    subset: IndexSubset
    gamma: float
    active_set: IndexSubset
    h: np.ndarray
    upsilon: UpsilonResult

    def __post_init__(self):
        gap = abs(float(np.sum(self.h)) - self.gamma)
        if gap > H_SUM_TOLERANCE:
            raise ValueError(
                f"weights of {self.subset} sum to gamma within {H_SUM_TOLERANCE:g} "
                f"by identity; got gap {gap:.3e}"
            )


def subset_coefficients(sigma: CorrelationMatrix, subset: IndexSubset) -> TailCoefficients:
    """Solve the sub-QP for one coordinate subset and attach its tail constant."""
    sol = subset_solver(sigma).solve(subset)
    return TailCoefficients(
        subset=subset,
        gamma=sol.gamma,
        active_set=sol.active_set,
        h=sol.h,
        upsilon=upsilon(sigma, sol),
    )


def _log_scale(gamma: float, marg: MarginalSpec) -> float:
    """Scale part of a set constant: log((2 pi)^{gamma/2} scale_c^{-gamma})."""
    return 0.5 * gamma * LOG_TWO_PI - gamma * math.log(marg.scale_c)


def _log_mass(coeff: TailCoefficients, marg: MarginalSpec, thresholds) -> float:
    """Mass part of a set constant: log(Upsilon_S prod_{i in I_S} x_i^{-alpha h_i}),
    with thresholds parallel to coeff.subset."""
    pos = coeff.active_set.positions_in(coeff.subset)
    log_x_active = np.log(np.asarray(thresholds))[pos]
    return coeff.upsilon.log_upsilon - marg.alpha * float(coeff.h @ log_x_active)


def rect_tail_asymptotic(
    sigma: CorrelationMatrix, marg: MarginalSpec, rect: Rectangular
) -> AsymptoticEstimate:
    """Decay law of P(X_s > t x_s for all s in subset), |subset| >= 2.

    a = alpha gamma_S, beta = (gamma_S - |I_S|)/2, and the constant folds
    Upsilon_S, (2 pi)^{gamma_S/2}, scale_c^{-gamma_S}, and the active
    thresholds x_s^{-alpha h_s}.
    """
    rect.subset.validate_within(sigma.dim)
    if len(rect.subset) < 2:
        raise ValueError("singleton sets go through marginal_tail")
    coeff = subset_coefficients(sigma, rect.subset)
    log_const = _log_scale(coeff.gamma, marg) + _log_mass(coeff, marg, rect.thresholds)
    return AsymptoticEstimate(
        log_constant=log_const,
        power_exponent=marg.alpha * coeff.gamma,
        log_log_exponent=0.5 * (coeff.gamma - len(coeff.active_set)),
        alpha=marg.alpha,
        contributing_sets=(
            ContributingSet(rect.subset, coeff.active_set, coeff.gamma, log_const),
        ),
    )


def marginal_tail(marg: MarginalSpec, x: float) -> AsymptoticEstimate:
    """Decay law of a single marginal exceedance: x^{-alpha}/scale_c * t^{-alpha}."""
    x = _positive_real(x, "x")
    log_const = -marg.alpha * math.log(x) - math.log(marg.scale_c)
    return AsymptoticEstimate(
        log_constant=log_const,
        power_exponent=marg.alpha,
        log_log_exponent=0.0,
        alpha=marg.alpha,
        contributing_sets=(ContributingSet(None, None, 1.0, log_const),),
    )


@dataclass(frozen=True)
class ConeAnalysis:
    """Which exceedance sets rule the requested simultaneity level.

    gamma is the minimal QP value over subsets of size >= level; alpha the
    cone decay index alpha * gamma; minimizing_family every subset attaining
    it (ties within GAMMA_TIE_REL), ordered by size, then labels;
    min_active_size the smallest active-set size across that family;
    principal_family the members achieving it (only they carry limit mass).
    gamma_next is the minimum over subsets of size >= level + 1 (None at
    level = d).
    """

    level: int
    dim: int
    gamma: float
    alpha: float
    min_active_size: int
    minimizing_family: tuple[IndexSubset, ...]
    principal_family: tuple[IndexSubset, ...]
    coefficients: tuple[TailCoefficients, ...]
    principal_active: IndexSubset
    marginal: MarginalSpec
    gamma_next: Optional[float]

    def log_scaling_inverse(self, t: float) -> float:
        """Log of the cone-level normalization 1/b_level(t); t >= 10."""
        _require_eval_t(t, "cone scaling")
        loglog = math.log(2.0 * self.marginal.alpha * math.log(t))
        return (
            -0.5 * self.gamma * LOG_TWO_PI
            + 0.5 * (len(self.principal_active) - self.gamma) * loglog
            + self.gamma * self.marginal.log_b_inverse(t)
        )


def cone_analysis(sigma: CorrelationMatrix, marg: MarginalSpec, level: int) -> ConeAnalysis:
    """Find the minimizers over all subsets of size >= level.

    gamma_S <= gamma_T for S a subset of T (a Schur complement argument), so
    the minimum over sizes >= level is the minimum over the level-size
    subsets, every tied subset grows from a tied level-size one a coordinate
    at a time through tied subsets, and gamma_next is the minimum over the
    (level + 1)-size subsets. Monotonicity also bounds each subset's gamma
    from below by the subsets one coordinate smaller that are already
    solved (and by 1, a singleton's value); a size scan solves its subsets
    in the order of that bound and stops once the bound passes the running
    minimum (plus the tie tolerance). Each subset is solved at most once per
    matrix through subset_solver, so scanning the levels in increasing
    order, as cmd_analyze does, skips most subsets that cannot tie.
    Capacity-limited to d <= 12: a level solves up to C(d, level) subsets,
    and cmd_analyze scans every level.
    """
    d = sigma.dim
    if d > MAX_ENUMERATION_DIM:
        raise ValueError(f"cone analysis supports d <= {MAX_ENUMERATION_DIM}, got d={d}")
    if not (isinstance(level, int) and 2 <= level <= d):
        raise ValueError(f"level must be an integer in 2..{d}, got {level!r}")
    solver = subset_solver(sigma)
    labels = range(1, d + 1)

    def gamma(combo: tuple[int, ...]) -> float:
        return solver.solve(IndexSubset(combo)).gamma

    def bound(combo: tuple[int, ...]) -> float:
        smaller = (solver.solved(combo[:i] + combo[i + 1 :]) for i in range(len(combo)))
        return max((sol.gamma for sol in smaller if sol is not None), default=1.0)

    def scan(size: int, slack: Callable[[float], float]) -> dict[tuple[int, ...], float]:
        """gamma of every size-subset that can lie within slack(min) of the minimum."""
        found: dict[tuple[int, ...], float] = {}
        best = math.inf
        for low, combo in sorted((bound(c), c) for c in itertools.combinations(labels, size)):
            if low > best + slack(best):
                break
            found[combo] = gamma(combo)
            best = min(best, found[combo])
        return found

    level_gammas = scan(level, lambda g: GAMMA_TIE_REL * max(1.0, g))
    gamma_min = min(level_gammas.values())
    tol = GAMMA_TIE_REL * max(1.0, gamma_min)
    tied = sorted(c for c, g in level_gammas.items() if g <= gamma_min + tol)
    family = list(tied)
    while tied:
        grown = sorted({tuple(sorted(c + (j,))) for c in tied for j in labels if j not in c})
        tied = [c for c in grown if gamma(c) <= gamma_min + tol]
        family += tied
    coeffs = tuple(subset_coefficients(sigma, IndexSubset(c)) for c in family)
    min_active = min(len(c.active_set) for c in coeffs)
    principal = tuple(c.subset for c in coeffs if len(c.active_set) == min_active)
    principal_active = next(
        c.active_set for c in coeffs if len(c.active_set) == min_active
    )
    gamma_next = None
    if level < d:
        gamma_next = min(scan(level + 1, lambda g: 0.0).values())
    return ConeAnalysis(
        level=level,
        dim=d,
        gamma=gamma_min,
        alpha=marg.alpha * gamma_min,
        min_active_size=min_active,
        minimizing_family=tuple(IndexSubset(c) for c in family),
        principal_family=principal,
        coefficients=coeffs,
        principal_active=principal_active,
        marginal=marg,
        gamma_next=gamma_next,
    )


def mu_level_one(marg: MarginalSpec, x) -> float:
    """Limit mass of the box complement under the level-1 scaling: sum x_j^{-alpha}."""
    thresholds = _positive_tuple(x, "x")
    return float(sum(xj ** -marg.alpha for xj in thresholds))


def mu_i_rectangular(cone: ConeAnalysis, rect: Rectangular) -> float:
    """Cone-level limit mass of one rectangular set.

    Nonzero only when the set is in the minimizing family AND its active set
    has the minimal size; every other set is null at this scaling even though
    its own decay law (rect_tail_asymptotic) is nonzero at a faster rate.
    """
    rect.subset.validate_within(cone.dim)
    if len(rect.subset) < cone.level:
        raise ValueError(
            f"set of size {len(rect.subset)} cannot enter the level-{cone.level} cone"
        )
    for coeff in cone.coefficients:
        if coeff.subset.members != rect.subset.members:
            continue
        if len(coeff.active_set) != cone.min_active_size:
            return 0.0
        return math.exp(_log_mass(coeff, cone.marginal, rect.thresholds))
    return 0.0


def _require_level_gap(cone: ConeAnalysis) -> None:
    if cone.gamma_next is None:
        return
    tol = GAMMA_TIE_REL * max(1.0, cone.gamma)
    if cone.gamma_next <= cone.gamma + tol:
        raise UnsupportedDegeneracy(
            f"levels {cone.level} and {cone.level + 1} share the decay value "
            f"gamma = {cone.gamma!r}; the at-least-{cone.level} formula "
            "assumes a strict gap between adjacent levels"
        )


def _at_least_terms(cone: ConeAnalysis, at_least: AtLeastI):
    """(coefficients, log mass) of each minimizer that carries at-least mass:
    subset size equal to the level, minimal active set."""
    x = np.asarray(at_least.thresholds)
    for coeff in cone.coefficients:
        if len(coeff.subset) == cone.level and len(coeff.active_set) == cone.min_active_size:
            yield coeff, _log_mass(coeff, cone.marginal, x[coeff.subset.as_indices()])


def mu_i_at_least(cone: ConeAnalysis, at_least: AtLeastI) -> float:
    """Cone-level limit mass of the at-least-level set: sum of the qualifying
    rectangular masses over minimizers of exactly the cone's level size."""
    if at_least.level != cone.level:
        raise ValueError(
            f"set level {at_least.level} does not match cone level {cone.level}"
        )
    _check_dimension(at_least, cone.dim)
    _require_level_gap(cone)
    return sum((math.exp(log_mass) for _, log_mass in _at_least_terms(cone, at_least)), 0.0)


def _additive_estimate(marg: MarginalSpec, thresholds: tuple[float, ...]) -> AsymptoticEstimate:
    """Union-of-marginals law: joint exceedances are lower order, so the box
    complement decays like the sum of the single-coordinate tails."""
    consts = [marginal_tail(marg, xj).log_constant for xj in thresholds]
    contribs = tuple(
        ContributingSet(IndexSubset.of(j + 1), IndexSubset.of(j + 1), 1.0, c)
        for j, c in enumerate(consts)
    )
    return AsymptoticEstimate(
        log_constant=float(logsumexp(consts)),
        power_exponent=marg.alpha,
        log_log_exponent=0.0,
        alpha=marg.alpha,
        contributing_sets=contribs,
    )


def asymptotic_estimate(
    sigma: CorrelationMatrix, marg: MarginalSpec, tail_set: TailSetSpec
) -> AsymptoticEstimate:
    """Dispatch a tail-set specification to its decay law."""
    _check_dimension(tail_set, sigma.dim)
    if isinstance(tail_set, Rectangular):
        if len(tail_set.subset) == 1:
            return marginal_tail(marg, tail_set.thresholds[0])
        return rect_tail_asymptotic(sigma, marg, tail_set)
    if isinstance(tail_set, ComplementBox) or tail_set.level == 1:
        return _additive_estimate(marg, tail_set.thresholds)
    cone = cone_analysis(sigma, marg, tail_set.level)
    mu = mu_i_at_least(cone, tail_set)
    contribs = tuple(
        ContributingSet(
            coeff.subset,
            coeff.active_set,
            coeff.gamma,
            _log_scale(coeff.gamma, marg) + log_mass,
        )
        for coeff, log_mass in _at_least_terms(cone, tail_set)
    )
    return AsymptoticEstimate(
        log_constant=_log_scale(cone.gamma, marg) + math.log(mu),
        power_exponent=marg.alpha * cone.gamma,
        log_log_exponent=0.5 * (cone.gamma - cone.min_active_size),
        alpha=marg.alpha,
        contributing_sets=contribs,
    )


def tail_probability(
    sigma: CorrelationMatrix,
    marg: MarginalSpec,
    tail_set: TailSetSpec,
    t: float,
) -> tuple[float, AsymptoticEstimate]:
    """Log asymptotic probability that X/t lands in the tail set, plus its law.

    Requires t >= 10 and warns below t = 100; the formulas are limits and the
    simulation module is the finite-t adjudicator.
    """
    _require_eval_t(t, "tail_probability")
    if t < 100.0:
        warnings.warn(
            f"tail probability at t={t:g} < 100 sits at the edge of the "
            "asymptotic regime",
            AsymptoticRegimeWarning,
            stacklevel=2,
        )
    est = asymptotic_estimate(sigma, marg, tail_set)
    return est.evaluate_log(t), est


@dataclass(frozen=True)
class BivariateComparison:
    """Joint-tail decay of a correlated normal pair next to its heavy-tailed
    copula twin at the same thresholds. gaussian_log_asym is None when the
    joint-dominated closed form is stated only for nonnegative correlation."""

    gaussian_regime: str
    gaussian_log_asym: Optional[float]
    pareto_log_asym: float


def bivariate_comparison(
    rho: float, alpha: float, x1: float, x2: float, t: float
) -> BivariateComparison:
    """Compare P(Z1 > t x1, Z2 > t x2) with its Pareto-marginal counterpart.

    The normal side switches regime on rho versus min(x1/x2, x2/x1): below it
    both coordinates must stretch jointly; above it the larger threshold's
    exceedance drags the other along and only the worst margin matters. The
    heavy-tailed side never switches; its decay exponent 2 alpha/(1+rho)
    moves continuously with rho.
    """
    if not (isinstance(rho, (int, float)) and -1.0 < rho < 1.0):
        raise ValueError(f"rho must lie in (-1, 1), got {rho!r}")
    alpha = _positive_real(alpha, "alpha")
    x1 = _positive_real(x1, "x1")
    x2 = _positive_real(x2, "x2")
    _require_t_above_e(t, "comparison")

    ratio = min(x1 / x2, x2 / x1)
    x_max = max(x1, x2)
    if rho < ratio:
        regime = "joint-dominated"
        if rho >= 0.0:
            x_rho_sq = (x1 * x1 - 2.0 * rho * x1 * x2 + x2 * x2) / (1.0 - rho * rho)
            gaussian = (
                1.5 * math.log1p(-rho * rho)
                - math.log((x1 - rho * x2) * (x2 - rho * x1))
                - LOG_TWO_PI
                - 0.5 * t * t * x_rho_sq
                - 2.0 * math.log(t)
            )
        else:
            gaussian = None
    elif rho > ratio:
        regime = "margin-dominated"
        gaussian = -0.5 * LOG_TWO_PI - 0.5 * (t * x_max) ** 2 - math.log(t * x_max)
    else:
        regime = "boundary"
        gaussian = (
            math.log(0.5)
            - 0.5 * LOG_TWO_PI
            - 0.5 * (t * x_max) ** 2
            - math.log(t * x_max)
        )

    pareto = (
        -(2.0 * alpha / (1.0 + rho)) * math.log(t)
        - (rho / (1.0 + rho)) * math.log(2.0 * alpha * math.log(t))
        - (rho / (1.0 + rho)) * LOG_TWO_PI
        + 1.5 * math.log1p(rho)
        - 0.5 * math.log1p(-rho)
        - (alpha / (1.0 + rho)) * math.log(x1 * x2)
    )
    return BivariateComparison(regime, gaussian, pareto)
