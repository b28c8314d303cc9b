"""Asymptotic tail probabilities for heavy-tailed vectors with normal dependence.

The model: each coordinate has survival function ~ s^{-alpha} / scale_c and the
joint law is a multivariate normal copula with correlation matrix Sigma. Every
tail set is one TailSet: at least k of the coordinates in a subset S exceed
their thresholds (a rectangle, "at least i of d", or the complement of a box).
At scale t its probability decays like

    constant * (2 alpha log t)^beta * t^{-a},

and this module computes (constant, a, beta) exactly from the structural QP
solutions of the exceedance sets inside S: a = alpha * gamma, beta =
(gamma - |I|)/2, and the constant combines the tail constants Upsilon_T with
the thresholds weighted by h. Everything is carried in log space. The
normal quantile matched to the marginal tail (rv_quantile_expansion) and the
bivariate normal-versus-Pareto comparison live here too.
"""

from __future__ import annotations

import math
import reprlib
import weakref
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .gaussian import (
    LOG_TWO_PI,
    TailCoefficients,
    UnsupportedDegeneracy,
    _finite_real,
    _integer,
    _positive_real,
    _real_or_nan,
    upsilon,
)
from .linalg import CorrelationMatrix, IndexSubset
from .qp import QpSolution, subset_solver

# Two QP values tie (same cone family) when they differ by less than this,
# relative to max(1, gamma). Membership is a discrete decision fed by
# floating-point output; exact block-diagonal ties must be detected.
GAMMA_TIE_REL = 1e-9

MIN_EVAL_T = 10.0

# The largest coordinate set a cone scan covers below its top level: a level
# k bounds all C(d, k) subsets at once on the stack of their principal
# blocks (at d = 16, at most C(16, 8) blocks of 8 x 8 floats, 6.6 MB).
MAX_ENUMERATION_DIM = 16


def _require_eval_t(t, what: str) -> None:
    """Every limit formula is evaluated only at finite t >= MIN_EVAL_T."""
    if not _finite_real(t, "t") >= MIN_EVAL_T:
        raise ValueError(f"{what} is guarded to t >= {MIN_EVAL_T:g}, got {reprlib.repr(t)}")


def _logsumexp(values) -> float:
    """log(sum(exp(v))) over a short nonempty list, shifted by its largest
    entry: that entry's term is the 1 of log1p, and the others are summed
    exactly (math.fsum). A largest entry that is not finite is the result
    (-inf when every entry is -inf)."""
    values = list(values)
    top = max(values)
    if not math.isfinite(top):
        return top
    values.remove(top)
    return top + math.log1p(math.fsum(math.exp(v - top) for v in values))


def _positive_tuple(values, name: str) -> tuple[float, ...]:
    out = tuple(_finite_real(v, name) for v in values)
    if len(out) == 0:
        raise ValueError(f"{name} must be nonempty")
    for v in out:
        if not v > 0:
            raise ValueError(f"{name} must be strictly positive reals, got {reprlib.repr(v)}")
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


def rv_quantile_expansion(marg: MarginalSpec, x: float, t: float) -> float:
    """Second-order approximation of the normal quantile matched to the
    marginal tail at t x: Phi^{-1}(1 - (t x)^{-alpha} / scale_c).

    Returns sqrt(2 a log t) + [log(c/sqrt(log t)) + log(x^a / (2 sqrt(pi a)))]
    / sqrt(2 a log t), with a = alpha and c = scale_c; t > e. Error decays
    like 1/log t.
    """
    x = _positive_real(x, "x")
    if not _finite_real(t, "t") > math.e:
        raise ValueError(f"quantile expansion needs t > e, got t={reprlib.repr(t)}")
    lead = math.sqrt(2.0 * marg.alpha * math.log(t))
    correction = math.log(marg.scale_c / math.sqrt(math.log(t))) + math.log(
        x**marg.alpha / (2.0 * math.sqrt(math.pi * marg.alpha))
    )
    return lead + correction / lead


@dataclass(frozen=True)
class TailSet:
    """The event that at least k of the coordinates in subset exceed their
    thresholds (one per member of subset, in label order); k is the set's
    level.

    The paper's three kinds of tail set are all of this form: a rectangle
    {y_s > x_s for every s in S} is k = |S|, "at least i of d" is S = 1..d
    with k = i, and the complement of the box [0, x] is S = 1..d with k = 1.
    """

    subset: IndexSubset
    thresholds: tuple[float, ...]
    k: int

    def __post_init__(self):
        if not isinstance(self.subset, IndexSubset):
            raise ValueError(f"subset must be an IndexSubset, got {reprlib.repr(self.subset)}")
        thresholds = _positive_tuple(self.thresholds, "thresholds")
        object.__setattr__(self, "thresholds", thresholds)
        size = len(self.subset)
        if len(thresholds) != size:
            raise ValueError(
                f"need {size} thresholds, one threshold per coordinate of "
                f"{self.subset}, got {len(thresholds)}"
            )
        object.__setattr__(self, "k", _integer(self.k, "level", 1, size))


@dataclass(frozen=True)
class ContributingSet:
    """One exceedance set's share of an estimate."""

    subset: IndexSubset
    active_set: IndexSubset
    gamma: float
    log_constant: float


@dataclass(frozen=True)
class AsymptoticEstimate:
    """Decay law log P ~ log_constant + beta log(2 alpha log t) - a log t.

    power_exponent is a, log_log_exponent is beta; min_threshold is the
    least threshold of the set, which bounds the law's regime in t.
    """

    log_constant: float
    power_exponent: float
    log_log_exponent: float
    alpha: float
    contributing_sets: tuple[ContributingSet, ...]
    min_threshold: float

    def __post_init__(self):
        _positive_real(self.power_exponent, "power_exponent")
        _positive_real(self.alpha, "alpha")
        _finite_real(self.log_log_exponent, "log_log_exponent")
        _finite_real(self.log_constant, "log_constant")
        _positive_real(self.min_threshold, "min_threshold")

    def evaluate_log(self, t: float) -> float:
        """Log of the approximation at scale t; guarded to t >= 10. Raises
        ValueError when it is not finite (a huge alpha), above 0 (a
        probability above 1), or when t * min_threshold <= 1: below the
        Pareto support's lower end a coordinate exceeds surely."""
        _require_eval_t(t, "asymptotic evaluation")
        log_p = (
            self.log_constant
            + self.log_log_exponent * math.log(2.0 * self.alpha * math.log(t))
            - self.power_exponent * math.log(t)
        )
        if not math.isfinite(log_p):
            raise ValueError(
                f"the log probability at t = {t!r} is not a finite float at alpha = {self.alpha!r}"
            )
        if log_p > 0.0:
            why = f"the log probability at t = {t!r} is {log_p!r}, above 0"
        elif t * self.min_threshold <= 1.0:
            why = f"t * min(thresholds) = {t!r} * {self.min_threshold!r} is at most 1"
        else:
            return log_p
        raise ValueError(f"{why}: the limit law does not apply at these thresholds; raise them or t")

    def decays_faster_than(self, other: "AsymptoticEstimate") -> bool:
        """True when self/other -> 0 as t grows (self is log-subdominant)."""
        gap = self.power_exponent - other.power_exponent
        if abs(gap) > 1e-12 * max(1.0, abs(other.power_exponent)):
            return gap > 0
        return self.log_log_exponent < other.log_log_exponent - 1e-12


# Tail coefficients of each subset, per matrix: computed once, and released
# together with the matrix, as subset_solver's solutions are.
_COEFFICIENTS: weakref.WeakKeyDictionary[
    CorrelationMatrix, dict[tuple[int, ...], TailCoefficients]
] = weakref.WeakKeyDictionary()


def subset_coefficients(sigma: CorrelationMatrix, subset: IndexSubset) -> TailCoefficients:
    """upsilon of the sub-QP solution of one coordinate subset; each subset
    of a matrix is computed once."""
    cached = _COEFFICIENTS.setdefault(sigma, {})
    coeff = cached.get(subset.members)
    if coeff is None:
        coeff = cached[subset.members] = upsilon(sigma, subset_solver(sigma).solve(subset))
    return coeff


def _log_scale(gamma: float, marg: MarginalSpec) -> float:
    """Scale part of a set constant: log((2 pi)^{gamma/2} scale_c^{-gamma})."""
    return 0.5 * gamma * LOG_TWO_PI - gamma * math.log(marg.scale_c)


def _log_mass(coeff: TailCoefficients, marg: MarginalSpec, thresholds) -> float:
    """Mass part of a set constant: log(Upsilon_S prod_{i in I_S} x_i^{-alpha h_i}),
    with thresholds parallel to coeff.solution.support."""
    sol = coeff.solution
    log_x_active = np.log(np.asarray(thresholds))[sol.active_set.positions_in(sol.support)]
    return coeff.log_upsilon - marg.alpha * float(sol.h @ log_x_active)


@dataclass(frozen=True)
class ConeAnalysis:
    """Which exceedance sets rule the requested simultaneity level.

    gamma is the minimal QP value over subsets of size >= level;
    coefficients are those of every subset attaining it (ties within
    GAMMA_TIE_REL), the minimizing family, ordered by size, then labels;
    min_active_size, derived from them, is the smallest active-set size
    across that family. The next level ties this one exactly when the
    family has a member of size > level. The cone's decay index is
    alpha * gamma.
    """

    level: int
    gamma: float
    min_active_size: int = field(init=False)
    coefficients: tuple[TailCoefficients, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "min_active_size", min(len(c.solution.active_set) for c in self.coefficients)
        )

    def principal(self) -> tuple[TailCoefficients, ...]:
        """The members with the smallest active set: only they carry limit mass."""
        return tuple(
            c for c in self.coefficients if len(c.solution.active_set) == self.min_active_size
        )

    def carriers(self, tail_set: TailSet) -> tuple[TailCoefficients, ...]:
        """The principal members of size k inside the set's subset: the sets
        that carry its limit mass at this cone's scale (level k). None means
        the set is null at that scale: it decays faster than the cone."""
        inside = set(tail_set.subset.members)
        return tuple(
            c
            for c in self.principal()
            if len(c.solution.support) == tail_set.k
            and inside.issuperset(c.solution.support.members)
        )


def cone_analysis(sigma: CorrelationMatrix, level: int) -> ConeAnalysis:
    """Find the minimizers over all subsets of size >= level.

    gamma_S <= gamma_T for S a subset of T (a Schur complement argument), so
    the minimum over sizes >= level is the minimum over the level-size
    subsets, and a size with no tied subset has no tied superset either.
    Each size is bounded from below at once by weak duality
    (SubsetQpSolver.dual_bounds, computed once per matrix); a size scan
    solves its subsets in increasing bound order and stops once the bound
    passes the running minimum (plus the tie tolerance), or the tie window
    of the minimum for the larger members of the family. The minimum and
    the family are the solver's values, so they equal those of solving
    every subset; the next level's gamma is cone_analysis(sigma, level + 1).
    Below level d it needs d <= MAX_ENUMERATION_DIM = 16 (see _cone).
    """
    level = _integer(level, "level", 2, sigma.dim)
    return _cone(sigma, level, IndexSubset.full(sigma.dim))


def _cone(sigma: CorrelationMatrix, level: int, scanned: IndexSubset) -> ConeAnalysis:
    """cone_analysis over the subsets of scanned only: the cone of "at least
    level of scanned". Below level |scanned| a level bounds all
    C(|scanned|, level) subsets, so more than MAX_ENUMERATION_DIM = 16
    scanned coordinates raise ValueError; this is the one dimension cap of
    the cone scan, and every caller (cone_analysis, asymptotic_estimate,
    limit_mass) reaches it here. At level = |scanned| it is the one subset
    scanned, which has no cap. Only here is GAMMA_TIE_REL applied (the tie
    window)."""
    if level < len(scanned) and len(scanned) > MAX_ENUMERATION_DIM:
        raise ValueError(
            f"cone analysis supports d <= {MAX_ENUMERATION_DIM}, got d={len(scanned)}"
        )
    solver = subset_solver(sigma)
    labels = scanned.members

    def scan(size: int, limit: Callable[[float], float]) -> dict[tuple[int, ...], float]:
        """gamma of every size-subset whose dual bound is at most limit(best),
        best the least gamma found so far; subsets go in increasing bound order."""
        found: dict[tuple[int, ...], float] = {}
        best = math.inf
        subsets, bounds = solver.dual_bounds(labels, size)
        for row, low in zip(subsets, bounds):
            if low > limit(best):
                break
            combo = tuple(row.tolist())
            found[combo] = solver.solve(IndexSubset(combo)).gamma
            best = min(best, found[combo])
        return found

    found = scan(level, lambda best: best + GAMMA_TIE_REL * max(1.0, best))
    gamma_min = min(found.values())
    tie = gamma_min + GAMMA_TIE_REL * max(1.0, gamma_min)
    family: list[tuple[int, ...]] = []
    for size in range(level, len(labels) + 1):
        if size > level:
            found = scan(size, lambda best: tie)
        tied = sorted(c for c, g in found.items() if g <= tie)
        if not tied:
            break
        family += tied
    return ConeAnalysis(
        level=level,
        gamma=gamma_min,
        coefficients=tuple(subset_coefficients(sigma, IndexSubset(c)) for c in family),
    )


def _log_masses(
    cone: ConeAnalysis, marg: MarginalSpec, tail_set: TailSet
) -> list[tuple[QpSolution, float]]:
    """(QP solution, log mass) of each carrier of the set in the level-k
    cone. Below k = |S| the formula needs a strict gap to level k + 1, so a
    cone whose family (ordered by size) ends in a member larger than k is
    refused."""
    largest = cone.coefficients[-1].solution.support
    if tail_set.k < len(tail_set.subset) and len(largest) > cone.level:
        raise UnsupportedDegeneracy(
            f"levels {cone.level} and {cone.level + 1} share the decay value "
            f"gamma = {cone.gamma!r}; the at-least-{cone.level} formula "
            "assumes a strict gap between adjacent levels"
        )
    x = np.asarray(tail_set.thresholds)
    return [
        (c.solution, _log_mass(c, marg, x[c.solution.support.positions_in(tail_set.subset)]))
        for c in cone.carriers(tail_set)
    ]


def limit_mass(sigma: CorrelationMatrix, marg: MarginalSpec, tail_set: TailSet) -> float:
    """Limit mass of the tail set under the scaling of its level k.

    At k = 1 the scaling is the marginal one and the mass is
    sum_{j in S} x_j^{-alpha}. At k >= 2 the scaling is that of the level-k
    cone over all coordinates (cone_analysis(sigma, k)); the mass sums the
    rectangular masses Upsilon_T prod_{i in I_T} x_i^{-alpha h_i} of the
    set's carriers T in that cone, and is 0 for a set with no carrier, whose
    own decay law (asymptotic_estimate) is nonzero at a faster rate. Below
    the top level k = d that cone is _cone's scan over all d coordinates,
    so it needs d <= MAX_ENUMERATION_DIM = 16 even for a rectangle, whose
    decay law reaches d = 64. A larger d at 2 <= k < d and a mass past the
    largest float (a huge alpha) raise ValueError.
    """
    tail_set.subset.validate_within(sigma.dim)
    try:
        if tail_set.k == 1:
            mass = float(sum(xj ** -marg.alpha for xj in tail_set.thresholds))
        else:
            cone = _cone(sigma, tail_set.k, IndexSubset.full(sigma.dim))
            terms = _log_masses(cone, marg, tail_set)
            mass = sum((math.exp(log_mass) for _, log_mass in terms), 0.0)
    except OverflowError:  # x ** -alpha or exp past the largest float
        mass = math.inf
    if mass == math.inf:
        raise ValueError(f"the limit mass is past the largest float at alpha = {marg.alpha!r}")
    return mass


def _additive_estimate(marg: MarginalSpec, tail_set: TailSet) -> AsymptoticEstimate:
    """Union-of-marginals law: joint exceedances are lower order, so "at
    least 1 of S" decays like the sum of its single-coordinate tails
    x_j^{-alpha} t^{-alpha} / scale_c."""
    contribs = tuple(
        ContributingSet(
            IndexSubset.of(j),
            IndexSubset.of(j),
            1.0,
            -marg.alpha * math.log(xj) - math.log(marg.scale_c),
        )
        for j, xj in zip(tail_set.subset, tail_set.thresholds)
    )
    return AsymptoticEstimate(
        log_constant=_logsumexp([c.log_constant for c in contribs]),
        power_exponent=marg.alpha,
        log_log_exponent=0.0,
        alpha=marg.alpha,
        contributing_sets=contribs,
        min_threshold=min(tail_set.thresholds),
    )


def asymptotic_estimate(
    sigma: CorrelationMatrix, marg: MarginalSpec, tail_set: TailSet
) -> AsymptoticEstimate:
    """Decay law of P(X in t * tail_set).

    k = 1 is the additive law of the coordinates in S. For k >= 2 the
    level-k cone over the subsets of S rules: a = alpha gamma and
    beta = (gamma - |I|)/2, with gamma its minimal QP value and |I| its
    minimal active size, and the constant is (2 pi)^{gamma/2}
    scale_c^{-gamma} times the sum of the carriers' rectangular masses,
    summed in log space. A rectangle (k = |S|) has the one carrier S, so
    its constant folds Upsilon_S, (2 pi)^{gamma_S/2}, scale_c^{-gamma_S}
    and the active thresholds x_s^{-alpha h_s}. An a past the largest
    float (a huge alpha) is refused by AsymptoticEstimate as a ValueError.
    """
    tail_set.subset.validate_within(sigma.dim)
    if tail_set.k == 1:
        return _additive_estimate(marg, tail_set)
    cone = _cone(sigma, tail_set.k, tail_set.subset)
    terms = _log_masses(cone, marg, tail_set)
    return AsymptoticEstimate(
        log_constant=_log_scale(cone.gamma, marg) + _logsumexp([m for _, m in terms]),
        power_exponent=marg.alpha * cone.gamma,
        log_log_exponent=0.5 * (cone.gamma - cone.min_active_size),
        alpha=marg.alpha,
        contributing_sets=tuple(
            ContributingSet(s.support, s.active_set, s.gamma, _log_scale(s.gamma, marg) + m)
            for s, m in terms
        ),
        min_threshold=min(tail_set.thresholds),
    )


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
    moves continuously with rho. That side is asymptotic_estimate's law of
    the rectangle {1, 2} at (x1, x2) under exact-Pareto marginals of index
    alpha, evaluated at t: so t >= 10, the law's regime rule refuses a
    probability above 1 and t min(x1, x2) <= 1, and 1 - rho^2 must pass
    CorrelationMatrix's pivot tolerance.
    """
    if not -1.0 < _real_or_nan(rho) < 1.0:
        raise ValueError(f"rho must lie in (-1, 1), got {rho!r}")
    rho = float(rho)
    marg = MarginalSpec(alpha)
    x1 = _positive_real(x1, "x1")
    x2 = _positive_real(x2, "x2")
    sigma = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
    both = TailSet(IndexSubset.of(1, 2), (x1, x2), 2)
    pareto = asymptotic_estimate(sigma, marg, both).evaluate_log(t)

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

    return BivariateComparison(regime, gaussian, pareto)
