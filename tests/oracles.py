"""Slow, independent references the library is checked against.

None of these routines is on any library path: the grid search re-derives
the QP value without the active-set algebra, the enumeration makes the QP's
discrete decisions by ranking every candidate active set, the full cone scan
finds the cone minimizers without pruning, the level tie compares the
minima of two sizes over every subset, the quadrature computes small
normal joint tails without the asymptotic expansion, the bivariate
rectangle law is written out in closed form at d = 2, so is the cone-level
normalization that turns a decay law into its limit mass, and the scaling
statistic counts tail-set hits on Pareto-scale rows instead of on the
normal rows that verify_asymptotics counts, and the masked event hits count
those normal-row events with one mask per grid point instead of by grid
rank. The conditional curves are
counted with one pair of boolean masks per cell instead of by binning each
value once, the Hill curve sorts the whole series, and the sampler's blocks
are drawn one after another in one thread, each into a new array.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import ndtr

import artifact.qp as qp
from artifact.asymptotics import (
    GAMMA_TIE_REL,
    ConeAnalysis,
    MarginalSpec,
    TailSet,
    subset_coefficients,
)
from artifact.linalg import CorrelationMatrix, IndexSubset, solve_spd, spd_factorize
from artifact.qp import QpSolution
from artifact.simulate import (
    BLOCK_ROWS,
    ConditionalCurve,
    HillCurve,
    SimulationConfig,
    _block_rng,
    _increasing_grid,
    resolve_k_grid,
)

# exp(-z^2/2) underflows past |z| ~ 38.6; quadrature never needs to look beyond.
_NORMAL_SUPPORT = 40.0


def normal_pdf(z: float) -> float:
    """Standard normal density."""
    return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def brute_force_qp(
    sigma: CorrelationMatrix, grid_halfwidth: float, grid_step: float
) -> tuple[float, np.ndarray]:
    """Grid-search oracle for solve_qp.

    Minimizes z' Sigma^{-1} z over the lattice {1, 1+step, ..., 1+halfwidth}^d.
    The returned value is within O(step^2) of gamma when the true minimizer
    lies inside the grid box (the objective is flat to first order on the
    inactive coordinates and the active ones sit exactly on a grid point).
    Returns (approximate gamma, approximate minimizer); d <= 4 (grid cost).
    """
    if sigma.dim > 4:
        raise ValueError("brute_force_qp is a d <= 4 oracle")
    if grid_step <= 0 or grid_halfwidth <= 0:
        raise ValueError("grid_step and grid_halfwidth must be positive")
    d = sigma.dim
    precision = solve_spd(spd_factorize(sigma), np.eye(d))
    vals = 1.0 + grid_step * np.arange(int(np.floor(grid_halfwidth / grid_step)) + 1)

    if d == 1:
        return float(precision[0, 0]), np.array([1.0])

    rest = np.stack(
        [g.ravel() for g in np.meshgrid(*([vals] * (d - 1)), indexing="ij")], axis=1
    )
    quad_rest = np.einsum("ij,jk,ik->i", rest, precision[1:, 1:], rest)
    cross = rest @ precision[0, 1:]
    best_val = np.inf
    best_z = None
    for z1 in vals:
        total = quad_rest + 2.0 * z1 * cross + precision[0, 0] * z1 * z1
        pos = int(np.argmin(total))
        if total[pos] < best_val:
            best_val = float(total[pos])
            best_z = np.concatenate(([z1], rest[pos]))
    return best_val, best_z


def _normal_tail_integral(g, b: float) -> float:
    """Integral of phi(z) g(z) over z > b, to a relative 1e-12.

    For b > 0 it integrates phi(b) exp(-s^2/2 - b s) g(b + s) over s >= 0
    with a purely relative criterion, so the accuracy does not decay with
    the size of the tail; for b <= 0 the integral is O(1) and the plain form
    is used.
    """
    if b <= 0.0:
        value, _ = integrate.quad(
            lambda z: normal_pdf(z) * g(z),
            max(b, -_NORMAL_SUPPORT), _NORMAL_SUPPORT, epsabs=1e-16, epsrel=1e-12, limit=400,
        )
        return value
    value, _ = integrate.quad(
        lambda s: math.exp(-0.5 * s * s - b * s) * g(b + s),
        0.0, _NORMAL_SUPPORT, epsabs=0.0, epsrel=1e-12, limit=400,
    )
    return normal_pdf(b) * value


def _survival2_std(b1: float, b2: float, r: float) -> float:
    """P(Z1 > b1, Z2 > b2) for standard bivariate normal with correlation r."""
    if b1 >= _NORMAL_SUPPORT or b2 >= _NORMAL_SUPPORT:
        return 0.0
    if abs(r) >= 1.0 - 1e-12:
        if r > 0:
            return float(ndtr(-max(b1, b2)))
        return max(0.0, float(ndtr(-b2)) - float(ndtr(b1)))
    if b2 > b1:
        b1, b2 = b2, b1
    sd = math.sqrt(1.0 - r * r)
    return _normal_tail_integral(lambda z: float(ndtr(-(b2 - r * z) / sd)), b1)


def joint_tail_quadrature(sigma: CorrelationMatrix, u: float) -> float:
    """P(Z_1 > u, ..., Z_d > u) by adaptive quadrature, d <= 3.

    Deterministic oracle for gaussian_joint_tail, accurate to a relative
    ~1e-9 however small the tail. Dimension capped at 3 (nested quadrature
    cost).
    """
    d = sigma.dim
    if d > 3:
        raise ValueError("quadrature oracle supports d <= 3")
    if u >= _NORMAL_SUPPORT:
        return 0.0
    entries = sigma.entries
    if d == 1:
        return float(ndtr(-u))
    if d == 2:
        return _survival2_std(u, u, float(entries[0, 1]))

    rho12, rho13, rho23 = float(entries[0, 1]), float(entries[0, 2]), float(entries[1, 2])
    sd2 = math.sqrt(1.0 - rho12 * rho12)
    sd3 = math.sqrt(1.0 - rho13 * rho13)
    r_cond = min(1.0, max(-1.0, (rho23 - rho12 * rho13) / (sd2 * sd3)))

    def conditional(z: float) -> float:
        return _survival2_std((u - rho12 * z) / sd2, (u - rho13 * z) / sd3, r_cond)

    return _normal_tail_integral(conditional, u)


def bivariate_rectangle_log_law(rho: float, alpha: float, x1: float, x2: float, t: float) -> float:
    """The decay law of the rectangle {1, 2} at (x1, x2) in closed form for a
    pair with correlation rho and exact-Pareto marginals of index alpha, at
    scale t: gamma = 2/(1 + rho), both coordinates active with weights
    h = 1/(1 + rho), and Upsilon = (2 pi)^{-1} (1 + rho)^2 / sqrt(1 - rho^2)."""
    return (
        -(2.0 * alpha / (1.0 + rho)) * math.log(t)
        - (rho / (1.0 + rho)) * math.log(2.0 * alpha * math.log(t))
        - (rho / (1.0 + rho)) * math.log(2.0 * math.pi)
        + 1.5 * math.log1p(rho)
        - 0.5 * math.log1p(-rho)
        - (alpha / (1.0 + rho)) * math.log(x1 * x2)
    )


def enumeration_qp(sigma: CorrelationMatrix, subset: IndexSubset) -> QpSolution:
    """Enumeration oracle for SubsetQpSolver.solve, |subset| <= 8.

    Ranks every nonempty candidate active set I of the subset by
    (value 1' Sigma_I^{-1} 1, size, labels) and accepts the first whose
    weights h = Sigma_I^{-1} 1 all exceed H_TOLERANCE and whose assembled
    point Sigma_{JI} h on the inactive coordinates J is >= 1 - BOUNDARY_EPS,
    and takes as its boundary set the j in J within BOUNDARY_EPS of 1.
    A feasible candidate's point attains its value, so the first feasible
    one is the minimizer. The arithmetic of each candidate is the library's
    (spd_factorize, solve_spd, the same products), so a solution that makes
    the same decisions matches it bit for bit.
    """
    if len(subset) == 0 or len(subset) > 8:
        raise ValueError(f"enumeration_qp is a 1 <= |S| <= 8 oracle, got {subset}")
    entries = sigma.entries
    ranked = []
    for size in range(1, len(subset) + 1):
        for combo in itertools.combinations(subset.members, size):
            idx = np.asarray(combo, dtype=int) - 1
            h = solve_spd(spd_factorize(entries[np.ix_(idx, idx)]), np.ones(size))
            ranked.append((float(np.sum(h)), size, combo, h))
    ranked.sort(key=lambda item: item[:3])
    for value, _, combo, h in ranked:
        if not np.min(h) > qp.H_TOLERANCE:
            continue
        inactive = tuple(m for m in subset.members if m not in combo)
        e_star = np.ones(len(subset))
        boundary = ()
        if inactive:
            rows = np.asarray(inactive, dtype=int) - 1
            cols = np.asarray(combo, dtype=int) - 1
            e_inactive = entries[np.ix_(rows, cols)] @ h
            if np.min(e_inactive) < 1.0 - qp.BOUNDARY_EPS:
                continue
            e_star[IndexSubset(inactive).positions_in(subset)] = e_inactive
            boundary = tuple(np.asarray(inactive)[np.abs(e_inactive - 1.0) <= qp.BOUNDARY_EPS])
        return QpSolution(
            gamma=value,
            e_star=e_star,
            active_set=IndexSubset(combo),
            inactive_set=IndexSubset(inactive),
            h=np.array(h),
            support=subset,
            boundary_set=IndexSubset(boundary),
        )
    raise qp.SolverInconsistency(f"no candidate active set is feasible over {subset}")


def full_cone_scan(sigma: CorrelationMatrix, level: int) -> ConeAnalysis:
    """Oracle for cone_analysis: solves every subset of size >= level and
    takes the minimum and the tied family from all of them, without the
    monotonicity of gamma in the subset."""
    d = sigma.dim
    solver = qp.subset_solver(sigma)
    gammas = {
        combo: solver.solve(IndexSubset(combo)).gamma
        for size in range(level, d + 1)
        for combo in itertools.combinations(range(1, d + 1), size)
    }
    gamma_min = min(gammas.values())
    tol = GAMMA_TIE_REL * max(1.0, gamma_min)
    family = sorted((c for c, g in gammas.items() if g <= gamma_min + tol), key=lambda c: (len(c), c))
    return ConeAnalysis(
        level=level,
        gamma=gamma_min,
        coefficients=tuple(subset_coefficients(sigma, IndexSubset(c)) for c in family),
    )


def levels_tie(sigma: CorrelationMatrix, level: int) -> bool:
    """Oracle for the level-gap refusal: whether the minimum over every
    (level + 1)-subset is within GAMMA_TIE_REL of the minimum over every
    level-subset, each subset solved, none skipped by a bound."""
    solver = qp.subset_solver(sigma)
    low, high = (
        min(
            solver.solve(IndexSubset(combo)).gamma
            for combo in itertools.combinations(range(1, sigma.dim + 1), size)
        )
        for size in (level, level + 1)
    )
    return high <= low + GAMMA_TIE_REL * max(1.0, low)


def cone_log_scaling_inverse(cone: ConeAnalysis, marg: MarginalSpec, t: float) -> float:
    """Log of the cone-level normalization 1/b_level(t), written out from the
    cone's gamma, its smallest active-set size |I| and the marginal tail:
    -gamma/2 log(2 pi) + (|I| - gamma)/2 log(2 alpha log t)
    + gamma (log scale_c + alpha log t)."""
    loglog = math.log(2.0 * marg.alpha * math.log(t))
    return (
        -0.5 * cone.gamma * math.log(2.0 * math.pi)
        + 0.5 * (cone.min_active_size - cone.gamma) * loglog
        + cone.gamma * (math.log(marg.scale_c) + marg.alpha * math.log(t))
    )


def serial_gaussian_blocks(cfg: SimulationConfig):
    """(first row, block) pairs of the sampler's correlated normal rows, block
    by block in order, each drawn into a new C-ordered array as eta @ L'."""
    factor = np.ascontiguousarray(spd_factorize(cfg.sigma).T)
    for block, start in enumerate(range(0, cfg.n, BLOCK_ROWS)):
        rows = min(BLOCK_ROWS, cfg.n - start)
        yield start, _block_rng(cfg.seed, block).standard_normal((rows, cfg.sigma.dim)) @ factor


def scaling_statistic(samples: np.ndarray, tail_set: TailSet) -> np.ndarray:
    """Per-row scale at which a Pareto-scale row enters the tail set, the
    k-th largest of y_s / x_s over s in S: the event {row in t * set} is
    exactly {statistic > t}."""
    scaled = samples[:, tail_set.subset.as_indices()] / np.asarray(tail_set.thresholds)
    return np.sort(scaled, axis=1)[:, -tail_set.k]


def masked_event_hits(z: np.ndarray, events) -> list[list[int]]:
    """Hits of each normal-row event (S, k, c) at each grid point m: the rows
    where at least k of the z[:, j], j in S, exceed c[j, m], one mask per
    (event, m)."""
    return [
        [
            int(np.count_nonzero(np.count_nonzero(z[:, indices] > c[:, m], axis=1) >= k))
            for m in range(c.shape[1])
        ]
        for indices, k, c in events
    ]


@dataclass(frozen=True)
class EmpiricalTail:
    """Survival estimates over a threshold grid with binomial standard errors."""

    t_values: tuple[float, ...]
    probability: tuple[float, ...]
    se: tuple[float, ...]
    hits: tuple[int, ...]


def empirical_tail(data, t_grid) -> EmpiricalTail:
    """Fraction of data above each threshold, with sqrt(p(1-p)/n) errors."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"data must be one-dimensional, got shape {x.shape}")
    ts = _increasing_grid(t_grid)
    if x.size == 0:
        raise ValueError("data must be nonempty")
    hits = tuple(int(np.count_nonzero(x > t)) for t in ts)
    probs = tuple(h / x.size for h in hits)
    ses = tuple(math.sqrt(p * (1.0 - p) / x.size) for p in probs)
    return EmpiricalTail(ts, probs, ses, hits)


def masked_conditional_curves(samples: np.ndarray, kappas, t_grid) -> list[ConditionalCurve]:
    """P(V1 > t | V2 > kappa t) on columns 1 and 2, one pair of masks per
    (kappa, t) cell; nan where the conditioning event is empty."""
    ts = _increasing_grid(t_grid)
    v1, v2 = samples[:, 0], samples[:, 1]
    curves = []
    for kappa in kappas:
        kappa = float(kappa)
        probs, counts = [], []
        for t in ts:
            cond = v2 > kappa * t
            denom = int(np.count_nonzero(cond))
            joint = int(np.count_nonzero(cond & (v1 > t)))
            probs.append(joint / denom if denom else math.nan)
            counts.append(denom)
        curves.append(ConditionalCurve(kappa, ts, tuple(probs), tuple(counts)))
    return curves


def sorted_hill_estimator(data, k_grid=None) -> HillCurve:
    """Hill curve from the full descending sort of the data."""
    x = np.asarray(data, dtype=float)
    ks = resolve_k_grid(k_grid, x.size)
    top_logs = np.log(np.sort(x)[::-1][: ks[-1] + 1])
    csum = np.cumsum(top_logs)
    kept, alphas, excluded = [], [], []
    for k in ks:
        mean_excess = csum[k - 1] / k - top_logs[k]
        if mean_excess <= 0.0 or top_logs[k] == top_logs[0]:
            excluded.append(k)
        else:
            kept.append(k)
            alphas.append(float(1.0 / mean_excess))
    return HillCurve(tuple(kept), tuple(alphas), tuple(excluded))
