"""Orthant probabilities and the joint-tail constant of a normal vector.

Everything the asymptotic layer needs from the Gaussian side lives here:
multivariate orthant probabilities P(Y >= 0) for a positive definite
covariance (closed forms for dimension <= 3; above that, the product over
the independent components of the correlation's nonzero pattern of their
closed forms or, for a component of 4 to 64 coordinates, randomized
quasi-Monte Carlo through linalg's Cholesky factor and an in-house scrambled
Sobol' engine that keeps scipy.stats off the import path), the
tail constant Upsilon assembled from a QP solution, and the joint-tail law
built on it (first order, and Savage's second order). The input guards
every layer shares live here too: _finite_real for every real number and
_integer for every integer, each naming the parameter in its ValueError.

All probability assembly happens in log space; the constants underflow well
before the asymptotics lose accuracy.
"""

from __future__ import annotations

import functools
import math
import numbers
import reprlib
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .linalg import CorrelationMatrix, _cholesky_lower, solve_spd, spd_factorize
from .qp import QpSolution, solve_qp

LOG_TWO_PI = math.log(2.0 * math.pi)

ORTHANT_RANDOMIZATIONS = 25
ORTHANT_BASE_POINTS = 1 << 13
ORTHANT_TARGET_SE = 1e-4

# Seeds are 64-bit unsigned integers, for the orthant QMC and the sampler.
_MAX_SEED = 2**64 - 1


class AsymptoticRegimeWarning(UserWarning):
    """A limit formula was evaluated at a point where the limit may be loose."""


class UnsupportedDegeneracy(ValueError):
    """A degenerate matrix that a constant formula would get silently wrong,
    so it is refused: adjacent cone levels that decay at the same rate (the
    at-least-i formula assumes a strict gap), or an orthant factor of 0."""


def _finite_real(value, name: str) -> float:
    """value as a float: a real number, not a bool, that is finite as a float
    (an int too large for a float is not). Anything else raises ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            out = float(value)
        except OverflowError:
            out = math.inf
        if math.isfinite(out):
            return out
    raise ValueError(f"{name} must be a finite number, got {reprlib.repr(value)}")


def _integer(value, name: str, low: int, high: int) -> int:
    """value as an int: an integer, not a bool, in low..high (NumPy integers
    too). Anything else raises ValueError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        out = int(value)
        if low <= out <= high:
            return out
    raise ValueError(f"{name} must be an integer in {low}..{high}, got {reprlib.repr(value)}")


def _real_or_nan(value) -> float:
    """_finite_real(value), or nan where it rejects value: for range guards
    that word their own message, as nan lies in no range."""
    try:
        return _finite_real(value, "value")
    except ValueError:
        return math.nan


def _positive_real(value, name: str) -> float:
    out = _finite_real(value, name)
    if not out > 0:
        raise ValueError(f"{name} must be a finite positive real, got {reprlib.repr(value)}")
    return out


@dataclass(frozen=True)
class OrthantEstimate:
    """Orthant probability and its standard error (0 on closed-form paths)."""

    value: float
    se: float


def _sov_orthant(lower: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Sequential-conditioning integrand for P(Y >= 0), vectorized over w rows.

    Coordinates are peeled off one at a time through the triangular factor;
    each stage multiplies in the conditional probability of staying
    nonnegative and maps one uniform to a truncated-normal sample.
    """
    m = lower.shape[0]
    n = w.shape[0]
    ys = np.empty((n, m - 1))
    d = np.full(n, 0.5)
    prob = np.full(n, 0.5)
    for i in range(1, m):
        u = d + w[:, i - 1] * (1.0 - d)
        ys[:, i - 1] = ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        d = ndtr(-(ys[:, :i] @ lower[i, :i]) / lower[i, i])
        prob *= 1.0 - d
    return prob


# Joe & Kuo's direction numbers (SIAM J. Sci. Comput. 30, 2008, search
# criterion 6) for Sobol' dimensions 2..64: the primitive polynomial with its
# x^deg coefficient as the top bit, and the initial odd m_1..m_deg.
# Dimension 1 is van der Corput's (every m_j = 1).
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)), (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)), (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)), (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)), (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)), (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)), (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)), (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)), (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)), (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)), (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)), (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)), (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)), (229, (1, 3, 1, 3, 5, 53, 69)),
    (239, (1, 1, 5, 5, 23, 33, 13)), (241, (1, 1, 7, 7, 1, 61, 123)),
    (247, (1, 1, 7, 9, 13, 61, 49)), (253, (1, 3, 3, 5, 3, 55, 33)),
    (285, (1, 3, 1, 15, 31, 13, 49, 245)), (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)), (425, (1, 1, 3, 1, 11, 31, 97, 225)),
    (451, (1, 1, 1, 3, 23, 43, 57, 177)), (463, (1, 3, 7, 7, 17, 17, 37, 71)),
    (487, (1, 3, 1, 5, 27, 63, 123, 213)), (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)), (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)), (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)), (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
)
_SOBOL_BITS = 30
# Bit positions from the most significant down: column j of a direction
# table carries m_j << _SOBOL_MSB_FIRST[j].
_SOBOL_MSB_FIRST = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)


@functools.cache
def _sobol_directions(dim: int) -> np.ndarray:
    """Unscrambled direction numbers v[k, j] = m_j 2^(29 - j), as (dim, 30) uint32."""
    v = np.empty((dim, _SOBOL_BITS), dtype=np.uint32)
    v[0] = 1
    for k in range(1, dim):
        poly, m_init = _JOE_KUO[k - 1]
        deg = len(m_init)
        m = list(m_init)
        # m_j = m_{j-deg} ^ XOR_{i=1..deg} a_i 2^i m_{j-i}, a_i the bit of x^(deg-i).
        for j in range(deg, _SOBOL_BITS):
            new = m[j - deg]
            for i in range(1, deg + 1):
                if (poly >> (deg - i)) & 1:
                    new ^= m[j - i] << i
            m.append(new)
        v[k] = m
    v <<= _SOBOL_MSB_FIRST
    v.flags.writeable = False
    return v


def _scrambled_sobol(dim: int, n: int, seq: np.random.SeedSequence) -> np.ndarray:
    """First n points of a scrambled dim-dimensional Sobol' sequence, as (n, dim).

    The direction numbers get a left linear matrix scramble plus a digital
    shift (Matousek, J. Complexity 14, 1998) in 30 bits, drawn from a
    generator on seq's first child: the shift bits first, then the lower
    triangular matrices. Points come in Gray-code order, point i being the
    shift XOR the directions of ctz(1), ..., ctz(i). The points are bit for
    bit those of scipy.stats.qmc.Sobol(dim, rng=np.random.default_rng(seq)),
    without importing scipy.stats.
    """
    rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    shift_bits = rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32)
    shift = shift_bits @ (np.uint32(1) << _SOBOL_MSB_FIRST[::-1])
    lms = np.tril(rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    diagonal = np.arange(_SOBOL_BITS)
    lms[:, diagonal, diagonal] = 1
    # Output bit p (from the top) is the parity of lms[p] with the input
    # bits, so each digit mixes in only the more significant ones.
    bits = (_sobol_directions(dim)[:, None, :] >> _SOBOL_MSB_FIRST[:, None]) & 1
    mixed = (lms @ bits) & 1
    directions = np.bitwise_or.reduce(mixed << _SOBOL_MSB_FIRST[:, None], axis=1)
    index = np.arange(1, n)
    trailing_zeros = np.frexp(index & -index)[1] - 1
    points = np.empty((n, dim), dtype=np.uint32)
    points[0] = shift
    points[1:] = directions[:, trailing_zeros].T
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    return points * 2.0**-_SOBOL_BITS


def _rqmc_orthant(corr: np.ndarray, seed: int) -> OrthantEstimate:
    lower = _cholesky_lower(corr)
    m = corr.shape[0]
    n_points = ORTHANT_BASE_POINTS
    value = se = math.inf
    # Sample size escalates fourfold at most twice if the target SE is missed.
    for level in range(3):
        root = np.random.SeedSequence(entropy=seed, spawn_key=(level,))
        means = np.empty(ORTHANT_RANDOMIZATIONS)
        for r, child in enumerate(root.spawn(ORTHANT_RANDOMIZATIONS)):
            points = _scrambled_sobol(m - 1, n_points, child)
            means[r] = float(np.mean(_sov_orthant(lower, points)))
        value = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(ORTHANT_RANDOMIZATIONS))
        if se <= ORTHANT_TARGET_SE:
            break
        n_points *= 4
    return OrthantEstimate(value, se)


def _closed_form_orthant(corr: np.ndarray) -> float:
    """P(Y >= 0) for m <= 3 coordinates with correlation corr (arcsine formulas)."""
    m = corr.shape[0]
    if m == 1:
        return 0.5
    if m == 2:
        return 0.25 + math.asin(corr[0, 1]) / (2.0 * math.pi)
    arc = math.asin(corr[0, 1]) + math.asin(corr[0, 2]) + math.asin(corr[1, 2])
    return 0.125 + arc / (4.0 * math.pi)


def _components(corr: np.ndarray) -> list[np.ndarray]:
    """Sorted 0-based indices of each connected component of corr's nonzero
    pattern, in the order of their least index."""
    linked = corr != 0.0
    parts = []
    seen = np.zeros(corr.shape[0], dtype=bool)
    for start in range(corr.shape[0]):
        if seen[start]:
            continue
        member = np.zeros_like(seen)
        member[start] = True
        frontier = member.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~member
            member |= frontier
        seen |= member
        parts.append(np.flatnonzero(member))
    return parts


def orthant_probability(cov, seed: int = 0) -> OrthantEstimate:
    """P(Y >= 0) for a centered normal Y with the given covariance.

    cov must be what spd_factorize accepts: a square, finite, symmetric
    positive definite matrix of dimension m <= 64. Closed forms for m <= 3
    (arcsine formulas). For m >= 4 the coordinates split into the connected
    components of the correlation's nonzero pattern, which are independent,
    and the probability is the product of theirs: a component of at most 3
    coordinates takes its closed form, and a larger one randomized
    quasi-Monte Carlo with 25 scrambled replications, targeting standard
    error 1e-4 and reporting the one achieved. Each replication integrates
    over one dimension less than the component of the in-house scrambled
    Sobol' engine, whose direction table stops at dimension 64, through the
    Cholesky factor of the component's correlation. Every component is
    integrated at the same seed, so a component's factor is the one it has
    on its own; the product's standard error combines theirs by the delta
    method, adding the terms because errors at one seed are correlated,
    and one component returns its estimate unchanged. Same seed, same
    result; distinct seeds are independent replications.

    Raises ValueError (NotPositiveDefinite for a pivot at or below
    PD_TOLERANCE, naming the leading minor) for any cov that spd_factorize
    refuses, and when seed is not an integer in 0..2**64 - 1.
    """
    seed = _integer(seed, "seed", 0, _MAX_SEED)
    c = np.asarray(cov, dtype=float)
    spd_factorize(c)
    m = c.shape[0]
    if m == 0:
        return OrthantEstimate(1.0, 0.0)
    # upsilon's conditional block is symmetric only to rounding.
    c = 0.5 * (c + c.T)
    inv_sd = 1.0 / np.sqrt(np.diag(c))
    corr = np.clip(c * inv_sd[:, None] * inv_sd[None, :], -1.0, 1.0)
    if m <= 3:
        return OrthantEstimate(_closed_form_orthant(corr), 0.0)
    parts = []
    for idx in _components(corr):
        block = corr[np.ix_(idx, idx)]
        if len(idx) > 3:
            parts.append(_rqmc_orthant(block, seed))
        else:
            parts.append(OrthantEstimate(_closed_form_orthant(block), 0.0))
    if len(parts) == 1:
        return parts[0]
    values = [part.value for part in parts]
    # Delta method: the product's derivative in one factor is the product
    # of the others. The components share the seed, so their QMC errors
    # are correlated; the terms are added, which bounds the se at any
    # correlation.
    se = sum(part.se * math.prod(values[:i] + values[i + 1 :]) for i, part in enumerate(parts))
    return OrthantEstimate(math.prod(values), se)


@dataclass(frozen=True)
class UpsilonResult:
    """Joint-tail constant with its assembly pieces.

    The constant is kept as log_upsilon only: it underflows a float long
    before the laws built on it do. orthant_factor is 1 unless the QP
    solution's boundary_set is nonempty; orthant_se is its standard error.
    """

    orthant_factor: float
    log_upsilon: float
    orthant_se: float = 0.0


def upsilon(sigma: CorrelationMatrix, sol: QpSolution) -> UpsilonResult:
    """Tail constant for the coordinates in sol.support.

    Assembles orthant_factor / ((2 pi)^{|I|/2} |Sigma_I|^{1/2} prod_i h_i)
    in log space, where I is the QP active set. The orthant factor is the
    probability that the conditional normal on the boundary coordinates
    stays nonnegative; strictly interior inactive coordinates contribute 1.
    Its covariance is the Schur complement of Sigma_I in the principal block
    of I and the boundary coordinates (sol.boundary_set), so it is positive
    definite like that block. With more than 3 boundary coordinates the
    factor is orthant_probability's product over the block's components at
    seed 0. A factor that is 0 (or not finite), whose log would be -inf,
    raises UnsupportedDegeneracy naming the boundary set.
    """
    act = sol.active_set.as_indices()
    entries = sigma.entries
    lower = spd_factorize(entries[np.ix_(act, act)])

    if len(sol.boundary_set) > 0:
        inact = sol.inactive_set.as_indices()
        cross = entries[np.ix_(inact, act)]
        conditional = entries[np.ix_(inact, inact)] - cross @ solve_spd(lower, cross.T)
        k_pos = sol.boundary_set.positions_in(sol.inactive_set)
        orthant = orthant_probability(conditional[np.ix_(k_pos, k_pos)])
    else:
        orthant = OrthantEstimate(1.0, 0.0)
    if not 0.0 < orthant.value < math.inf:
        raise UnsupportedDegeneracy(
            f"the orthant factor of boundary set {sol.boundary_set} is "
            f"{orthant.value!r}: its conditional normal is too nearly singular "
            "for the tail constant"
        )

    log_up = (
        math.log(orthant.value)
        - 0.5 * len(sol.active_set) * LOG_TWO_PI
        - float(np.sum(np.log(np.diagonal(lower))))
        - float(np.sum(np.log(sol.h)))
    )
    return UpsilonResult(
        orthant_factor=orthant.value,
        log_upsilon=log_up,
        orthant_se=orthant.se,
    )


def gaussian_joint_tail(
    sigma: CorrelationMatrix, u: float, z_shift=None, order: int = 1
) -> float:
    """Log of the joint upper-tail approximation for a correlated normal vector.

    order=1 is the first-order law: log Upsilon - |I| log u - gamma u^2 / 2
    - (z_shift restricted to the active set) . h, approximating
    log P(Z >= u 1 + z_shift / u) up to o(1). The inner product uses the
    reduction of z' Sigma^{-1} e* onto the active coordinates.

    order=2 adds the O(1/u^2) terms, taking the relative error down to
    O(1/u^4). With A = Sigma_I^{-1} on the QP active set I and
    D = u h = A u 1, it adds log f for Savage's factor
    f = 1 - 1/2 sum_ij (1+delta_ij) A_ij / (D_i D_j) (Savage, "Mills' ratio
    for multivariate normal distributions", 1962; for d = 1 it is the Mills
    factor 1 - 1/u^2). The shift moves D only at O(1/u), so f uses the
    unshifted D; with s = z_shift restricted to I it adds
    -(s'As / 2 + sum_i (As)_i / h_i) / u^2, the shift's own terms from the
    quadratic form and from prod_i D_i. order=2 raises ValueError when the
    QP minimizer has inactive coordinates on the boundary (the orthant
    factor carries its own lower-order correction, not derived here) and
    when f <= 0 (u too small for the expansion).
    """
    order = _integer(order, "order", 1, 2)
    _positive_real(u, "u")
    if u < 3.0:
        warnings.warn(
            f"joint-tail approximation at u={u:g} < 3 is outside the regime "
            "where the o(1) term is small",
            AsymptoticRegimeWarning,
            stacklevel=2,
        )
    sol = solve_qp(sigma)
    if order == 2 and len(sol.boundary_set) > 0:
        raise ValueError(
            f"order=2 is not available with boundary set {sol.boundary_set}: "
            "the orthant factor's correction is not derived"
        )
    ups = upsilon(sigma, sol)
    act = sol.active_set.as_indices()
    shift = None
    inner = 0.0
    if z_shift is not None:
        full_shift = np.asarray(z_shift, dtype=float)
        if full_shift.shape != (sigma.dim,):
            raise ValueError(
                f"z_shift must have length {sigma.dim}, got shape {full_shift.shape}"
            )
        shift = np.array([_finite_real(v, "z_shift") for v in full_shift])[act]
        inner = float(shift @ sol.h)
    log_tail = (
        ups.log_upsilon
        - len(sol.active_set) * math.log(u)
        - 0.5 * sol.gamma * u * u
        - inner
    )
    if order == 1:
        return log_tail
    inv = solve_spd(spd_factorize(sigma.entries[np.ix_(act, act)]), np.eye(len(act)))
    w = 1.0 / (u * sol.h)
    factor = 1.0 - 0.5 * (float(w @ inv @ w) + float(np.diagonal(inv) @ (w * w)))
    if factor <= 0.0:
        raise ValueError(
            f"order=2 needs a positive second-order factor, got {factor:.3g} "
            f"at u={u:g}; use a larger u"
        )
    log_tail += math.log(factor)
    if shift is not None:
        moved = inv @ shift
        log_tail -= (0.5 * float(shift @ moved) + float(np.sum(moved / sol.h))) / (u * u)
    return log_tail

