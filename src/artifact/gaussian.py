"""Orthant probabilities and the joint-tail constant of a normal vector.

Everything the asymptotic layer needs from the Gaussian side lives here:
multivariate orthant probabilities P(Y >= 0) for a positive definite
covariance (at every dimension, the product over the independent
components of the correlation's nonzero pattern of their closed forms or,
for a component of 4 to 64 coordinates, randomized quasi-Monte Carlo
through linalg's Cholesky factor and an in-house scrambled Sobol' engine),
the tail constant Upsilon assembled from a QP solution (one TailCoefficients
record per solved subset), and the joint-tail
law built on it (first order, and Savage's second order).
The input guards every layer shares live here too: _finite_real for every
real number and _integer for every integer, each naming the parameter in its
ValueError. So do the two scalar kernels under the orthant QMC and the
sampler: the normal cdf _ndtr (Cephes' ndtr) and its inverse _ndtri
(Wichura's AS 241), vectorized in numpy, so that no command imports scipy.

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
# Loaded here, at import time (numpy loads it on first use): the orthant
# QMC draws from it.
import numpy.random

from .linalg import CorrelationMatrix, _cholesky_lower, solve_spd, spd_factorize
from .qp import QpSolution, solve_qp

LOG_TWO_PI = math.log(2.0 * math.pi)

ORTHANT_RANDOMIZATIONS = 25
ORTHANT_BASE_POINTS = 1 << 13
ORTHANT_TARGET_SE = 1e-4

# Seeds are 64-bit unsigned integers, for the orthant QMC and the sampler.
_MAX_SEED = 2**64 - 1

# The normal cdf and quantile kernels below run in chunks of this many
# values by default, on two scratch rows allocated once per call, so a call
# holds about 27 bytes per value of one chunk, not of its input. Smaller
# chunks cost more ufunc calls, and on two workers each call may wait for
# the GIL: on simulate-d12's 6e6 values, the two workers mapped them in
# about 0.2 s with 8192-value chunks and 0.065 s with 65536-value ones.
_KERNEL_CHUNK = 1 << 14

# Cephes' ndtr (S. L. Moshier), on Cody's rational forms: erf(x) =
# x T(x^2) / U(x^2) for |x| < 1, and erfc(x) = exp(-x^2) P(x) / Q(x) for
# 1 <= x < 8, exp(-x^2) R(x) / S(x) from 8 on. Coefficients run from the
# highest degree down; U, Q and S are monic, their leading 1 written out.
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
# T halved, exactly: x T_HALF(z) / U(z) is erf(x) / 2 to the bit.
_ERF_T_HALF = tuple(0.5 * c for c in _ERF_T)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
# Cephes' MAXLOG, log of the largest float: erfc(x) is 0 where x^2 passes it.
_MAXLOG = 7.09782712893383996843e2

# Wichura's AS 241 (PPND16; Appl. Statist. 37, 1988), as in the standard
# library's statistics.NormalDist.inv_cdf: Phi^{-1}(p) = q A(r) / B(r) with
# r = 0.180625 - q^2 for |q| = |p - 0.5| <= 0.425; beyond, with
# r = sqrt(-log(min(p, 1 - p))), C(r - 1.6) / D(r - 1.6) for r <= 5 and
# E(r - 5) / F(r - 5) past it, negated below p = 0.5.
_AS241_A = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_AS241_B = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_AS241_C = (
    7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
    1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
    4.6303378461565452959e0, 1.4234371107496835773e0,
)
_AS241_D = (
    1.05075007164441684324e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
    1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
    2.0531916266377588219e0, 1.0,
)
_AS241_E = (
    2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
    2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e0,
    5.46378491116411436990e0, 6.65790464350110377720e0,
)
_AS241_F = (
    2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
    7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
    5.99832206555887937690e-1, 1.0,
)


class AsymptoticRegimeWarning(UserWarning):
    """A limit formula was evaluated at a point where the limit may be loose."""


class UnsupportedDegeneracy(ValueError):
    """A degenerate matrix that a constant formula would get silently wrong,
    so it is refused: adjacent cone levels that decay at the same rate (the
    at-least-i formula assumes a strict gap), an orthant factor of 0, or an
    orthant QMC estimate that misses its relative target."""


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


def _polevl(coefs: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The polynomial with coefs (highest degree first) at x, into out, by
    Horner's rule in Cephes' polevl order, ((c0 x + c1) x + c2) x + ..."""
    if coefs[0] == 1.0:  # Cephes' p1evl: 1 x is x
        np.add(x, coefs[1], out=out)
    else:
        np.multiply(x, coefs[0], out=out)
        out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _where(mask: np.ndarray):
    """The indices where mask holds, or None where it holds nowhere."""
    return mask.nonzero()[0] if mask.any() else None


def _chunked(kernel, x, out, chunk: int) -> np.ndarray:
    """kernel(part, result, scratch) over x in parts of chunk values, into
    out (a new array of x's shape when None), which is returned; scratch
    is 2 rows of the part's length. out may be x itself:
    a kernel reads its chunk before it writes the chunk's result. A 1-D
    input or output is used as it is, strided or not; an N-D one that is
    not C-contiguous is copied."""
    x = np.asarray(x, dtype=float)
    result = np.empty(x.shape) if out is None else out
    if result.shape != x.shape:
        raise ValueError(f"out has shape {result.shape}, the input {x.shape}")
    values = x.reshape(-1)
    flat = result.ndim <= 1 or result.flags.c_contiguous
    results = result.reshape(-1) if flat else np.empty(x.size)
    scratch = np.empty((2, min(values.size, chunk)))
    # The discarded branches overflow or take the log of 0, and nan propagates.
    with np.errstate(all="ignore"):
        for start in range(0, values.size, chunk):
            stop = min(start + chunk, values.size)
            kernel(values[start:stop], results[start:stop], scratch[:, : stop - start])
    if not flat:
        result[...] = results.reshape(x.shape)
    return result


def _ndtr_chunk(a: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> None:
    z, acc = scratch
    # x = a / sqrt(2) is held in y (which may be a).
    x = np.multiply(a, math.sqrt(0.5), out=y)
    np.multiply(x, x, out=z)
    # |x| >= 1 takes erfc's forms, on its values gathered before y is written.
    tail = _where(z >= 1.0)
    if tail is not None:
        x_tail = x[tail]
    # Phi(a) = 1/2 + erf(x) / 2 with erf(x) = x T(z) / U(z), below |x| = 1.
    y *= _polevl(_ERF_T_HALF, z, acc)
    y /= _polevl(_ERF_U, z, acc)
    y += 0.5
    if tail is not None:
        y[tail] = _ndtr_tail(x_tail)


def _ndtr_tail(x: np.ndarray) -> np.ndarray:
    """Phi(sqrt(2) x) from Cephes' erfc(|x|), for |x| >= 1."""
    g = np.abs(x)
    p, q = np.empty((2, g.size))
    _polevl(_ERFC_P, g, p)
    _polevl(_ERFC_Q, g, q)
    far = _where(g >= 8.0)
    if far is not None:
        g_far = g[far]
        p[far] = _polevl(_ERFC_R, g_far, np.empty(far.size))
        q[far] = _polevl(_ERFC_S, g_far, np.empty(far.size))
        # erfc is 0 where exp(-x^2) underflows, past _MAXLOG.
        under = far[g_far * g_far > _MAXLOG]
    # Cephes' expx2: exp(-x^2) = exp(-m^2) exp(-(2 m f + f^2)), with m = |x|
    # rounded to a multiple of 1/128 (ties down) and f = |x| - m, so that
    # the exponent's rounding error does not grow with x^2.
    u = np.empty((2, g.size))
    m = np.multiply(g, 128.0, out=u[0])
    m -= 0.5
    np.ceil(m, out=m)
    m *= 1.0 / 128.0
    f = np.subtract(g, m, out=g)
    np.multiply(m, 2.0, out=u[1])
    u[1] *= f
    u[1] += np.multiply(f, f, out=f)
    m *= m
    np.exp(np.negative(u, out=u), out=u)
    e = np.multiply(u[0], u[1], out=u[0])
    # erfc(|x|) = exp(-x^2) P / Q, halved, and reflected above 0.
    e *= p
    e /= q
    if far is not None:
        e[under] = 0.0
    e *= 0.5
    np.subtract(1.0, e, out=e, where=x > 0.0)
    return e


def _ndtr(x, out=None, chunk: int = _KERNEL_CHUNK) -> np.ndarray:
    """Phi(x), the standard normal cdf, elementwise: Cephes' ndtr, with
    0 and 1 at -inf and inf and nan at nan. out (an array of x's shape,
    which may be x) takes the result.

    The erf form runs on every value; the erfc forms run only on the values
    with |x| >= sqrt(2), gathered, and each of them only on its own range.
    The values are taken chunk at a time."""
    return _chunked(_ndtr_chunk, x, out, chunk)


def _ndtri_chunk(p: np.ndarray, y: np.ndarray, scratch: np.ndarray) -> None:
    q, acc = scratch
    np.subtract(p, 0.5, out=q)
    # |q| > 0.425 takes the tail forms, on its values gathered before y
    # (which may be p) is written.
    tail = _where(np.abs(q, out=acc) > 0.425)
    if tail is not None:
        p_tail, q_tail = p[tail], q[tail]
    # Phi^{-1}(p) = q A(r) / B(r) with r = 0.180625 - q^2, held in y.
    r = np.multiply(q, q, out=y)
    np.subtract(0.180625, r, out=r)
    num = _polevl(_AS241_A, r, acc)
    num *= q
    np.divide(num, _polevl(_AS241_B, r, q), out=y)
    if tail is not None:
        y[tail] = _ndtri_tail(p_tail, q_tail)


def _ndtri_tail(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Phi^{-1}(p) for |q| = |p - 0.5| > 0.425; p is overwritten."""
    r = np.minimum(p, 1.0 - p)
    np.log(r, out=r)
    np.sqrt(np.negative(r, out=r), out=r)
    far = _where(r > 5.0)
    if far is not None:
        r_far = r[far]
    r -= 1.6
    x = _polevl(_AS241_C, r, p)
    x /= _polevl(_AS241_D, r, np.empty(r.size))
    if far is not None:
        r_far -= 5.0
        x_far = _polevl(_AS241_E, r_far, np.empty(far.size))
        x_far /= _polevl(_AS241_F, r_far, np.empty(far.size))
        # p = 0 or 1 (r infinite) is the infinite quantile.
        x_far[r_far == math.inf] = math.inf
        x[far] = x_far
    return np.copysign(x, q, out=x)


def _ndtri(p) -> np.ndarray:
    """Phi^{-1}(p), the standard normal quantile, elementwise: AS 241, with
    -inf at 0, inf at 1 and nan outside [0, 1]. The central form runs on
    every value; the tail forms run only on the values with |p - 0.5| > 0.425,
    gathered, and each only on its own range."""
    return _chunked(_ndtri_chunk, p, None, _KERNEL_CHUNK)


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
        ys[:, i - 1] = _ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        d = _ndtr(-(ys[:, :i] @ lower[i, :i]) / lower[i, i])
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
_SOBOL_WEIGHTS = 2.0**_SOBOL_MSB_FIRST


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


# One entry per sample size of the orthant QMC's three levels.
@functools.lru_cache(maxsize=3)
def _gray_code_steps(n: int) -> np.ndarray:
    """ctz(i) for i = 1..n - 1: the direction that Gray-code point i adds."""
    index = np.arange(1, n)
    steps = np.frexp(index & -index)[1] - 1
    steps.flags.writeable = False
    return steps


def _scrambled_sobol(dim: int, n: int, seq: np.random.SeedSequence) -> np.ndarray:
    """First n points of a scrambled dim-dimensional Sobol' sequence, as (n, dim).

    The direction numbers get a left linear matrix scramble plus a digital
    shift (Matousek, J. Complexity 14, 1998) in 30 bits, drawn from a
    generator on seq's first child: the shift bits first, then the lower
    triangular matrices. Points come in Gray-code order, point i being the
    shift XOR the directions of ctz(1), ..., ctz(i). The points are bit for
    bit those of scipy.stats.qmc.Sobol(dim, rng=np.random.default_rng(seq)).
    """
    rng = np.random.Generator(np.random.PCG64(seq.spawn(1)[0]))
    shift_bits = rng.integers(2, size=(dim, _SOBOL_BITS), dtype=np.uint32)
    shift = shift_bits @ (np.uint32(1) << _SOBOL_MSB_FIRST[::-1])
    draws = rng.integers(2, size=(dim, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32)
    lms = np.tril(draws).astype(float)
    diagonal = np.arange(_SOBOL_BITS)
    lms[:, diagonal, diagonal] = 1.0
    # Output bit p (from the top) is the parity of lms[p] with the input
    # bits, so each digit mixes in only the more significant ones. The
    # products are sums of at most 30 zero-one terms, exact in floats (and a
    # BLAS product, where numpy has none for integers); so is the sum of
    # the parities' powers of two.
    bits = (_sobol_directions(dim)[:, None, :] >> _SOBOL_MSB_FIRST[:, None]) & 1
    mixed = np.fmod(lms @ bits.astype(float), 2.0)
    directions = (_SOBOL_WEIGHTS @ mixed).astype(np.uint32)
    points = np.empty((n, dim), dtype=np.uint32)
    points[0] = shift
    np.take(directions.T, _gray_code_steps(n), axis=0, out=points[1:])
    np.bitwise_xor.accumulate(points, axis=0, out=points)
    return points * 2.0**-_SOBOL_BITS


def _rqmc_orthant(corr: np.ndarray, seed: int) -> OrthantEstimate:
    """One component's QMC estimate; UnsupportedDegeneracy where its relative
    standard error misses ORTHANT_TARGET_SE at the last level."""
    lower = _cholesky_lower(corr)
    m = corr.shape[0]
    n_points = ORTHANT_BASE_POINTS
    # Sample size escalates fourfold at most twice if the target is missed.
    for level in range(3):
        root = np.random.SeedSequence(entropy=seed, spawn_key=(level,))
        means = np.empty(ORTHANT_RANDOMIZATIONS)
        for r, child in enumerate(root.spawn(ORTHANT_RANDOMIZATIONS)):
            points = _scrambled_sobol(m - 1, n_points, child)
            means[r] = float(np.mean(_sov_orthant(lower, points)))
        value = float(np.mean(means))
        se = float(np.std(means, ddof=1) / math.sqrt(ORTHANT_RANDOMIZATIONS))
        if se <= ORTHANT_TARGET_SE * value:
            return OrthantEstimate(value, se)
        n_points *= 4
    raise UnsupportedDegeneracy(
        f"the orthant QMC over a component of {m} coordinates reached a "
        f"relative standard error of {se / value:.3g}, above the target "
        f"{ORTHANT_TARGET_SE:g}"
    )


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
    positive definite matrix of dimension m <= 64. At every m the
    coordinates split into the connected components of the correlation's
    nonzero pattern, which are independent, and the probability is the
    product of theirs (1.0 for m = 0): a component of at most 3 coordinates
    takes its closed form (arcsine formulas), and a larger one randomized
    quasi-Monte Carlo with 25 scrambled replications, targeting a standard
    error of ORTHANT_TARGET_SE (1e-4) times its value and reporting the one
    achieved. Each replication integrates
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
    Raises UnsupportedDegeneracy, naming the component's size and relative
    standard error, when a component's QMC still misses its target after
    its sample size has grown fourfold twice.
    """
    seed = _integer(seed, "seed", 0, _MAX_SEED)
    c = np.asarray(cov, dtype=float)
    spd_factorize(c)
    # upsilon's conditional block is symmetric only to rounding.
    c = 0.5 * (c + c.T)
    inv_sd = 1.0 / np.sqrt(np.diag(c))
    corr = np.clip(c * inv_sd[:, None] * inv_sd[None, :], -1.0, 1.0)
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
    terms = (part.se * math.prod(values[:i] + values[i + 1 :]) for i, part in enumerate(parts))
    se = sum(terms, 0.0)
    return OrthantEstimate(math.prod(values, start=1.0), se)


@dataclass(frozen=True, eq=False)
class TailCoefficients:
    """One solved subset: its QP solution, the orthant factor of its
    boundary set (value 1 and se 0 when that set is empty), and its tail
    constant, kept as log_upsilon only: it underflows a float long before
    the laws built on it do. Compared and hashed by identity, as its
    solution is."""

    solution: QpSolution
    orthant: OrthantEstimate
    log_upsilon: float


def upsilon(sigma: CorrelationMatrix, sol: QpSolution) -> TailCoefficients:
    """The record of the subset sol.support: sol, its orthant factor and
    its tail constant.

    Assembles the orthant factor / ((2 pi)^{|I|/2} |Sigma_I|^{1/2} prod_i h_i)
    in log space, where I is the QP active set. The orthant factor is the
    probability that the conditional normal on the boundary coordinates
    stays nonnegative; strictly interior inactive coordinates contribute 1.
    Its covariance is the Schur complement of Sigma_I in the principal block
    of I and the boundary coordinates (sol.boundary_set), taken on the
    boundary coordinates alone, so it is positive definite like that block.
    The factor is orthant_probability's product over the block's components
    at seed 0. A factor that is 0 (or not finite), whose log would be -inf,
    or a QMC estimate that misses its relative target, raises
    UnsupportedDegeneracy naming the boundary set.
    """
    act = sol.active_set.as_indices()
    entries = sigma.entries
    lower = spd_factorize(entries[np.ix_(act, act)])

    if len(sol.boundary_set) > 0:
        bnd = sol.boundary_set.as_indices()
        cross = entries[np.ix_(bnd, act)]
        conditional = entries[np.ix_(bnd, bnd)] - cross @ solve_spd(lower, cross.T)
        try:
            orthant = orthant_probability(conditional)
        except UnsupportedDegeneracy as err:
            raise UnsupportedDegeneracy(
                f"the orthant factor of boundary set {sol.boundary_set}: {err}"
            ) from None
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
    return TailCoefficients(sol, orthant, log_up)


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

