"""Seeded Monte Carlo engine: sampling, Hill curves, and verification tables.

Samples heavy-tailed vectors with normal dependence by the exact inverse-cdf
construction X_j = (1 - Phi(Z_j))^{-1/alpha}, Z ~ N(0, Sigma). Randomness is
counter-based: every fixed 8192-row block derives its own substream from
(seed, block index), so output is bit-identical for a given seed, and the
first rows of a sample do not depend on how many rows follow them.

On top of the sampler: derived per-row series (the rank-th largest value
over a coordinate subset, merged column by column), the Hill tail-index
estimator, the conditional exceedance curves P(V1 > t | V2 > kappa t), and
the empirical-versus-asymptotic verification table with its log-log slope
diagnostic. Because every coordinate shares one increasing map
Z_j -> X_j, verification counts each tail set on the normal rows directly:
X in t * set is the event that at least k of the coordinates in a subset S
exceed per-coordinate normal thresholds, which are nondecreasing in t.
The conditional curves are events of the same form on the rows they are
given: V2 > kappa t is "at least 1 of {V2} exceeds kappa t", and
V1 > t, V2 > kappa t is "at least 2 of {V1, V2} exceed (t, kappa t)". One
counter (_EventCounter) counts both kinds without testing each grid point
on its own: a value is ranked once by how many grid thresholds it exceeds,
an event's rank is the rowwise k-th largest over S, and the count at each
grid point is a suffix sum of the rank's bins, so one pass over the blocks
fills every grid cell.
"""

from __future__ import annotations

import csv
import math
import reprlib
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np
from scipy.special import ndtr

from .asymptotics import (
    AsymptoticEstimate,
    MarginalSpec,
    TailSet,
    _normal_event,
    asymptotic_estimate,
)
from .gaussian import _finite_real, _positive_real
from .linalg import CorrelationMatrix, IndexSubset, spd_factorize

# Substreams are derived per logical block of this many rows. The block size
# is part of the determinism contract: changing it changes every sample.
BLOCK_ROWS = 8192

# Below this many exceedances an empirical/asymptotic ratio is noise.
LOW_HIT_THRESHOLD = 50

DEFAULT_HILL_POINTS = 40


@dataclass(frozen=True)
class SimulationConfig:
    """Sampling plan: matrix, marginal, sample count, seed."""

    sigma: CorrelationMatrix
    marg: MarginalSpec
    n: int
    seed: int

    def __post_init__(self):
        _require_n(self.n)
        _require_seed(self.seed)
        if self.marg.scale_c != 1.0:
            raise ValueError("simulation requires the pareto-exact marginal (scale_c = 1)")


def _require_n(n) -> None:
    """A sample size: the hit counters are int64, so n < 2**63."""
    if isinstance(n, bool) or not (isinstance(n, int) and 1 <= n < 2**63):
        raise ValueError(f"n must be a positive integer, got {reprlib.repr(n)} (at most 2**63 - 1)")


def _require_seed(seed) -> None:
    if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2**64):
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {reprlib.repr(seed)}")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def _gaussian_blocks(cfg: SimulationConfig) -> Iterator[tuple[int, np.ndarray]]:
    """(first row, block) pairs of correlated standard normal rows, in order:
    every block but the last has BLOCK_ROWS rows, and together they are the
    n x d sample."""
    lower = spd_factorize(cfg.sigma).lower
    d = cfg.sigma.dim
    for block, start in enumerate(range(0, cfg.n, BLOCK_ROWS)):
        rows = min(BLOCK_ROWS, cfg.n - start)
        eta = _block_rng(cfg.seed, block).standard_normal((rows, d))
        yield start, eta @ lower.T


def _gaussian_sample(cfg: SimulationConfig) -> np.ndarray:
    """n x d correlated standard normal rows, bit-reproducible per seed."""
    z = np.empty((cfg.n, cfg.sigma.dim))
    for start, block in _gaussian_blocks(cfg):
        z[start : start + len(block)] = block
    return z


def _to_pareto(z: np.ndarray, alpha: float) -> np.ndarray:
    """Exact Pareto(alpha) coordinates of normal ones: survival(z)^{-1/alpha}."""
    return np.power(ndtr(-z), -1.0 / alpha)


def sample_rvgc(cfg: SimulationConfig) -> np.ndarray:
    """n x d sample of the heavy-tailed vector: X_j = survival(Z_j)^{-1/alpha}."""
    return _to_pareto(_gaussian_sample(cfg), cfg.marg.alpha)


def derived_series(samples: np.ndarray, subset: IndexSubset, rank: int) -> np.ndarray:
    """Rowwise rank-th largest value over the coordinates in subset: rank 1
    is the maximum, rank |subset| the minimum.

    The columns of the subset are merged by _rowwise_kth_largest, so a
    column-major (order="F") sample is read column by column and never
    copied. A single-coordinate result is a view of that column of samples,
    not a copy; every other result is a new array.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be an n x d matrix, got shape {samples.shape}")
    subset.validate_within(samples.shape[1])
    size = len(subset)
    if not (isinstance(rank, int) and 1 <= rank <= size):
        raise ValueError(f"rank must be an integer in 1..{size}, got {rank!r}")
    return _rowwise_kth_largest([samples[:, j] for j in subset.as_indices()], rank)


def _rowwise_kth_largest(columns: Sequence[np.ndarray], k: int) -> np.ndarray:
    """Rowwise k-th largest of equal-length columns, 1 <= k <= len(columns).

    The columns are merged one at a time into a rowwise sorted buffer of the
    k largest values (or of the len(columns) - k + 1 smallest, when that is
    shorter) by elementwise maximum and minimum. A single column is returned
    as it is; every other result is a new array.
    """
    size = len(columns)
    if k <= size - k + 1:
        depth, keep, displace = k, np.maximum, np.minimum
    else:
        depth, keep, displace = size - k + 1, np.minimum, np.maximum
    kept: list[np.ndarray] = []
    for value in columns:
        for i, held in enumerate(kept):
            kept[i] = keep(held, value)
            if i + 1 < depth:
                value = displace(held, value)
        if len(kept) < depth:
            kept.append(value)
    return kept[-1]


@dataclass(frozen=True)
class HillCurve:
    """Tail-index estimates along the number of order statistics used.

    excluded_k lists grid points whose Hill mean was 0 (constant upper tail),
    where the estimate is undefined.
    """

    k_values: tuple[int, ...]
    alpha_hat: tuple[float, ...]
    series_label: str
    excluded_k: tuple[int, ...] = ()


def default_k_grid(n: int) -> tuple[int, ...]:
    """40 log-spaced order-statistic counts in [10, n/4], deduplicated."""
    if n < 41:
        raise ValueError(f"default grid needs n >= 41 observations, got {n}")
    ks = np.unique(
        np.round(np.geomspace(10, max(10, n // 4), DEFAULT_HILL_POINTS)).astype(int)
    )
    return tuple(int(k) for k in ks)


def resolve_k_grid(k_grid: Optional[Sequence[int]], n: int) -> tuple[int, ...]:
    """The Hill grid for n observations: k_grid checked, or the default grid."""
    if k_grid is None:
        return default_k_grid(n)
    ks = tuple(int(k) for k in k_grid)
    if len(ks) == 0:
        raise ValueError("k_grid must be nonempty")
    if any(ks[i] >= ks[i + 1] for i in range(len(ks) - 1)):
        raise ValueError("k_grid must be strictly increasing")
    if ks[0] < 1 or ks[-1] > n - 1:
        raise ValueError(f"k_grid must lie in [1, {n - 1}], got [{ks[0]}, {ks[-1]}]")
    return ks


def hill_estimator(
    data, k_grid: Optional[Sequence[int]] = None, series_label: str = "series"
) -> HillCurve:
    """Hill tail-index curve: alpha_hat(k) = k / sum log(X_(i)/X_(k+1)), i <= k."""
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"data must be one-dimensional, got shape {x.shape}")
    # min and max propagate nan, which fails both comparisons.
    if x.size == 0 or not (x.min() > 0.0 and x.max() < math.inf):
        raise ValueError("hill estimator needs strictly positive finite data")
    ks = resolve_k_grid(k_grid, x.size)

    # Only the top k_max + 1 values are sorted, in place in the partitioned
    # copy: the same array as the leading entries of the full descending sort.
    cut = x.size - ks[-1] - 1
    top = np.partition(x, cut)[cut:]
    top.sort()
    top_logs = np.log(top[::-1])
    csum = np.cumsum(top_logs)
    kept, alphas, excluded = [], [], []
    for k in ks:
        mean_excess = csum[k - 1] / k - top_logs[k]
        if mean_excess <= 0.0:
            excluded.append(k)
            continue
        kept.append(k)
        alphas.append(1.0 / mean_excess)
    return HillCurve(tuple(kept), tuple(alphas), series_label, tuple(excluded))


def _increasing_grid(t_grid) -> tuple[float, ...]:
    ts = tuple(_finite_real(t, "t_grid") for t in t_grid)
    if len(ts) == 0:
        raise ValueError("t_grid must be nonempty")
    if any(t <= 0 for t in ts):
        raise ValueError("t_grid must be strictly positive finite reals")
    if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
        raise ValueError("t_grid must be strictly increasing")
    return ts


@dataclass(frozen=True)
class VerificationRow:
    t: float
    empirical: float
    se: float
    asymptotic: float
    ratio: float
    flag: str
    hits: int


@dataclass(frozen=True)
class VerificationTable:
    """Empirical versus asymptotic tail probabilities plus a slope diagnostic.

    slope is the least-squares slope of log empirical against log t over the
    rows with enough hits (nan when fewer than two qualify); slope_target is
    -a from the estimate.
    """

    rows: tuple[VerificationRow, ...]
    slope: float
    slope_target: float
    estimate: AsymptoticEstimate


def verify_asymptotics(
    cfg: SimulationConfig, tail_sets: Sequence[TailSet], t_grid
) -> tuple[VerificationTable, ...]:
    """Compare empirical tail frequencies with the asymptotic law on a t grid,
    one table per tail set.

    One pass over the sampler's normal blocks: each set at each t is the
    event "at least k of the coordinates in S exceed their thresholds" on the
    normal rows, so no row is mapped to the Pareto scale, and memory is
    bounded by one block, not by n. The events are counted by grid rank
    (_EventCounter, which also counts the conditional curves): one
    comparison pass per coordinate and threshold, shared by every set that
    uses it. Rows with fewer than LOW_HIT_THRESHOLD exceedances are flagged
    "low-hits" and excluded from the slope fit.
    """
    ts = _increasing_grid(t_grid)
    estimates = [asymptotic_estimate(cfg.sigma, cfg.marg, tail_set) for tail_set in tail_sets]
    counter = _EventCounter(
        [_normal_event(tail_set, cfg.sigma.dim, cfg.marg.alpha, ts) for tail_set in tail_sets],
        len(ts),
    )
    for _, z in _gaussian_blocks(cfg):
        counter.add(z)
    return tuple(
        _verification_table(ts, counts, cfg.n, est)
        for counts, est in zip(counter.hits(), estimates)
    )


class _EventCounter:
    """Hit counts of the events "at least k of the V_j, j in S, exceed
    c[j, m]" at each of the grid points m of one grid.

    Each coordinate j with its threshold row c_j is ranked once per block,
    rank_j = #{m : V_j > c[j, m]} (0 for nan, which exceeds nothing), and
    the rank is shared by every event that uses the same (j, c_j). The rows
    of c are nondecreasing, so V_j > c[j, m] exactly when rank_j > m, and an
    event holds at m exactly when the rowwise k-th largest rank_j over S
    exceeds m: its hits at m are the suffix sums past m of the bin counts of
    that rank.
    """

    def __init__(self, events: Sequence[tuple[np.ndarray, int, np.ndarray]], points: int):
        # The largest rank is the number of grid points.
        self.rank_type = np.min_scalar_type(points)
        slots: dict[tuple[int, tuple[float, ...]], int] = {}
        self.events: list[tuple[list[int], int]] = []
        for indices, k, c in events:
            keys = [(j, tuple(row.tolist())) for j, row in zip(indices.tolist(), c)]
            self.events.append(([slots.setdefault(key, len(slots)) for key in keys], k))
        self.columns = list(slots)
        self.bins = np.zeros((len(self.events), points + 1), dtype=np.int64)

    def add(self, z: np.ndarray) -> None:
        z = np.asfortranarray(z)
        ranks = []
        for j, thresholds in self.columns:
            column = z[:, j]
            rank = np.zeros(len(column), dtype=self.rank_type)
            for c in thresholds:
                rank += column > c
            ranks.append(rank)
        for bins, (members, k) in zip(self.bins, self.events):
            rank = _rowwise_kth_largest([ranks[i] for i in members], k)
            bins += np.bincount(rank, minlength=len(bins))

    def hits(self) -> np.ndarray:
        """events x points hit counts: [e, m] sums the bins past m."""
        return np.cumsum(self.bins[:, ::-1], axis=1)[:, ::-1][:, 1:]


def _verification_table(
    ts: tuple[float, ...], counts: np.ndarray, n: int, est: AsymptoticEstimate
) -> VerificationTable:
    """Rows hits/n with binomial errors sqrt(p(1-p)/n) against the law."""
    rows = []
    fit_points = []
    for t, hits in zip(ts, counts.tolist()):
        p = hits / n
        se = math.sqrt(p * (1.0 - p) / n)
        asym = math.exp(est.evaluate_log(t))
        ratio = p / asym if asym > 0.0 else math.nan
        flag = "ok" if hits >= LOW_HIT_THRESHOLD else "low-hits"
        rows.append(VerificationRow(t, p, se, asym, ratio, flag, hits))
        if hits >= LOW_HIT_THRESHOLD:
            fit_points.append((math.log(t), math.log(p)))

    if len(fit_points) >= 2:
        slope = float(
            np.polyfit([a for a, _ in fit_points], [b for _, b in fit_points], 1)[0]
        )
    else:
        slope = math.nan
    return VerificationTable(tuple(rows), slope, -est.power_exponent, est)


@dataclass(frozen=True)
class ConditionalCurve:
    """Empirical P(V1 > t | V2 > kappa t) along t, with conditioning counts."""

    kappa: float
    t_values: tuple[float, ...]
    probability: tuple[float, ...]
    conditioning_count: tuple[int, ...]


def conditional_exceedance_curves(blocks, kappas, t_grid) -> list[ConditionalCurve]:
    """Empirical P(V1 > t | V2 > kappa t) of columns 1 and 2, per kappa, over
    the rows of blocks: an iterable of n_i x d arrays with d >= 2, so a
    whole sample is [x], and a generator of the sampler's blocks keeps
    memory bounded by one block, not by n. Grid values may be small: these
    are purely empirical curves. Cells with an empty conditioning event are
    nan.

    Per kappa, the conditioning event V2 > kappa t and the joint event
    V1 > t, V2 > kappa t are counted on the t grid by _EventCounter, the
    counter verify_asymptotics uses; the thresholds are the float products
    kappa * t that a direct comparison uses. Only the first two columns of
    a block are read, so a column-major block is not copied.
    """
    ts = _increasing_grid(t_grid)
    kappas = [_positive_real(kappa, "kappa") for kappa in kappas]
    grid = np.array(ts)
    events = []
    for kappa in kappas:
        conditioning = kappa * grid
        events.append((np.array([1]), 1, conditioning[None]))
        events.append((np.array([0, 1]), 2, np.stack([grid, conditioning])))
    counter = _EventCounter(events, len(ts))
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] < 2:
            raise ValueError(
                f"blocks must be n x d arrays of samples with d >= 2, got shape {block.shape}"
            )
        counter.add(block[:, :2])
    hits = counter.hits().tolist()
    curves = []
    for kappa, denoms, joints in zip(kappas, hits[0::2], hits[1::2]):
        probs = tuple(j / c if c else math.nan for j, c in zip(joints, denoms))
        curves.append(ConditionalCurve(kappa, ts, probs, tuple(denoms)))
    return curves


def write_hill_csv(path, curves: Sequence[HillCurve]) -> None:
    """CSV schema: series,k,alpha_hat (floats via repr for byte stability)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["series", "k", "alpha_hat"])
        for curve in curves:
            for k, a in zip(curve.k_values, curve.alpha_hat):
                writer.writerow([curve.series_label, k, repr(float(a))])


def write_verification_csv(path, table: VerificationTable) -> None:
    """CSV schema: t,empirical,se,asymptotic,ratio,flag."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "empirical", "se", "asymptotic", "ratio", "flag"])
        for row in table.rows:
            writer.writerow(
                [
                    repr(float(row.t)),
                    repr(float(row.empirical)),
                    repr(float(row.se)),
                    repr(float(row.asymptotic)),
                    repr(float(row.ratio)),
                    row.flag,
                ]
            )


def write_conditional_csv(path, curves_by_side: dict[str, Sequence[ConditionalCurve]]) -> None:
    """CSV schema: side,kappa,t,probability,conditioning_count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["side", "kappa", "t", "probability", "conditioning_count"])
        for side in sorted(curves_by_side):
            for curve in curves_by_side[side]:
                for t, p, c in zip(
                    curve.t_values, curve.probability, curve.conditioning_count
                ):
                    writer.writerow(
                        [side, repr(float(curve.kappa)), repr(float(t)), repr(float(p)), c]
                    )
