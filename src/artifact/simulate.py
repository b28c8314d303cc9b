"""Seeded Monte Carlo engine: sampling, Hill curves, and verification tables.

Samples heavy-tailed vectors with normal dependence by the exact inverse-cdf
construction X_j = (1 - Phi(Z_j))^{-1/alpha}, Z ~ N(0, Sigma). Randomness is
counter-based: every fixed 8192-row block derives its own substream from
(seed, block index), so output is bit-identical for a given seed, and the
first rows of a sample do not depend on how many rows follow them. So the
blocks may be drawn in any order. One routine, _on_workers, splits a pass
between one worker per usable CPU, at most two (the calling thread and one
pool thread), and three passes run on it: _draw_blocks draws the blocks,
each worker into buffers it allocates once; _pareto_pass maps a sample in
place, in row chunks sized from the sample with one normal cdf call per
column slice, and counts the conditional curves of each chunk before and
after its map, each worker on counters of its own whose
integer bins are summed at the end; and hill_curves ranks the derived
series. Each item of a pass gives the same bytes on any worker, so no
output depends on the worker count. A block's product by the Cholesky
factor is taken in row slices of at most _PRODUCT_BUDGET multiply-adds (the
whole block for d <= 8): numpy's OpenBLAS runs a larger product on threads
of its own, which spin on the CPUs the workers need. A row of a product
does not depend on the rows beside it, so the slices give the same bytes.

On top of the sampler: derived per-row series (the rank-th largest value
over a coordinate subset, merged column by column into buffers allocated
before the merge), the Hill tail-index estimator, the conditional
exceedance curves P(V1 > t | V2 > kappa t), and the empirical-versus-
asymptotic verification table with its log-log slope diagnostic.
Each Hill worker keeps only the top k_max + 1 values of a series: it
merges the series in row chunks of at most _CHUNK_ROWS rows into one
buffer of max(2 (k_max + 1), min(n, k_max + 1 + _CHUNK_ROWS)) floats
allocated once, partitions the buffer whenever it is full, and sorts the
top in place at the end (the logs and cumulative sums go to the buffer's
first k_max + 1 floats), so no series allocates an n-float array.
_gaussian_sample fills one new column-major n x d array (so every column
is read whole, without a copy), _pareto_pass maps it in place, and the
curves are counted in row chunks, so a sample needs no n-sized temporary
beside it. Because every coordinate shares one increasing map Z_j -> X_j,
verification counts each tail set on the normal rows directly: X in
t * set is the event that at least k of the coordinates in a subset S
exceed per-coordinate normal thresholds, which are nondecreasing in t;
each worker counts its own blocks, and the integer counts are summed.
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

import math
import os
import threading
# futures.ThreadPoolExecutor loads its module at first use, so a command
# that draws no sample does not.
from concurrent import futures
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

import numpy as np
# Loaded here, at import time (numpy loads it on first use): every sample
# is drawn from it.
import numpy.random

from .asymptotics import AsymptoticEstimate, MarginalSpec, TailSet
from .gaussian import (
    _MAX_SEED,
    _finite_real,
    _integer,
    _ndtr,
    _ndtri,
    _positive_real,
)
from .linalg import CorrelationMatrix, IndexSubset, spd_factorize

# Substreams are derived per logical block of this many rows. The block size
# is part of the determinism contract: changing it changes every sample.
BLOCK_ROWS = 8192

# The most multiply-adds of one product of normal rows by the Cholesky
# factor (_draw_blocks). With scipy-openblas 0.3.31 on a 2-CPU machine,
# numpy ran products of 1.18M multiply-adds (8192 rows at d = 12) and more
# on about two CPUs, and every product of at most 2**19 on one.
_PRODUCT_BUDGET = 2**19

# Passes over a whole sample (the Hill merges and the conditional curves)
# run in row chunks of at most this many rows, so their temporaries take
# the size of a chunk, not of n.
_CHUNK_ROWS = 8 * BLOCK_ROWS

# Below this many exceedances an empirical/asymptotic ratio is noise.
LOW_HIT_THRESHOLD = 50

DEFAULT_HILL_POINTS = 40

# The hit counters are int64, so a sample has at most 2**63 - 1 rows.
_MAX_N = 2**63 - 1

_T = TypeVar("_T")
_I = TypeVar("_I")


@dataclass(frozen=True)
class SimulationConfig:
    """Sampling plan: matrix, marginal, sample count, seed (n and seed are
    stored as int)."""

    sigma: CorrelationMatrix
    marg: MarginalSpec
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "n", _integer(self.n, "n", 1, _MAX_N))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, _MAX_SEED))
        if self.marg.scale_c != 1.0:
            raise ValueError("simulation requires the pareto-exact marginal (scale_c = 1)")


def _block_rng(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(block,)))
    )


def _block_workers() -> int:
    """Workers for a pass over the sampler's blocks: one per CPU this process
    may run on, at most two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def _on_workers(items: Sequence[_I], work: Callable[[Iterator[_I]], _T]) -> list[_T]:
    """work's result on each worker's share of items, in worker order.

    Worker w of W = min(_block_workers(), len(items)) takes items w, w + W,
    w + 2W, ...: worker 0 is the calling thread, and every other worker
    runs on a thread of a ThreadPoolExecutor that lasts for the call (no
    items, no workers: the result is empty). work runs once per worker, on
    an iterator of that worker's items. An exception in a worker stops the
    others before their next item and is raised here once the pool has
    shut down.
    """
    workers = min(_block_workers(), len(items))
    stop = threading.Event()

    def share(w: int) -> Iterator[_I]:
        for i in range(w, len(items), workers):
            if stop.is_set():
                return
            yield items[i]

    def run(w: int) -> _T:
        try:
            return work(share(w))
        except BaseException:  # ends the other workers' shares at their next item
            stop.set()
            raise

    if not workers:
        return []
    with futures.ThreadPoolExecutor(max(1, workers - 1)) as pool:
        helpers = [pool.submit(run, w) for w in range(1, workers)]
        first = run(0)
    return [first] + [helper.result() for helper in helpers]


def _draw_blocks(
    cfg: SimulationConfig, work: Callable[[Iterator[tuple[slice, np.ndarray]]], _T]
) -> list[_T]:
    """work's result on each worker's share of the n x d correlated normal
    sample, in worker order.

    The sample is drawn in blocks of BLOCK_ROWS rows (the last may be
    shorter), block b from its own substream _block_rng(seed, b), so its
    rows do not depend on which worker draws it or when. The blocks are
    split between the workers by _on_workers, and work runs once per
    worker, on an iterator of (rows, z) pairs of that worker's blocks: rows
    is the slice of the sample that the block fills, and z its normal rows,
    column-major, in a buffer that the worker's next block overwrites.
    Each block is multiplied by the factor in row slices, each the largest
    power-of-two fraction of BLOCK_ROWS (at least one row) whose rows * d * d
    is at most _PRODUCT_BUDGET: the whole block for d <= 8. So no product
    is large enough for OpenBLAS to run it on threads of its own, which
    would compete with the workers for their CPUs. Every row of a product
    is computed on its own, so the slices give the bytes of one
    whole-block product.
    """
    # A C-contiguous copy of the transposed factor, made once per call.
    factor = np.ascontiguousarray(spd_factorize(cfg.sigma).T)
    n, d = cfg.n, cfg.sigma.dim
    step = BLOCK_ROWS
    while step > 1 and step * d * d > _PRODUCT_BUDGET:
        step //= 2

    def draws(blocks: Iterator[int]) -> Iterator[tuple[slice, np.ndarray]]:
        # Allocated once per worker; the column-major product is bit for bit
        # eta @ factor, and its columns are contiguous for the counters.
        eta = np.empty((BLOCK_ROWS, d))
        z = np.empty((BLOCK_ROWS, d), order="F")
        for block in blocks:
            start = block * BLOCK_ROWS
            rows = min(BLOCK_ROWS, n - start)
            _block_rng(cfg.seed, block).standard_normal(out=eta[:rows])
            for first in range(0, rows, step):
                part = slice(first, min(first + step, rows))
                np.matmul(eta[part], factor, out=z[part])
            yield slice(start, start + rows), z[:rows]

    return _on_workers(range(-(-n // BLOCK_ROWS)), lambda blocks: work(draws(blocks)))


def _gaussian_sample(cfg: SimulationConfig) -> np.ndarray:
    """n x d correlated standard normal rows, bit-reproducible per seed, in a
    new column-major array."""
    z = np.empty((cfg.n, cfg.sigma.dim), order="F")

    def fill(blocks):
        for rows, block in blocks:
            z[rows] = block

    _draw_blocks(cfg, fill)
    return z


def _row_chunks(n: int) -> Iterator[slice]:
    """Consecutive slices of at most _CHUNK_ROWS rows that cover n rows."""
    for start in range(0, n, _CHUNK_ROWS):
        yield slice(start, min(start + _CHUNK_ROWS, n))


def _pareto_pass(z: np.ndarray, alpha: float, grids=None):
    """Map the normal rows of an n x d array z in place to the exact
    Pareto(alpha) scale, X_j = survival(Z_j)^{-1/alpha}. With grids, a pair
    of (kappas, t_grid) pairs, also count the conditional curves of columns
    1 and 2: those of the first grid on the normal values and those of the
    second on the mapped ones, returned as two lists of curves; without
    grids nothing is counted and None is returned.

    One pass over the row chunks of z, split between the workers
    (_on_workers): in each chunk a worker counts the normal-scale
    curves, maps the chunk's slice of each column, and counts the
    heavy-tailed curves, each side on an _EventCounter of its own; the
    workers' integer bins are summed at the end. A column-major z is read
    and mapped without a copy. The map is elementwise, so neither the
    chunks nor the worker count change a bit of it. A value past the
    largest float (a small alpha) raises ValueError, with z partly mapped.
    """
    sides = [_curve_events(*grid) for grid in grids] if grids else []
    # Each row chunk's column slices take one _ndtr call each, with about
    # 27 bytes of scratch per value, so 54 bytes per chunk row on two
    # workers: within 1/12 of the sample once it has 84 * 2 * BLOCK_ROWS
    # values. A smaller sample takes the 2 * BLOCK_ROWS floor (its traced
    # peak is 1.117 times the sample at n = 300,000, d = 3). Up to the
    # _CHUNK_ROWS cap (simulate-d12's), a longer call spends less time in
    # numpy's work per call and in waiting for the GIL.
    step = min(_CHUNK_ROWS, max(2 * BLOCK_ROWS, z.size // 84))
    slices = [slice(start, start + step) for start in range(0, len(z), step)]

    def map_and_count(chunks: Iterator[slice]) -> list[_EventCounter]:
        counters = [_EventCounter(events, len(ts)) for _, ts, events in sides]
        for rows in chunks:
            block = z[rows]
            if counters:
                counters[0].add(block)
            for j in range(block.shape[1]):
                column = block[:, j]
                np.negative(column, out=column)
                _ndtr(column, out=column)
                # numpy's error state is per thread, so each worker sets it.
                with np.errstate(over="raise", divide="raise"):
                    np.power(column, -1.0 / alpha, out=column)
            if counters:
                counters[1].add(block)
        return counters

    try:
        parts = _on_workers(slices, map_and_count)
    except FloatingPointError:
        raise ValueError(
            f"the Pareto sample at alpha = {alpha!r} passes the largest float"
        ) from None
    if sides:
        return tuple(
            _curves(kappas, ts, [part[side] for part in parts])
            for side, (kappas, ts, _) in enumerate(sides)
        )
    return None


def _normal_event(
    tail_set: TailSet, dim: int, alpha: float, ts
) -> tuple[np.ndarray, int, np.ndarray]:
    """The tail set scaled by each t of ts, as an event on the normal rows Z
    of the exact Pareto(alpha) model X_j = survival(Z_j)^{-1/alpha}.

    Returns (indices S, count k, thresholds c): X is in t_m * set exactly
    when at least k of the Z_j, j in S, exceed c[j, m] = -Phi^{-1}((t_m x_j)^{-alpha}).
    A coordinate with t_m x_j <= 1 always exceeds (c = -inf). Each row of c
    is nondecreasing in t, as the events are nested: rounding in the power
    and in _ndtri can lower a threshold by an ulp between grid points a few
    ulps apart, and the running maximum undoes that.
    """
    tail_set.subset.validate_within(dim)
    survival = np.power(np.outer(tail_set.thresholds, ts), -alpha)
    return (
        tail_set.subset.as_indices(),
        tail_set.k,
        np.maximum.accumulate(-_ndtri(np.minimum(1.0, survival)), axis=1),
    )


def sample_rvgc(cfg: SimulationConfig) -> np.ndarray:
    """n x d sample of the heavy-tailed vector, X_j = survival(Z_j)^{-1/alpha}:
    the column-major normal sample, mapped in place. A sample past the
    largest float (a small alpha) raises ValueError."""
    z = _gaussian_sample(cfg)
    _pareto_pass(z, cfg.marg.alpha)
    return z


def _sample_matrix(samples) -> np.ndarray:
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2:
        raise ValueError(f"samples must be an n x d matrix, got shape {samples.shape}")
    return samples


def _series_columns(
    samples: np.ndarray, subset: IndexSubset, rank: int
) -> tuple[list[np.ndarray], int]:
    """The columns of samples in subset and the checked rank of a derived
    series."""
    subset.validate_within(samples.shape[1])
    rank = _integer(rank, "rank", 1, len(subset))
    return [samples[:, j] for j in subset.as_indices()], rank


def derived_series(samples: np.ndarray, subset: IndexSubset, rank: int) -> np.ndarray:
    """Rowwise rank-th largest value over the coordinates in subset: rank 1
    is the maximum, rank |subset| the minimum.

    The columns of the subset are merged by _rowwise_kth_largest, so a
    column-major (order="F") sample is read column by column and never
    copied. A single-coordinate result is a view of that column of samples,
    not a copy; every other result is a new array.
    """
    return _rowwise_kth_largest(*_series_columns(_sample_matrix(samples), subset, rank))


def _rowwise_kth_largest(
    columns: Sequence[np.ndarray], k: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Rowwise k-th largest of equal-length columns, 1 <= k <= len(columns),
    written to out (a new array when out is None; without out, a single
    column is returned as it is).

    The columns are merged one at a time into a rowwise sorted stack of the
    k largest values (or of the len(columns) - k + 1 smallest, when that is
    shorter) by elementwise maximum and minimum. Every slot of the stack is
    a buffer allocated before the merge, the last one being out. A column
    enters the stack from the bottom slot up, so the slot above is still
    unchanged when a slot is updated ("better" is larger in a stack of the
    largest values, smaller in one of the smallest): a new bottom slot
    takes the worse of the column and the slot above, every other slot
    below the top the median of itself, the column and the slot above (the
    worse of the slot above and the better of itself and the column), and
    the top the better of itself and the column. So no merge allocates,
    there are no spare buffers, and every kept value is exact.
    """
    size = len(columns)
    if out is None:
        if size == 1:
            return columns[0]
        out = np.empty_like(columns[0])
    if k <= size - k + 1:
        depth, keep, displace = k, np.maximum, np.minimum
    else:
        depth, keep, displace = size - k + 1, np.minimum, np.maximum
    slots = [np.empty_like(out) for _ in range(depth - 1)] + [out]
    # kept[0] is the first column as it is until a merge writes slot 0;
    # every other kept[i] is slots[i].
    kept: list[np.ndarray] = [columns[0]]
    for value in columns[1:]:
        levels = len(kept)
        if levels < depth:
            kept.append(displace(kept[-1], value, out=slots[levels]))
        for i in range(levels - 1, 0, -1):
            keep(slots[i], value, out=slots[i])
            displace(kept[i - 1], slots[i], out=slots[i])
        kept[0] = keep(kept[0], value, out=slots[0])
    if kept[-1] is not out:
        np.copyto(out, kept[-1])
    return out


@dataclass(frozen=True)
class HillCurve:
    """Tail-index estimates along the number of order statistics used.

    excluded_k lists grid points whose Hill mean was 0 (the top k + 1 values
    equal, a constant upper tail), where the estimate is undefined.
    """

    k_values: tuple[int, ...]
    alpha_hat: tuple[float, ...]
    excluded_k: tuple[int, ...] = ()


def default_k_grid(n: int) -> tuple[int, ...]:
    """40 log-spaced order-statistic counts in [10, n/4], deduplicated."""
    if n < 41:
        raise ValueError(f"default grid needs n >= 41 observations, got {n}")
    ks = np.round(np.geomspace(10, max(10, n // 4), DEFAULT_HILL_POINTS))
    # Deduplicated in Python: np.unique imports numpy.ma on its first call.
    return tuple(sorted({int(k) for k in ks}))


def _increasing(values: tuple, name: str) -> tuple:
    """values, checked to be nonempty and strictly increasing."""
    if len(values) == 0:
        raise ValueError(f"{name} must be nonempty")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be strictly increasing")
    return values


def resolve_k_grid(k_grid: Optional[Sequence[int]], n: int) -> tuple[int, ...]:
    """The Hill grid for n observations: k_grid checked, or the default grid."""
    if k_grid is None:
        return default_k_grid(n)
    return _increasing(tuple(_integer(k, "k_grid", 1, n - 1) for k in k_grid), "k_grid")


def hill_curves(
    samples, series: Sequence[tuple[IndexSubset, int]], k_grid: Optional[Sequence[int]] = None
) -> tuple[HillCurve, ...]:
    """Hill curve of each derived series (subset, rank) of an n x d sample of
    strictly positive finite values: the curve of
    hill_estimator(derived_series(samples, subset, rank), k_grid).

    The series are split between the workers (_on_workers). Each worker
    allocates one buffer of max(2 (k_max + 1), min(n, k_max + 1 +
    _CHUNK_ROWS)) floats, so on the default grid (k_max = n/4) two workers
    hold n floats between them, and on a fixed grid the buffers do not grow
    with n. A series is merged into the buffer's free part in row chunks
    (_series_top), and whenever the buffer is full it is partitioned to
    keep only the top k_max + 1 values; the top is then sorted in place,
    and the logs of its values and their cumulative sums go to the
    buffer's first k_max + 1 floats, which the top does not reach
    (_hill_curve). The top is the same multiset in whatever order it was
    selected, so the curves do not depend on the worker count. samples is
    never written, and its values are checked once: every derived value is
    one of them.
    """
    samples = _sample_matrix(samples)
    # min and max propagate nan, which fails both comparisons.
    if samples.size == 0 or not (samples.min() > 0.0 and samples.max() < math.inf):
        raise ValueError("hill estimator needs strictly positive finite data")
    n = samples.shape[0]
    ks = resolve_k_grid(k_grid, n)
    merges = [_series_columns(samples, subset, rank) for subset, rank in series]
    count = ks[-1] + 1
    size = max(2 * count, min(n, count + _CHUNK_ROWS))

    def rank_share(share: Iterator[tuple[list[np.ndarray], int]]) -> list[HillCurve]:
        buf = np.empty(size)
        return [_hill_curve(buf, _series_top(buf, columns, rank, count), ks) for columns, rank in share]

    # Worker w ranked the series w, w + W, w + 2W, ...
    parts = _on_workers(merges, rank_share)
    curves = [None] * len(merges)
    for w, part in enumerate(parts):
        curves[w :: len(parts)] = part
    return tuple(curves)


def _series_top(buf: np.ndarray, columns: Sequence[np.ndarray], rank: int, count: int) -> int:
    """Merge the rowwise rank-th largest of columns into the end of buf,
    keeping its top count values there; returns how many values end buf.

    buf holds at least 2 count floats. The series is merged in row chunks
    of at most _CHUNK_ROWS rows, each into the free floats just before the
    values held, so a merge slot takes the size of a chunk, not of n; the
    merge is elementwise, so the values are those of a whole-column merge.
    When buf is full and rows remain, it is partitioned at its size -
    count, which leaves the top count values held at its end.
    """
    n, size = len(columns[0]), buf.size
    held = start = 0
    while start < n:
        if held == size:
            buf.partition(size - count)
            held = count
        free = size - held
        stop = min(n, start + _CHUNK_ROWS, start + free)
        _rowwise_kth_largest(
            [column[start:stop] for column in columns], rank, out=buf[free - (stop - start) : free]
        )
        held += stop - start
        start = stop
    return held


def _hill_curve(buf: np.ndarray, held: int, ks: tuple[int, ...]) -> HillCurve:
    """Hill curve on the grid ks of the held values that end buf, reordering
    them in place: alpha_hat(k) = k / sum log(X_(i)/X_(k+1)), i <= k. buf
    holds at least 2 (ks[-1] + 1) floats, and its first ks[-1] + 1 are
    overwritten. A point k is excluded when the mean excess is not positive
    or the top k + 1 values are equal: then the mean is 0, and a rounding
    residue of the cumulative sum must not pass for an estimate."""
    # Only the top k_max + 1 values are sorted, in place after the
    # partition: the same array as the leading entries of the full
    # descending sort.
    count = ks[-1] + 1
    buf[buf.size - held :].partition(held - count)
    top = buf[buf.size - count :]
    top.sort()
    logs = buf[:count]
    # The logs of the reversed view, in descending order, as a full sort's
    # reversed view gives them: numpy's log of a contiguous input differs
    # from it in some last bits.
    np.log(top[::-1], out=logs)
    log_ks = [logs[k] for k in ks]
    log_top = logs[0]
    # cumsum adds in sequence, so in place it gives the same sums.
    np.cumsum(logs, out=logs)
    kept, alphas, excluded = [], [], []
    for k, log_k in zip(ks, log_ks):
        mean_excess = logs[k - 1] / k - log_k
        if mean_excess <= 0.0 or log_k == log_top:
            excluded.append(k)
            continue
        kept.append(k)
        alphas.append(float(1.0 / mean_excess))
    return HillCurve(tuple(kept), tuple(alphas), tuple(excluded))


def hill_estimator(data, k_grid: Optional[Sequence[int]] = None) -> HillCurve:
    """Hill tail-index curve: alpha_hat(k) = k / sum log(X_(i)/X_(k+1)), i <= k.

    The curve of the one-column sample data, by hill_curves: the data are
    ranked in a private copy, never in place.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"data must be one-dimensional, got shape {x.shape}")
    return hill_curves(x[:, None], [(IndexSubset.of(1), 1)], k_grid)[0]


def _increasing_grid(t_grid) -> tuple[float, ...]:
    ts = tuple(_finite_real(t, "t_grid") for t in t_grid)
    if any(t <= 0 for t in ts):
        raise ValueError("t_grid must be strictly positive finite reals")
    return _increasing(ts, "t_grid")


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
    rows with enough hits (nan when fewer than two qualify); the law's
    -power_exponent is its target.
    """

    rows: tuple[VerificationRow, ...]
    slope: float


def verify_asymptotics(
    cfg: SimulationConfig, laws: Sequence[tuple[TailSet, AsymptoticEstimate]], t_grid
) -> tuple[VerificationTable, ...]:
    """Compare empirical tail frequencies with the asymptotic law on a t grid,
    one table per tail set.

    laws pairs each tail set with its law under cfg's matrix and marginal,
    asymptotic_estimate(cfg.sigma, cfg.marg, tail_set), which the caller
    computes; each is evaluated at every t before any row is drawn, so a t
    outside a law's regime raises the law's ValueError before sampling.

    One pass over the sampler's normal blocks: each set at each t is the
    event "at least k of the coordinates in S exceed their thresholds" on the
    normal rows, so no row is mapped to the Pareto scale, and memory is
    bounded by one block per worker, not by n. The events are counted by
    grid rank (_EventCounter, which also counts the conditional curves):
    one comparison pass per coordinate and threshold, shared by every set
    that uses it. Rows with fewer than LOW_HIT_THRESHOLD exceedances are flagged
    "low-hits" and excluded from the slope fit.
    """
    ts = _increasing_grid(t_grid)
    log_laws = [[est.evaluate_log(t) for t in ts] for _, est in laws]
    events = [_normal_event(tail_set, cfg.sigma.dim, cfg.marg.alpha, ts) for tail_set, _ in laws]

    def count(blocks):
        counter = _EventCounter(events, len(ts))
        for _, z in blocks:
            counter.add(z)
        return counter

    # Each worker counts its own blocks.
    counts = _summed(_draw_blocks(cfg, count)).hits()
    return tuple(
        _verification_table(ts, hits, cfg.n, log_law) for hits, log_law in zip(counts, log_laws)
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
        """Count the rows of z; its columns are read as they are, so a
        column-major z is read without a copy. One row of comparisons is
        allocated per call and added to each rank in place, so no
        threshold allocates."""
        exceeds = np.empty(len(z), dtype=bool)
        ranks = []
        for j, thresholds in self.columns:
            column = z[:, j]
            rank = np.zeros(len(z), dtype=self.rank_type)
            for c in thresholds:
                np.greater(column, c, out=exceeds)
                np.add(rank, exceeds.view(np.uint8), out=rank)
            ranks.append(rank)
        for bins, (members, k) in zip(self.bins, self.events):
            rank = _rowwise_kth_largest([ranks[i] for i in members], k)
            bins += np.bincount(rank, minlength=len(bins))

    def hits(self) -> np.ndarray:
        """events x points hit counts: [e, m] sums the bins past m."""
        return np.cumsum(self.bins[:, ::-1], axis=1)[:, ::-1][:, 1:]


def _summed(counters: Sequence[_EventCounter]) -> _EventCounter:
    """The first of the workers' counters, holding the bins of all of them:
    integer bins sum exactly."""
    counter, *others = counters
    for other in others:
        counter.bins += other.bins
    return counter


def _verification_table(
    ts: tuple[float, ...], counts: np.ndarray, n: int, log_law
) -> VerificationTable:
    """Rows hits/n with binomial errors sqrt(p(1-p)/n) against a law whose
    logs at ts are log_law."""
    rows = []
    fit_points = []
    for t, hits, log_asym in zip(ts, counts.tolist(), log_law):
        p = hits / n
        se = math.sqrt(p * (1.0 - p) / n)
        asym = math.exp(log_asym)
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
    return VerificationTable(tuple(rows), slope)


@dataclass(frozen=True)
class ConditionalCurve:
    """Empirical P(V1 > t | V2 > kappa t) along t, with conditioning counts."""

    kappa: float
    t_values: tuple[float, ...]
    probability: tuple[float, ...]
    conditioning_count: tuple[int, ...]


def _curve_events(kappas, t_grid) -> tuple[tuple[float, ...], tuple[float, ...], list]:
    """The checked kappas and t grid of conditional curves, and their events
    on columns 1 and 2 for _EventCounter: per kappa, the conditioning event
    V2 > kappa t ("at least 1 of {V2}") and the joint event V1 > t,
    V2 > kappa t ("at least 2 of {V1, V2}"), at the float products kappa * t
    that a direct comparison uses."""
    ts = _increasing_grid(t_grid)
    kappas = tuple(_positive_real(kappa, "kappa") for kappa in kappas)
    grid = np.array(ts)
    events = []
    for kappa in kappas:
        conditioning = kappa * grid
        events.append((np.array([1]), 1, conditioning[None]))
        events.append((np.array([0, 1]), 2, np.stack([grid, conditioning])))
    return kappas, ts, events


def _curves(kappas, ts, counters: Sequence[_EventCounter]) -> list[ConditionalCurve]:
    """The curves of _curve_events(kappas, ts) from its workers' counters.
    Cells with an empty conditioning event are nan."""
    hits = _summed(counters).hits().tolist()
    curves = []
    for kappa, denoms, joints in zip(kappas, hits[0::2], hits[1::2]):
        probs = tuple(j / c if c else math.nan for j, c in zip(joints, denoms))
        curves.append(ConditionalCurve(kappa, ts, probs, tuple(denoms)))
    return curves


def conditional_exceedance_curves(blocks, kappas, t_grid) -> list[ConditionalCurve]:
    """Empirical P(V1 > t | V2 > kappa t) of columns 1 and 2, per kappa, over
    the rows of blocks: an iterable of n_i x d arrays with d >= 2, each
    counted in row chunks (_row_chunks), so a whole sample given as [x]
    takes chunk-sized temporaries, and a generator of the sampler's blocks
    keeps memory bounded by one block. Grid values may be small: these are
    purely empirical curves. Cells with an empty conditioning event are nan.

    Per kappa, the conditioning event V2 > kappa t and the joint event
    V1 > t, V2 > kappa t (_curve_events) are counted on the t grid by
    _EventCounter, the counter verify_asymptotics uses, on the calling
    thread; _pareto_pass counts the same curves on its workers. Only the
    first two columns of a block are read, so a column-major block is not
    copied.
    """
    kappas, ts, events = _curve_events(kappas, t_grid)
    counter = _EventCounter(events, len(ts))
    for block in blocks:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] < 2:
            raise ValueError(
                f"blocks must be n x d arrays of samples with d >= 2, got shape {block.shape}"
            )
        for rows in _row_chunks(len(block)):
            counter.add(block[rows, :2])
    return _curves(kappas, ts, [counter])
