"""Seeded Monte Carlo engine: sampling, derived series, Hill curves,
empirical tails, verification tables, and conditional exceedance curves."""

import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

import artifact.simulate as simulate
from artifact.asymptotics import MarginalSpec
from artifact.cli import (
    GAUSSIAN_KAPPAS,
    GAUSSIAN_T_GRID,
    PARETO_KAPPAS,
    PARETO_T_GRID,
    _write_csv,
)
from artifact.gaussian import _ndtr, _ndtri
from artifact.linalg import CorrelationMatrix, IndexSubset
from artifact.simulate import (
    BLOCK_ROWS,
    _CHUNK_ROWS,
    _PRODUCT_BUDGET,
    HillCurve,
    SimulationConfig,
    _draw_blocks,
    _gaussian_sample,
    _EventCounter,
    _increasing_grid,
    _normal_event,
    _on_workers,
    _pareto_pass,
    _rowwise_kth_largest,
    conditional_exceedance_curves,
    default_k_grid,
    derived_series,
    hill_curves,
    hill_estimator,
    sample_rvgc,
    verify_asymptotics,
)
from conftest import (
    at_least,
    box_complement,
    coupled_pair_matrix,
    equi_matrix,
    laws,
    normal_blocks,
    pareto_blocks,
    rect,
)
from oracles import (
    EmpiricalTail,
    empirical_tail,
    masked_conditional_curves,
    masked_event_hits,
    scaling_statistic,
    serial_gaussian_blocks,
    sorted_hill_estimator,
)

PARETO2 = MarginalSpec(alpha=2.0)
IDENTITY_1 = CorrelationMatrix(np.eye(1))
IDENTITY_2 = CorrelationMatrix(np.eye(2))


def config(sigma, n, seed) -> SimulationConfig:
    return SimulationConfig(sigma=sigma, marg=PARETO2, n=n, seed=seed)


def streamed_hits(cfg, sets, grid) -> list[tuple[int, ...]]:
    """Hits of each tail set at each t of grid, counted as verify_asymptotics
    counts them (an _EventCounter per worker over _draw_blocks), with no law."""
    events = [_normal_event(s, cfg.sigma.dim, cfg.marg.alpha, grid) for s in sets]

    def count(blocks):
        counter = _EventCounter(events, len(grid))
        for _, z in blocks:
            counter.add(z)
        return counter.hits()

    return [tuple(row) for row in sum(_draw_blocks(cfg, count)).tolist()]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            config(IDENTITY_2, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            config(IDENTITY_2, 10, -1)
        # bool is an int subclass; the CLI rejects it, and so does the config
        with pytest.raises(ValueError, match=r"n must be an integer in 1\.\.9223372036854775807, got True"):
            config(IDENTITY_2, True, 0)
        with pytest.raises(
            ValueError, match=r"seed must be an integer in 0\.\.18446744073709551615, got False"
        ):
            config(IDENTITY_2, 10, False)
        # NumPy integers are the numbers they hold, stored as int
        numpy_cfg = config(IDENTITY_2, np.int64(100), np.uint64(5))
        assert (type(numpy_cfg.n), type(numpy_cfg.seed)) == (int, int)
        assert np.array_equal(sample_rvgc(numpy_cfg), sample_rvgc(config(IDENTITY_2, 100, 5)))

    def test_n_fits_the_int64_hit_counters(self):
        with pytest.raises(ValueError, match=r"n must be an integer in 1\.\.9223372036854775807, got 9223372036854775808"):
            config(IDENTITY_2, 2**63, 0)
        assert config(IDENTITY_2, 2**63 - 1, 0).n == 2**63 - 1

    def test_requires_exact_marginal(self):
        loose = MarginalSpec(alpha=2.0, scale_c=2.0)
        with pytest.raises(ValueError, match="pareto-exact"):
            SimulationConfig(sigma=IDENTITY_2, marg=loose, n=10, seed=0)


class TestSampling:
    def test_sample_is_the_normal_sample_mapped_in_place(self):
        # One column-major n x d array and the sampler's per-worker block
        # buffers; a mapped copy beside the normal sample would make 2 n d
        # floats.
        n, d = 64 * BLOCK_ROWS + 5, 3
        cfg = config(equi_matrix(d, 0.5), n, 1)
        tracemalloc.start()
        try:
            x = sample_rvgc(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * n * d * 8, peak / (n * d * 8)
        assert x.flags.f_contiguous
        want = np.power(_ndtr(-_gaussian_sample(cfg)), -1.0 / PARETO2.alpha)
        assert x.tobytes() == want.tobytes()

    def test_marginal_tail_frequency(self):
        n = 200000
        x = sample_rvgc(config(IDENTITY_2, n, 1))
        se = math.sqrt(0.25 * 0.75 / n)
        for j in range(2):
            p = np.mean(x[:, j] > 2.0)
            assert abs(p - 0.25) <= 3.0 * se

    def test_support_above_one(self):
        x = sample_rvgc(config(coupled_pair_matrix(0.5), 5000, 2))
        assert x.shape == (5000, 3)
        assert np.min(x) > 1.0
        assert np.all(np.isfinite(x))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_small_alpha_past_largest_float_raises(self, set_workers, workers):
        # alpha = 0.01 maps the top rows of n = 2e4 past the largest float;
        # every worker raises numpy's overflow as an error, not a warning.
        set_workers(workers)
        cfg = SimulationConfig(sigma=IDENTITY_2, marg=MarginalSpec(alpha=0.01), n=20000, seed=1)
        with pytest.raises(ValueError, match=r"at alpha = 0\.01 passes the largest float"):
            sample_rvgc(cfg)

    def test_seed_determinism(self):
        a = sample_rvgc(config(IDENTITY_2, 20000, 7))
        b = sample_rvgc(config(IDENTITY_2, 20000, 7))
        assert np.array_equal(a, b)
        c = sample_rvgc(config(IDENTITY_2, 20000, 8))
        assert not np.array_equal(a, c)

    def test_sample_prefix_does_not_depend_on_n(self):
        # per-block streams: a longer sample extends a shorter one, including
        # the partial last block of the shorter sample
        short = sample_rvgc(config(coupled_pair_matrix(0.4), 30000, 9))
        long = sample_rvgc(config(coupled_pair_matrix(0.4), 40000, 9))
        assert np.array_equal(long[:30000], short)

    def test_marginals_pass_kolmogorov_smirnov(self):
        # exact inverse-CDF coupling: 1% critical value, 20 seeds
        n = 20000
        critical = 1.628 / math.sqrt(n)
        passes = 0
        for seed in range(20):
            x = sample_rvgc(config(IDENTITY_1, n, seed))[:, 0]
            stat = kstest(x, lambda s: 1.0 - np.asarray(s, dtype=float) ** -2.0).statistic
            passes += stat < critical
        assert passes >= 19

    def test_normal_scores_recover_the_correlation(self):
        sigma = coupled_pair_matrix(0.6)
        n = 100000
        x = sample_rvgc(config(sigma, n, 4))
        ranks = np.argsort(np.argsort(x, axis=0), axis=0) + 1
        scores = ndtri((ranks - 0.5) / n)
        corr = np.corrcoef(scores, rowvar=False)
        assert np.max(np.abs(corr - sigma.entries)) <= 3.0 / math.sqrt(n)


class TestDerivedSeries:
    ROW = np.array([[3.0, 1.0, 2.0]])

    def test_order_statistic(self):
        assert derived_series(self.ROW, IndexSubset.full(3), 2)[0] == 2.0
        assert derived_series(self.ROW, IndexSubset.full(3), 1)[0] == 3.0

    def test_min_over_set(self):
        assert derived_series(self.ROW, IndexSubset.of(1, 3), 2)[0] == 2.0

    def test_max_and_coordinate(self):
        assert derived_series(self.ROW, IndexSubset.full(3), 1)[0] == 3.0
        assert derived_series(self.ROW, IndexSubset.of(2), 1)[0] == 1.0

    def test_rowwise_order_relation(self, rng):
        samples = rng.pareto(2.0, size=(500, 4)) + 1.0
        top = derived_series(samples, IndexSubset.full(4), 1)
        second = derived_series(samples, IndexSubset.full(4), 2)
        bottom = derived_series(samples, IndexSubset.full(4), 4)
        assert np.all(top >= second) and np.all(second >= bottom)

    def test_every_rank_over_a_subset_is_the_sorted_column(self, rng):
        samples = rng.pareto(2.0, size=(500, 6)) + 1.0
        subset = IndexSubset.of(1, 3, 4, 6)
        ordered = np.sort(samples[:, subset.as_indices()], axis=1)[:, ::-1]
        for rank in range(1, 5):
            assert np.array_equal(derived_series(samples, subset, rank), ordered[:, rank - 1])

    @pytest.mark.parametrize("members", [(4,), (2, 5), (1, 3, 4, 6), (1, 2, 3, 4, 5, 6)])
    def test_column_major_input_gives_the_same_values(self, rng, members):
        samples = rng.pareto(2.0, size=(300, 6)) + 1.0
        column_major = np.asfortranarray(samples)
        subset = IndexSubset.of(*members)
        ordered = np.sort(samples[:, subset.as_indices()], axis=1)[:, ::-1]
        for rank in range(1, len(members) + 1):
            by_rows = derived_series(samples, subset, rank)
            by_columns = derived_series(column_major, subset, rank)
            assert np.array_equal(by_rows, ordered[:, rank - 1])
            assert np.array_equal(by_columns, ordered[:, rank - 1])

    def test_single_coordinate_is_a_view(self, rng):
        samples = np.asfortranarray(rng.pareto(2.0, size=(50, 5)) + 1.0)
        column = derived_series(samples, IndexSubset.of(2), 1)
        assert np.shares_memory(column, samples)
        # every other series is a new array, at every size and rank
        for size in range(2, 6):
            subset = IndexSubset.of(*range(1, size + 1))
            for rank in range(1, size + 1):
                assert not np.shares_memory(derived_series(samples, subset, rank), samples)

    # Up to 7 columns, so that stacks of depth 3 and 4 (rank 4 of 7) have
    # one and two slots between the top and the bottom.
    @pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("kind", ["float64", "uint8"])
    def test_rowwise_kth_largest_into_out(self, rng, size, kind):
        # Ties are common in both kinds: rank columns take few values, and a
        # third of the float entries are rounded to halves.
        if kind == "uint8":
            columns = [rng.integers(0, 4, size=300).astype(np.uint8) for _ in range(size)]
        else:
            columns = [rng.pareto(2.0, size=300) + 1.0 for _ in range(size)]
            for column in columns[::3]:
                column[:] = np.round(2.0 * column) / 2.0
        before = [column.copy() for column in columns]
        ordered = np.sort(np.stack(columns, axis=1), axis=1)[:, ::-1]
        for k in range(1, size + 1):
            out = np.full(300, 7, dtype=kind)
            allocated = _rowwise_kth_largest(columns, k)
            result = _rowwise_kth_largest(columns, k, out=out)
            assert result is out and result.dtype == kind
            assert np.array_equal(result, allocated)
            assert np.array_equal(result, ordered[:, k - 1])
            assert all(np.array_equal(c, b) for c, b in zip(columns, before))

    def test_validation(self):
        with pytest.raises(ValueError, match=r"rank must be an integer in 1\.\.3, got 5"):
            derived_series(self.ROW, IndexSubset.full(3), 5)
        with pytest.raises(ValueError, match="out of range"):
            derived_series(self.ROW, IndexSubset.of(4), 1)
        with pytest.raises(ValueError, match="out of range"):
            derived_series(self.ROW, IndexSubset.of(5), 1)
        with pytest.raises(ValueError, match="rank must be an integer"):
            derived_series(self.ROW, IndexSubset.full(3), "max")
        with pytest.raises(ValueError, match="n x d"):
            derived_series(np.ones(3), IndexSubset.full(3), 1)

    @pytest.mark.parametrize("rank", [0, -1, 3, True, False])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match=r"rank must be an integer in 1\.\.2"):
            derived_series(self.ROW, IndexSubset.of(1, 3), rank)

    @pytest.mark.parametrize("rank", [np.int64(1), np.int32(2), np.uint8(3)])
    def test_numpy_integer_rank(self, rank):
        expected = derived_series(self.ROW, IndexSubset.full(3), int(rank))
        assert np.array_equal(derived_series(self.ROW, IndexSubset.full(3), rank), expected)


class TestHill:
    def test_hand_computed_curve(self):
        data = [math.e**3, math.e**2, math.e, 1.0]
        curve = hill_estimator(data, k_grid=[3])
        assert curve.k_values == (3,)
        assert curve.alpha_hat[0] == pytest.approx(0.5, rel=1e-12)
        assert curve.excluded_k == ()

    def test_constant_data_excluded(self):
        curve = hill_estimator([5.0] * 100, k_grid=[3, 10])
        assert curve.k_values == ()
        assert curve.alpha_hat == ()
        assert curve.excluded_k == (3, 10)

    def test_pareto_consistency_over_seeds(self):
        hits, values = 0, []
        for seed in range(15):
            x = sample_rvgc(config(IDENTITY_1, 20000, seed))[:, 0]
            value = hill_estimator(x, k_grid=[500]).alpha_hat[0]
            values.append(value)
            hits += 1.8 <= value <= 2.2
        assert hits >= 13
        assert 1.8 <= float(np.median(values)) <= 2.2

    def test_partition_equals_full_sort(self, rng):
        data = rng.pareto(2.0, size=4001) + 1.0
        for k_grid in (None, [1, 7, 4000], [4000]):  # [.., n - 1]: nothing is cut off
            assert hill_estimator(data, k_grid) == sorted_hill_estimator(data, k_grid)

    def test_constant_upper_tail_matches_full_sort(self, rng):
        data = np.concatenate([rng.uniform(1.0, 4.0, size=200), np.full(30, 5.0)])
        rng.shuffle(data)
        k_grid = [1, 2, 5, 29, 30, 31, 100, 229]
        curve = hill_estimator(data, k_grid)
        assert curve == sorted_hill_estimator(data, k_grid)
        # Up to k = 29 the top k + 1 values are all 5; from k = 30 on the
        # (k + 1)-th value is below the constant.
        assert curve.excluded_k == (1, 2, 5, 29)
        assert curve.k_values == (30, 31, 100, 229)

    def test_constant_top_is_excluded_despite_rounding(self, rng):
        # The mean of k equal logs minus one of them leaves a rounding
        # residue at some k (here 5 and 7), which a test of the mean excess
        # alone keeps with an estimate near 1e16.
        data = np.concatenate([rng.uniform(1.0, 1.4, size=200), np.full(50, 1.5)])
        rng.shuffle(data)
        k_grid = [1, 2, 3, 5, 7, 40, 49, 50, 60]
        curve = hill_estimator(data, k_grid)
        assert curve == sorted_hill_estimator(data, k_grid)
        assert curve.excluded_k == (1, 2, 3, 5, 7, 40, 49)
        assert curve.k_values == (50, 60)
        assert all(type(a) is float and 0.0 < a < 100.0 for a in curve.alpha_hat)

    def test_batched_curves_equal_full_sort_of_each_series(self, rng):
        x = np.asfortranarray(rng.pareto(2.0, size=(3000, 4)) + 1.0)
        # Column 3 has a constant upper tail, so every series whose top is
        # that constant has excluded grid points.
        x[:, 2] = np.minimum(x[:, 2], 1.5)
        x_bytes = x.tobytes(order="A")
        series = [(IndexSubset.of(j), 1) for j in range(1, 5)]
        series += [(IndexSubset.of(a, b), 2) for a in range(1, 5) for b in range(a + 1, 5)]
        series += [(IndexSubset.full(4), rank) for rank in (1, 2, 4)] + [(IndexSubset.of(1, 3, 4), 2)]
        for k_grid in (None, [1, 2, 5, 40, 600, 2999]):
            curves = hill_curves(x, series, k_grid)
            assert len(curves) == len(series)
            for (subset, rank), curve in zip(series, curves):
                values = np.sort(x[:, subset.as_indices()], axis=1)[:, -rank]
                assert np.array_equal(derived_series(x, subset, rank), values)
                assert curve == sorted_hill_estimator(values, k_grid)
            assert x.tobytes(order="A") == x_bytes
        # k = 1 and 2 subtract log 1.5 from itself exactly.
        for subset in (IndexSubset.of(3), IndexSubset.of(2, 3)):
            assert hill_curves(x, [(subset, len(subset))], [1, 2, 40])[0].excluded_k[:2] == (1, 2)
        assert hill_curves(x, [], [5]) == ()

    def test_deep_merges_run_in_row_chunks(self, rng):
        # Ranks 2 and 3 of 4 columns hold one slot beside the buffer. Merged
        # in row chunks, it takes the size of a chunk, and the chunk
        # boundaries leave every value as a whole-column sort.
        n = 4 * _CHUNK_ROWS + 5
        x = np.asfortranarray(rng.pareto(2.0, size=(n, 4)) + 1.0)
        full = IndexSubset.full(4)
        k_grid = [10, 1000]
        tracemalloc.start()
        try:
            curves = hill_curves(x, [(full, 2), (full, 3)], k_grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The n-float buffer and a slot of one chunk (n/4 floats here); a
        # spare beside the slot would make 1.5 n, an n-sized slot 2 n.
        assert peak < 1.4 * n * 8, peak / (n * 8)
        ordered = np.sort(x, axis=1)
        for rank, curve in zip((2, 3), curves):
            assert curve == sorted_hill_estimator(ordered[:, -rank], k_grid)

    def test_default_grid_ranks_in_one_buffer_of_twice_the_top(self, rng):
        # The default grid's k_max is n/4: one series takes one worker, whose
        # buffer of 2 (k_max + 1) floats holds the top k_max + 1 values at
        # its end and their logs and cumulative sums in its head. A copy of
        # the whole series would make n floats, buffers of their own for the
        # logs 0.75 n.
        n = 4 * _CHUNK_ROWS + 5
        x = rng.pareto(2.0, size=(n, 1)) + 1.0
        tracemalloc.start()
        try:
            curve = hill_curves(x, [(IndexSubset.of(1), 1)])[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * n * 8, peak / (n * 8)
        assert curve == sorted_hill_estimator(x[:, 0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_n(self, set_workers, workers, rng):
        # On a fixed grid each worker's buffer holds k_max + 1 values and a
        # chunk at either n, and the one merge slot (X_(2) of the full set,
        # on one worker) a chunk. Whether the other worker's buffer is still
        # alive when that slot is taken depends on thread timing, so each n
        # is held to the sum of all of them, plus 64 kB for temporaries, not
        # to the other n: 1.11 MB on one worker, 1.64 MB on two. A buffer
        # of the whole series would hold n floats: 2 MB at the smaller n,
        # 8 MB at the larger.
        set_workers(workers)
        full = IndexSubset.full(3)
        series = [(IndexSubset.of(1), 1), (full, 2), (IndexSubset.of(2, 3), 2), (full, 1)]
        k_grid = [10, 100]
        count = k_grid[-1] + 1
        bound = 8 * (workers * max(2 * count, count + _CHUNK_ROWS) + _CHUNK_ROWS) + 2**16
        # The first call makes about 70 kB of one-time allocations.
        hill_curves(rng.pareto(2.0, size=(1000, 3)) + 1.0, series, k_grid)
        for n in (4 * _CHUNK_ROWS, 16 * _CHUNK_ROWS):
            x = np.asfortranarray(rng.pareto(2.0, size=(n, 3)) + 1.0)
            tracemalloc.start()
            try:
                hill_curves(x, series, k_grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (n, peak, bound)

    # The default grid at an n past three chunks (two partitions of the
    # buffer, then the last one), a small grid (one partition per chunk),
    # and k_max = n - 1, whose buffer of 2 n floats takes the whole series.
    @pytest.mark.parametrize(
        "n, k_grid",
        [(3 * _CHUNK_ROWS + 5, None), (3 * _CHUNK_ROWS + 5, [1, 5, 40]), (3001, [3, 3000])],
        ids=["default-grid", "small-grid", "k-max-n-1"],
    )
    def test_curves_do_not_depend_on_the_worker_count(self, set_workers, rng, n, k_grid):
        x = np.asfortranarray(rng.pareto(2.0, size=(n, 4)) + 1.0)
        full = IndexSubset.full(4)
        series = [(IndexSubset.of(j), 1) for j in range(1, 5)]
        series += [(IndexSubset.of(1, 2), 2), (full, 2), (full, 4), (full, 1), (IndexSubset.of(1, 3, 4), 3)]
        curves = {}
        for workers in (1, 2):
            set_workers(workers)
            curves[workers] = hill_curves(x, series, k_grid)
            assert hill_curves(x, [], k_grid) == ()
        # repr compares every float to the last bit.
        assert repr(curves[1]) == repr(curves[2])
        for (subset, rank), curve in zip(series, curves[2]):
            values = np.sort(x[:, subset.as_indices()], axis=1)[:, -rank]
            assert curve == sorted_hill_estimator(values, k_grid)

    def test_hill_estimator_leaves_its_input_unchanged(self, rng):
        data = rng.pareto(2.0, size=2001) + 1.0
        data_bytes = data.tobytes()
        curve = hill_estimator(data, [3, 100, 2000])
        assert data.tobytes() == data_bytes
        assert curve == sorted_hill_estimator(data, [3, 100, 2000])

    def test_batched_curves_validation(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(ValueError, match="n x d"):
            hill_curves(x[:, 0], [(IndexSubset.of(1), 1)], [1])
        with pytest.raises(ValueError, match="out of range"):
            hill_curves(x, [(IndexSubset.of(3), 1)], [1])
        with pytest.raises(ValueError, match=r"rank must be an integer in 1\.\.2"):
            hill_curves(x, [(IndexSubset.of(1, 2), 3)], [1])
        with pytest.raises(ValueError, match="k_grid must be an integer"):
            hill_curves(x, [(IndexSubset.of(1), 1)], [3])
        # every sample value is checked, in columns no series reads too
        for bad in (0.0, -1.0, math.nan, math.inf):
            y = x.copy()
            y[1, 1] = bad
            with pytest.raises(ValueError, match="positive"):
                hill_curves(y, [(IndexSubset.of(1), 1)], [1])

    def test_default_grid(self):
        grid = default_k_grid(20000)
        assert grid[0] == 10 and grid[-1] == 5000
        assert len(grid) <= 40
        assert all(a < b for a, b in zip(grid, grid[1:]))
        with pytest.raises(ValueError, match="n >= 41"):
            default_k_grid(40)

    @pytest.mark.parametrize("n", [41, 45, 100, 1000, 5 * 10**5, 10**7, 2**40])
    def test_default_grid_is_the_rounded_geometric_grid_deduplicated(self, n):
        ks = np.round(np.geomspace(10, max(10, n // 4), 40)).astype(int)
        assert default_k_grid(n) == tuple(int(k) for k in np.unique(ks))
        assert all(type(k) is int for k in default_k_grid(n))

    def test_k_grid_validation(self):
        data = np.arange(1.0, 101.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            hill_estimator(data, k_grid=[5, 5])
        with pytest.raises(ValueError, match=r"k_grid must be an integer in 1\.\.99, got 100"):
            hill_estimator(data, k_grid=[100])
        with pytest.raises(ValueError, match="nonempty"):
            hill_estimator(data, k_grid=[])
        # an entry that is not an integer is refused, not truncated or cast
        for grid, bad in (([5.7, 10], "5.7"), ([True, 10], "True"), (["5", 10], "'5'")):
            with pytest.raises(ValueError, match=f"k_grid must be an integer in 1\\.\\.99, got {bad}"):
                hill_estimator(data, k_grid=grid)

    def test_data_validation(self):
        for bad in ([1.0, -2.0, 3.0], [1.0, 0.0, 3.0], [1.0, math.nan, 3.0], [1.0, math.inf, 3.0]):
            with pytest.raises(ValueError, match="positive"):
                hill_estimator(bad, k_grid=[1])
        with pytest.raises(ValueError, match="one-dimensional"):
            hill_estimator(np.ones((3, 3)), k_grid=[1])


class TestEmpiricalTail:
    def test_small_example(self):
        tail = empirical_tail([1.0, 2.0, 3.0, 4.0], [2.5])
        assert tail.probability == (0.5,)
        assert tail.hits == (2,)
        assert tail.se[0] == pytest.approx(0.25)

    def test_pareto_point(self):
        x = sample_rvgc(config(IDENTITY_1, 100000, 3))[:, 0]
        tail = empirical_tail(x, [10.0])
        assert abs(tail.probability[0] - 0.01) <= 3.0 * tail.se[0] + 1e-12

    def test_monotone_nonincreasing(self):
        x = sample_rvgc(config(IDENTITY_1, 5000, 6))[:, 0]
        tail = empirical_tail(x, [1.5, 2.0, 4.0, 8.0])
        assert all(a >= b for a, b in zip(tail.probability, tail.probability[1:]))
        assert isinstance(tail, EmpiricalTail)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            empirical_tail([1.0, 2.0], [3.0, 2.0])
        with pytest.raises(ValueError, match="nonempty"):
            empirical_tail([1.0], [])


class TestIncreasingGrid:
    @pytest.mark.parametrize("grid", [["10", "20"], [True, 2.0], [1.0, 10**400], [1.0, math.nan]])
    def test_values_are_finite_reals(self, grid):
        with pytest.raises(ValueError, match="t_grid must be a finite number"):
            _increasing_grid(grid)

    def test_values_become_floats(self):
        grid = _increasing_grid([1, np.float64(2.5)])
        assert grid == (1.0, 2.5)
        assert all(type(t) is float for t in grid)


class TestVerifyAsymptotics:
    def test_independence_ratios_near_one(self):
        cfg = config(IDENTITY_2, 300000, 11)
        pairs = laws(cfg, [rect(IndexSubset.of(1, 2), (0.3, 0.3))])
        (table,) = verify_asymptotics(cfg, pairs, [10.0, 13.0, 17.0, 22.0, 28.0])
        assert -pairs[0][1].power_exponent == -4.0
        for row in table.rows:
            if row.hits >= 500:
                assert 0.9 <= row.ratio <= 1.1
        assert table.slope == pytest.approx(-4.0, abs=0.2)

    def test_correlated_slope_at_scale(self):
        # 10^7-sample slope diagnostic against the -8/3 decay law
        cfg = config(equi_matrix(2, 0.5), 10**7, 0)
        pairs = laws(cfg, [rect(IndexSubset.of(1, 2), (1.0, 1.0))])
        (table,) = verify_asymptotics(cfg, pairs, [10.0, 13.0, 17.0, 22.0, 29.0, 38.0, 50.0])
        assert -pairs[0][1].power_exponent == pytest.approx(-8.0 / 3.0, rel=1e-12)
        assert -2.93 <= table.slope <= -2.40

    def test_at_least_slope_target(self):
        cfg = config(coupled_pair_matrix(0.6), 50000, 2)
        pairs = laws(cfg, [at_least((1.0, 1.0, 1.0), 3)])
        verify_asymptotics(cfg, pairs, [10.0, 14.0, 18.0])
        assert -pairs[0][1].power_exponent == pytest.approx(-2.5, abs=1e-12)

    def test_low_hit_rows_flagged_and_excluded(self):
        cfg = config(IDENTITY_2, 2000, 5)
        (table,) = verify_asymptotics(
            cfg, laws(cfg, [rect(IndexSubset.of(1, 2), (1.0, 1.0))]), [10.0, 20.0, 1000.0]
        )
        last = table.rows[-1]
        assert last.flag == "low-hits"
        assert last.hits < 50
        assert math.isnan(table.slope)  # fewer than two usable rows


# One set of each kind at d = 3, with thresholds low enough that every t of
# STREAM_GRID is hit at the larger n.
STREAM_SETS = (
    rect(IndexSubset.of(1, 3), (0.2, 0.3)),
    at_least((0.2, 0.2, 0.2), 2),
    box_complement((1.0, 2.0, 1.0)),
)
STREAM_GRID = [10.0, 20.0, 40.0]

# Sets whose coordinates share or split grid ranks, and a grid too long for
# a uint8 rank (its last 44 points lie past 255).
SHARED_RANK_CASES = {
    "same-coordinate-other-threshold": (
        equi_matrix(3, 0.5),
        (
            rect(IndexSubset.of(1, 3), (0.2, 0.3)),
            rect(IndexSubset.of(1), (0.3,)),
            rect(IndexSubset.of(3), (0.3,)),
        ),
        STREAM_GRID,
    ),
    "at-least-2-and-3-of-4": (
        equi_matrix(4, 0.5),
        (at_least((0.2,) * 4, 2), at_least((0.2, 0.3, 0.2, 0.3), 3), at_least((0.2,) * 4, 3)),
        STREAM_GRID,
    ),
    "full-rectangle-and-at-least-d": (
        equi_matrix(3, 0.5),
        (rect(IndexSubset.full(3), (0.2, 0.2, 0.2)), at_least((0.2, 0.2, 0.2), 3)),
        STREAM_GRID,
    ),
    "300-point-grid": (equi_matrix(3, 0.5), STREAM_SETS, np.geomspace(10.0, 40.0, 300).tolist()),
}


class TestStreamedVerification:
    """verify_asymptotics counts block by block; the counts must be those of
    the whole sample drawn at once."""

    @pytest.mark.parametrize(
        "n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]
    )
    def test_hits_equal_materialized_counts(self, n):
        cfg = config(equi_matrix(3, 0.5), n, 17)
        tables = verify_asymptotics(cfg, laws(cfg, STREAM_SETS), STREAM_GRID)
        x = sample_rvgc(cfg)
        assert len(tables) == len(STREAM_SETS)
        for table, tail_set in zip(tables, STREAM_SETS):
            want = empirical_tail(scaling_statistic(x, tail_set), STREAM_GRID)
            assert tuple(row.hits for row in table.rows) == want.hits
            assert tuple(row.empirical for row in table.rows) == want.probability
            assert tuple(row.se for row in table.rows) == want.se
        if n > BLOCK_ROWS:
            assert all(row.hits > 0 for table in tables for row in table.rows)

    def test_thresholds_below_one_over_t_hit_every_row(self):
        # At t = 10 every coordinate with threshold 0.05 or 0.08 is certain
        # (t x_j < 1, so its normal threshold is -inf): the rectangle and the
        # box complement hold on every row. At t = 20, 20 * 0.05 = 1 exactly.
        sets = (
            rect(IndexSubset.of(1, 2), (0.05, 0.08)),
            at_least((0.05, 0.3, 2.0), 2),
            box_complement((0.05, 1.0, 1.0)),
        )
        n = 2 * BLOCK_ROWS + 7
        cfg = config(equi_matrix(3, 0.5), n, 23)
        hits = streamed_hits(cfg, sets, STREAM_GRID)
        x = sample_rvgc(cfg)
        for got, tail_set in zip(hits, sets):
            assert got == empirical_tail(scaling_statistic(x, tail_set), STREAM_GRID).hits
        assert hits[0][0] == n
        assert hits[2][0] == n
        assert 0 < hits[1][0] < n
        # Each set's law is outside its regime at t = 10, so none is verified.
        for tail_set in sets:
            with pytest.raises(ValueError, match="the limit law does not apply"):
                verify_asymptotics(cfg, laws(cfg, [tail_set]), STREAM_GRID)

    @pytest.mark.parametrize("alpha", [0.7, 1.3, 3.5])
    def test_hits_equal_materialized_counts_for_other_alpha(self, alpha):
        n = 3 * BLOCK_ROWS + 5
        cfg = SimulationConfig(
            sigma=equi_matrix(3, 0.5), marg=MarginalSpec(alpha=alpha), n=n, seed=29
        )
        x = sample_rvgc(cfg)
        wants = [empirical_tail(scaling_statistic(x, s), STREAM_GRID) for s in STREAM_SETS]
        assert streamed_hits(cfg, STREAM_SETS, STREAM_GRID) == [want.hits for want in wants]
        if alpha == 0.7:
            # The law of "at least 2 of 3 exceed 0.2" is 1.497 at t = 10.
            with pytest.raises(ValueError, match="above 0"):
                verify_asymptotics(cfg, laws(cfg, STREAM_SETS), STREAM_GRID)
            return
        tables = verify_asymptotics(cfg, laws(cfg, STREAM_SETS), STREAM_GRID)
        for table, want in zip(tables, wants):
            assert tuple(row.hits for row in table.rows) == want.hits
            assert tuple(row.empirical for row in table.rows) == want.probability

    def test_refuses_a_law_outside_its_regime_before_drawing(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(simulate, "_draw_blocks", no_draw)
        cfg = config(equi_matrix(3, 0.5), BLOCK_ROWS, 1)
        # The first set's law holds on the whole grid; the second set's is
        # refused at t = 20 only.
        given = laws(cfg, [STREAM_SETS[0], rect(IndexSubset.of(1, 2), (0.05, 1.0))])
        with pytest.raises(ValueError, match=r"t \* min\(thresholds\) = 20.0 \* 0.05 is at most 1"):
            verify_asymptotics(cfg, given, [20.0, 40.0])

    @pytest.mark.parametrize("case", list(SHARED_RANK_CASES))
    def test_hits_equal_materialized_counts_for_shared_ranks(self, case):
        sigma, sets, grid = SHARED_RANK_CASES[case]
        cfg = config(sigma, 3 * BLOCK_ROWS + 5, 31)
        tables = verify_asymptotics(cfg, laws(cfg, sets), grid)
        x = sample_rvgc(cfg)
        for table, tail_set in zip(tables, sets):
            want = empirical_tail(scaling_statistic(x, tail_set), grid)
            assert tuple(row.hits for row in table.rows) == want.hits
            assert tuple(row.empirical for row in table.rows) == want.probability
            assert tuple(row.se for row in table.rows) == want.se
        assert all(row.hits > 0 for table in tables for row in table.rows)

    def test_counts_equal_direct_comparisons_on_the_thresholds(self, rng):
        # Every coordinate takes values exactly on its thresholds and one
        # ulp either side, so the strict > of each grid point is checked.
        sets = STREAM_SETS + (
            at_least((0.2, 0.3, 0.4), 3),
            rect(IndexSubset.of(2), (0.3,)),
        )
        events = [_normal_event(tail_set, 3, 2.0, STREAM_GRID) for tail_set in sets]
        on = np.concatenate([c.ravel() for _, _, c in events])
        values = np.unique(np.concatenate([on, np.nextafter(on, -np.inf), np.nextafter(on, np.inf)]))
        z = rng.choice(values, size=(20000, 3))
        counter = _EventCounter(events, len(STREAM_GRID))
        counter.add(z[:7])
        counter.add(z[7:])
        assert counter.hits().tolist() == masked_event_hits(z, events)

    @pytest.mark.parametrize("points", [255, 256, 300])
    def test_infinite_thresholds_nan_and_ranks_past_255_points(self, points):
        # Thresholds from -inf to inf: every value but nan and -inf exceeds
        # the first, none the last, and nan exceeds nothing. Past 255 grid
        # points the ranks are uint16: a uint8 rank would wrap to 0 on a
        # value that exceeds 256 thresholds.
        c = np.concatenate([[-np.inf], np.linspace(-3.0, 3.0, points - 2), [np.inf]])
        values = np.concatenate([[np.nan, -np.inf, np.inf, 10.0], c[1:-1], np.nextafter(c[1:-1], np.inf)])
        z = np.column_stack([values, values[::-1]])
        events = [(np.array([0]), 1, c[None]), (np.array([0, 1]), 2, np.stack([c, c]))]
        counter = _EventCounter(events, points)
        assert counter.rank_type == (np.uint8 if points <= 255 else np.uint16)
        counter.add(z)
        hits = counter.hits().tolist()
        assert hits == masked_event_hits(z, events)
        assert (hits[0][0], hits[0][-1]) == (len(values) - 2, 0)
        # inf, 10 and the float above 3 exceed every finite threshold.
        assert hits[0][-2] == 3

    def test_thresholds_are_nondecreasing_on_an_ulp_grid(self):
        # At these t the rounded normal threshold falls by an ulp from one
        # float to the next; the events are nested, so the thresholds may not.
        grid = [64.59721981904619]
        for _ in range(3):
            grid.append(float(np.nextafter(grid[-1], np.inf)))
        raw = -_ndtri(np.power(np.array(grid), -2.0))
        assert np.any(np.diff(raw) < 0)
        events = [_normal_event(rect(IndexSubset.of(1), (1.0,)), 1, 2.0, grid)]
        c = events[0][2]
        assert np.all(np.diff(c, axis=1) >= 0)
        z = np.unique(np.concatenate([raw, np.nextafter(raw, -np.inf), np.nextafter(raw, np.inf)]))
        counter = _EventCounter(events, len(grid))
        counter.add(z[:, None])
        hits = counter.hits()[0]
        assert np.all(np.diff(hits) <= 0)
        assert hits.tolist() == masked_event_hits(z[:, None], events)[0]
        cfg = config(IDENTITY_1, 5 * BLOCK_ROWS, 3)
        (table,) = verify_asymptotics(cfg, laws(cfg, [rect(IndexSubset.of(1), (1.0,))]), grid)
        assert np.all(np.diff([row.hits for row in table.rows]) <= 0)

    def test_one_pass_equals_one_pass_per_set(self):
        cfg = config(equi_matrix(3, 0.5), 3 * BLOCK_ROWS + 5, 13)
        together = verify_asymptotics(cfg, laws(cfg, STREAM_SETS), STREAM_GRID)
        alone = tuple(verify_asymptotics(cfg, laws(cfg, [s]), STREAM_GRID)[0] for s in STREAM_SETS)
        assert together == alone

    def test_memory_does_not_grow_with_n(self):
        # Tracemalloc sees numpy's buffers. A materialized pass would hold
        # n x d floats: 3.1 MB at the smaller n, 25 MB at the larger.
        sigma = equi_matrix(6, 0.5)
        sets = [
            rect(IndexSubset.of(1, 2), (1.0, 1.0)),
            at_least((1.0,) * 6, 2),
            box_complement((1.0,) * 6),
        ]
        grid = [10.0, 14.0, 20.0, 28.0, 40.0]
        given = laws(config(sigma, 1, 1), sets)  # fills the QP cache
        verify_asymptotics(config(sigma, 1, 1), given, grid)  # loads what a first pass loads
        peaks = []
        for n in (8 * BLOCK_ROWS + 5, 64 * BLOCK_ROWS + 5):
            tracemalloc.start()
            try:
                verify_asymptotics(config(sigma, n, 1), given, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks), peaks
        assert max(peaks) < 4 * 2**20, peaks


class TestBlockWorkers:
    """The sampler's blocks are drawn and counted on one or two workers; the
    sample and every count must not depend on how many."""

    def test_without_an_affinity_mask_the_cpu_count_decides(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert simulate._block_workers() == min(2, os.cpu_count() or 1)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 6, 12, 16, 40])
    def test_sample_equals_serial_blocks_bit_for_bit(self, set_workers, workers, d, rng):
        # Two whole blocks and a partial one; a random correlation matrix.
        # From d = 12 each block is multiplied in row slices (8 of them at
        # d = 40), and the oracle multiplies each block whole.
        a = rng.standard_normal((d, d))
        s = a @ a.T + d * np.eye(d)
        scale = 1.0 / np.sqrt(np.diagonal(s))
        lower = np.tril(s * scale[:, None] * scale[None, :], -1)
        cfg = config(CorrelationMatrix(lower + lower.T + np.eye(d)), 2 * BLOCK_ROWS + 37, 8)
        want = np.concatenate([z for _, z in serial_gaussian_blocks(cfg)]).tobytes()
        set_workers(workers)
        got = _gaussian_sample(cfg)
        assert got.flags.f_contiguous
        assert np.ascontiguousarray(got).tobytes() == want

    @pytest.mark.parametrize("d, step", [(1, BLOCK_ROWS), (6, BLOCK_ROWS), (12, 2048), (16, 2048), (40, 256)])
    def test_blocks_are_multiplied_in_slices_within_the_product_budget(self, set_workers, monkeypatch, d, step):
        # Each product's rows, in order: one worker draws the blocks in order.
        products = []
        matmul = np.matmul

        def recording(a, b, **kwargs):
            products.append(len(a))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        set_workers(1)
        n = 2 * BLOCK_ROWS + 37
        _gaussian_sample(config(CorrelationMatrix(np.eye(d)), n, 5))
        assert all(rows * d * d <= _PRODUCT_BUDGET for rows in products)
        # The largest power-of-two fraction of a block within the budget.
        assert BLOCK_ROWS % step == 0
        assert step == BLOCK_ROWS or 2 * step * d * d > _PRODUCT_BUDGET
        # Every slice of a block but its tail has step rows.
        want = []
        for start in range(0, n, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, n - start)
            want += [step] * (rows // step) + ([rows % step] if rows % step else [])
        assert products == want
        if d <= 8:
            assert len(products) == 3

    @pytest.mark.parametrize(
        "n, shares",
        [(3 * BLOCK_ROWS + 5, [[0, 2], [1, 3]]), (BLOCK_ROWS - 1, [[0]]), (BLOCK_ROWS, [[0]])],
    )
    def test_worker_w_draws_blocks_w_plus_multiples_of_the_worker_count(self, set_workers, n, shares):
        set_workers(2)
        cfg = config(IDENTITY_2, n, 3)
        got = _draw_blocks(cfg, lambda blocks: [(rows, len(z)) for rows, z in blocks])
        assert [[rows.start // BLOCK_ROWS for rows, _ in share] for share in got] == shares
        assert all(rows.stop - rows.start == size for share in got for rows, size in share)
        assert sum(size for share in got for _, size in share) == n

    @pytest.mark.parametrize("n", [3 * BLOCK_ROWS + 5, BLOCK_ROWS - 1])
    def test_verification_does_not_depend_on_the_worker_count(self, set_workers, n):
        cfg = config(equi_matrix(3, 0.5), n, 19)
        tables = {}
        for workers in (1, 2):
            set_workers(workers)
            tables[workers] = verify_asymptotics(cfg, laws(cfg, STREAM_SETS), STREAM_GRID)
        # repr compares every float to the last bit, nan included.
        assert repr(tables[1]) == repr(tables[2])

    @pytest.mark.parametrize("failing", ["helper", "main"])
    def test_a_worker_exception_reaches_the_caller(self, set_workers, failing):
        set_workers(2)
        cfg = config(IDENTITY_2, 6 * BLOCK_ROWS, 3)

        def work(blocks):
            in_main = threading.current_thread() is threading.main_thread()
            for _ in blocks:
                if in_main == (failing == "main"):
                    raise RuntimeError(f"{failing} failed")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            _draw_blocks(cfg, work)
        assert threading.active_count() == before

    def test_a_helper_exception_ends_the_callers_share_after_its_block(self, set_workers):
        set_workers(2)
        cfg = config(IDENTITY_2, 40 * BLOCK_ROWS, 3)
        caller = threading.current_thread()
        caller_busy, helper_failed = threading.Event(), threading.Event()
        seen = []

        def work(blocks):
            for rows, _ in blocks:
                if threading.current_thread() is not caller:
                    # Fail while the caller holds its first block.
                    caller_busy.wait(timeout=10.0)
                    helper_failed.set()
                    raise RuntimeError("helper failed")
                seen.append(rows.start // BLOCK_ROWS)
                caller_busy.set()
                # The helper's failure sets the stop before this pause ends.
                helper_failed.wait(timeout=10.0)
                time.sleep(0.2)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            _draw_blocks(cfg, work)
        # Block 0 of the caller's 20; the stop ends its share there.
        assert seen == [0]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("d", [1, 2, 3, 12])
    def test_pareto_transform_equals_the_serial_map_bit_for_bit(self, set_workers, workers, d):
        # Every n here is one 65,536-row chunk, which one worker maps;
        # TestParetoPass maps larger samples on two.
        n = BLOCK_ROWS + 37 if d == 2 else 2 * BLOCK_ROWS + 37
        cfg = config(equi_matrix(d, 0.5), n, 4)
        z = _gaussian_sample(cfg)
        want = np.power(_ndtr(-z), -1.0 / PARETO2.alpha).tobytes()
        set_workers(workers)
        assert sample_rvgc(cfg).tobytes() == want
        # A C-ordered array is mapped in place.
        c_order = np.ascontiguousarray(z)
        assert _pareto_pass(c_order, PARETO2.alpha) is None
        assert np.asfortranarray(c_order).tobytes() == want


class TestParetoPass:
    """One pass after the draw maps the sample to the Pareto scale in place
    and counts both sides' conditional curves, chunk by chunk, on the
    workers; map and curves must be the serial reference's, bit for bit."""

    GRIDS = ((GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID), (PARETO_KAPPAS, PARETO_T_GRID))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [2 * _CHUNK_ROWS + 37, 100])
    @pytest.mark.parametrize("d", [2, 12])
    def test_equals_the_serial_reference_bit_for_bit(self, set_workers, workers, n, d):
        cfg = config(equi_matrix(d, 0.5), n, 9)
        z = _gaussian_sample(cfg)
        x = np.power(_ndtr(-z), -1.0 / PARETO2.alpha)
        want = (
            conditional_exceedance_curves([z], GAUSSIAN_KAPPAS, GAUSSIAN_T_GRID),
            conditional_exceedance_curves([x], PARETO_KAPPAS, PARETO_T_GRID),
        )
        set_workers(workers)
        got = _pareto_pass(z, PARETO2.alpha, self.GRIDS)
        assert z.tobytes() == x.tobytes()
        assert len(got) == 2
        for side, reference in zip(got, want):
            assert_same_curves(side, reference)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("order", ["F", "C"])
    def test_without_grids_it_maps_only(self, set_workers, workers, order):
        # Three chunks, so two workers share them; a C-ordered array's
        # column slices are strided, and are mapped in place too.
        cfg = config(equi_matrix(3, 0.5), 2 * _CHUNK_ROWS + 37, 9)
        z = np.asarray(_gaussian_sample(cfg), order=order)
        x = np.power(_ndtr(-z), -1.0 / PARETO2.alpha)
        set_workers(workers)
        assert _pareto_pass(z, PARETO2.alpha) is None
        assert z.flags[f"{order}_CONTIGUOUS"]
        assert z.tobytes() == x.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_overflow_in_the_helpers_chunk_raises(self, set_workers, workers):
        # Only row 5 of the second chunk, the helper's on two workers, maps
        # past the largest float at alpha = 0.01.
        z = np.zeros((2 * _CHUNK_ROWS + 37, 2), order="F")
        z[_CHUNK_ROWS + 5, 1] = 10.0
        set_workers(workers)
        with pytest.raises(ValueError, match=r"at alpha = 0\.01 passes the largest float"):
            _pareto_pass(z, 0.01, self.GRIDS)


class TestOnWorkers:
    """The one routine that splits a pass between the workers: the sampler's
    blocks, the Pareto pass's row chunks and the Hill series."""

    @pytest.mark.parametrize(
        "items, shares",
        [(range(5), [[0, 2, 4], [1, 3]]), (["a"], [["a"]]), ([], [])],
        ids=["five", "one", "none"],
    )
    def test_worker_w_takes_items_w_plus_multiples_of_the_worker_count(self, set_workers, items, shares):
        set_workers(2)
        caller = threading.current_thread()
        got = _on_workers(items, lambda share: (threading.current_thread() is caller, list(share)))
        assert [share for _, share in got] == shares
        # Worker 0 is the calling thread, worker 1 a pool thread.
        assert [in_caller for in_caller, _ in got] == [True, False][: len(shares)]

    @pytest.mark.parametrize("failing", ["helper", "main"])
    def test_a_worker_exception_reaches_the_caller(self, set_workers, failing):
        set_workers(2)

        def work(share):
            in_main = threading.current_thread() is threading.main_thread()
            for _ in share:
                if in_main == (failing == "main"):
                    raise RuntimeError(f"{failing} failed")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"{failing} failed"):
            _on_workers(range(6), work)
        assert threading.active_count() == before

    def test_a_helper_exception_ends_the_callers_share_after_its_item(self, set_workers):
        set_workers(2)
        caller = threading.current_thread()
        caller_busy, helper_failed = threading.Event(), threading.Event()
        seen = []

        def work(share):
            for item in share:
                if threading.current_thread() is not caller:
                    # Fail while the caller holds its first item.
                    caller_busy.wait(timeout=10.0)
                    helper_failed.set()
                    raise RuntimeError("helper failed")
                seen.append(item)
                caller_busy.set()
                # The helper's failure sets the stop before this pause ends.
                helper_failed.wait(timeout=10.0)
                time.sleep(0.2)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="helper failed"):
            _on_workers(range(40), work)
        # Item 0 of the caller's 20; the stop ends its share there.
        assert seen == [0]
        assert threading.active_count() == before


class TestConditionalCurves:
    def test_pareto_diagonal_decreases_toward_zero(self):
        cfg = config(equi_matrix(2, 2.0 / 3.0), 200000, 5)
        (curve,) = conditional_exceedance_curves(
            pareto_blocks(cfg), [1.0], [1.0, 2.0, 5.0, 10.0, 20.0]
        )
        probs = curve.probability
        assert probs[0] > 0.9
        assert all(a >= b - 0.02 for a, b in zip(probs, probs[1:]))
        assert probs[-1] < 0.25

    def test_gaussian_margin_dominated_kappa_stabilizes(self):
        cfg = config(equi_matrix(2, 2.0 / 3.0), 200000, 5)
        (curve,) = conditional_exceedance_curves(normal_blocks(cfg), [2.0], [0.5, 1.0, 1.5, 2.0])
        assert all(p > 0.5 for p in curve.probability)

    def test_empty_conditioning_yields_nan(self):
        cfg = config(IDENTITY_2, 1000, 0)
        (curve,) = conditional_exceedance_curves(normal_blocks(cfg), [50.0], [1.0, 2.0])
        assert all(math.isnan(p) for p in curve.probability)
        assert curve.conditioning_count == (0, 0)

    def test_kappa_validation(self):
        with pytest.raises(ValueError, match="kappa"):
            conditional_exceedance_curves([np.ones((10, 2))], [0.0], [1.0])

    @pytest.mark.parametrize("shape", [(10,), (10, 1), (0,), (2, 3, 2)])
    def test_samples_validation(self, shape):
        with pytest.raises(ValueError, match="samples"):
            conditional_exceedance_curves([np.ones(shape)], [1.0], [1.0])


def assert_same_curves(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.kappa, a.t_values, a.conditioning_count) == (
            b.kappa,
            b.t_values,
            b.conditioning_count,
        )
        assert np.array_equal(a.probability, b.probability, equal_nan=True)


class TestConditionalCounting:
    """The binned counts must be the per-cell mask counts, cell for cell."""

    KAPPAS = (1.0, 2.0, 2.5, 3.0)
    GRID = (0.3, 0.7, 1.0, 1.1, 2.0, 5.0)

    def test_values_on_the_thresholds(self):
        ts = np.array(self.GRID)
        edges = np.concatenate([ts] + [kappa * ts for kappa in self.KAPPAS])
        values = np.unique(
            np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
        )
        v1, v2 = np.meshgrid(values, values)
        samples = np.column_stack([v1.ravel(), v2.ravel()])
        got = conditional_exceedance_curves([samples], self.KAPPAS, self.GRID)
        assert_same_curves(got, masked_conditional_curves(samples, self.KAPPAS, self.GRID))

    def test_gaussian_grid_values(self, rng):
        grid = tuple(round(0.1 * i, 1) for i in range(1, 21))
        kappas = (1.0, 2.0, 2.5)
        ts = np.array(grid)
        on_grid = np.concatenate([ts] + [kappa * ts for kappa in kappas])
        samples = np.concatenate(
            [
                np.column_stack([on_grid, on_grid[::-1]]),
                np.column_stack([on_grid[::-1], on_grid]),
                rng.standard_normal((5000, 2)) * 1.5,
            ]
        )
        got = conditional_exceedance_curves([samples], kappas, grid)
        assert_same_curves(got, masked_conditional_curves(samples, kappas, grid))

    def test_nan_exceeds_nothing(self):
        samples = np.array([[np.nan, 3.0], [3.0, np.nan], [3.0, 3.0], [np.nan, np.nan]])
        got = conditional_exceedance_curves([samples], [1.0], [1.0, 2.0])
        assert_same_curves(got, masked_conditional_curves(samples, [1.0], [1.0, 2.0]))
        assert got[0].conditioning_count == (2, 2)

    def test_wide_grid_with_infinities_and_nan(self, rng):
        # 320 grid points: a value can exceed more thresholds than a uint8
        # rank holds.
        grid = tuple(float(t) for t in np.linspace(0.5, 40.0, 320))
        kappas = (1.0, 1.5)
        special = [np.inf, -np.inf, np.nan, 100.0]
        edges = np.array([[a, b] for a in special for b in special])
        samples = np.concatenate([edges, rng.uniform(0.0, 80.0, (5000, 2))])
        got = conditional_exceedance_curves([samples], kappas, grid)
        assert_same_curves(got, masked_conditional_curves(samples, kappas, grid))

    def test_empty_conditioning_event(self):
        samples = np.array([[10.0, 1.0], [20.0, 2.0]])
        got = conditional_exceedance_curves([samples], [1.0, 4.0], [0.5, 1.0])
        assert_same_curves(got, masked_conditional_curves(samples, [1.0, 4.0], [0.5, 1.0]))
        assert got[0].conditioning_count == (2, 1)
        assert got[0].probability == (1.0, 1.0)
        assert got[1].conditioning_count == (0, 0)
        assert all(math.isnan(p) for p in got[1].probability)

    @pytest.mark.parametrize(
        "n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 5]
    )
    def test_streamed_curves_equal_materialized_masks(self, n):
        cfg = config(equi_matrix(3, 0.5), n, 31)
        grids = {
            "gaussian": ((1.0, 2.0, 2.5), [0.1, 0.5, 1.0, 1.5, 2.0]),
            "pareto": ((1.0, 3.0, 5.0), [1.0, 2.0, 5.0, 10.0, 30.0]),
        }
        samples = {"gaussian": _gaussian_sample(cfg), "pareto": sample_rvgc(cfg)}
        blocks = {"gaussian": normal_blocks, "pareto": pareto_blocks}
        for side, (kappas, grid) in grids.items():
            want = masked_conditional_curves(samples[side], kappas, grid)
            streamed = conditional_exceedance_curves(blocks[side](cfg), kappas, grid)
            given = conditional_exceedance_curves([samples[side]], kappas, grid)
            assert_same_curves(streamed, want)
            assert_same_curves(given, want)

    @pytest.mark.parametrize(
        "blocks",
        [normal_blocks, pareto_blocks, lambda cfg: [sample_rvgc(cfg)]],
        ids=["gaussian", "pareto", "materialized"],
    )
    def test_memory_does_not_grow_with_n(self, blocks):
        # A materialized sample would hold n x d floats: 1.6 MB at the
        # smaller n, 12.6 MB at the larger. One given whole, as [x], is
        # drawn before the trace starts and counted in row chunks, so the
        # temporaries take the size of a chunk (the smaller n is one chunk
        # and 5 rows).
        sigma = equi_matrix(3, 0.5)
        peaks = []
        for n in (8 * BLOCK_ROWS + 5, 64 * BLOCK_ROWS + 5):
            given = blocks(config(sigma, n, 1))
            tracemalloc.start()
            try:
                conditional_exceedance_curves(given, [1.0, 2.0], [0.5, 1.0, 2.0])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks), peaks
        assert max(peaks) < 2**20, peaks


def hill_rows(label, curve):
    return [(label, k, a) for k, a in zip(curve.k_values, curve.alpha_hat)]


class TestCsvWriters:
    """The cli writer on the rows of each library result."""

    def test_hill_csv_schema_and_bytes(self, tmp_path):
        curve = HillCurve((3, 7), (0.5, 0.75))
        path = tmp_path / "hill.csv"
        _write_csv(path, ["series", "k", "alpha_hat"], hill_rows("min_all", curve))
        text = path.read_bytes()
        assert b"\r" not in text
        lines = text.decode().splitlines()
        assert lines[0] == "series,k,alpha_hat"
        assert lines[1] == "min_all,3,0.5"
        _write_csv(tmp_path / "again.csv", ["series", "k", "alpha_hat"], hill_rows("min_all", curve))
        assert (tmp_path / "again.csv").read_bytes() == text

    def test_verification_csv_schema(self, tmp_path):
        cfg = config(IDENTITY_2, 20000, 1)
        (table,) = verify_asymptotics(
            cfg, laws(cfg, [rect(IndexSubset.of(1, 2), (0.5, 0.5))]), [10.0, 15.0]
        )
        path = tmp_path / "verify.csv"
        _write_csv(
            path,
            ["t", "empirical", "se", "asymptotic", "ratio", "flag"],
            [(r.t, r.empirical, r.se, r.asymptotic, r.ratio, r.flag) for r in table.rows],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "t,empirical,se,asymptotic,ratio,flag"
        assert len(lines) == 3
        assert lines[1].startswith("10.0,")

    def test_conditional_csv_schema(self, tmp_path):
        cfg = config(IDENTITY_2, 5000, 2)
        curves = conditional_exceedance_curves(pareto_blocks(cfg), [1.0], [1.0, 2.0])
        path = tmp_path / "cond.csv"
        _write_csv(
            path,
            ["side", "kappa", "t", "probability", "conditioning_count"],
            [
                ("pareto", curve.kappa, t, p, c)
                for curve in curves
                for t, p, c in zip(curve.t_values, curve.probability, curve.conditioning_count)
            ],
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "side,kappa,t,probability,conditioning_count"
        assert lines[1].startswith("pareto,1.0,1.0,")
