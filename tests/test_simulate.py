"""Seeded Monte Carlo engine: sampling, derived series, Hill curves,
empirical tails, verification tables, and conditional exceedance curves."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri
from scipy.stats import kstest

from artifact.asymptotics import (
    MarginalSpec,
    _normal_event,
)
from artifact.linalg import CorrelationMatrix, IndexSubset
from artifact.simulate import (
    BLOCK_ROWS,
    HillCurve,
    SimulationConfig,
    _gaussian_sample,
    _EventCounter,
    _increasing_grid,
    conditional_exceedance_curves,
    default_k_grid,
    derived_series,
    hill_estimator,
    sample_rvgc,
    verify_asymptotics,
    write_conditional_csv,
    write_hill_csv,
    write_verification_csv,
)
from conftest import (
    at_least,
    box_complement,
    coupled_pair_matrix,
    equi_matrix,
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
    sorted_hill_estimator,
)

PARETO2 = MarginalSpec(alpha=2.0)
IDENTITY_1 = CorrelationMatrix(np.eye(1))
IDENTITY_2 = CorrelationMatrix(np.eye(2))


def config(sigma, n, seed) -> SimulationConfig:
    return SimulationConfig(sigma=sigma, marg=PARETO2, n=n, seed=seed)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n must be"):
            config(IDENTITY_2, 0, 0)
        with pytest.raises(ValueError, match="seed"):
            config(IDENTITY_2, 10, -1)
        # bool is an int subclass; the CLI rejects it, and so does the config
        with pytest.raises(ValueError, match="n must be a positive integer, got True"):
            config(IDENTITY_2, True, 0)
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer, got False"):
            config(IDENTITY_2, 10, False)

    def test_n_fits_the_int64_hit_counters(self):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            config(IDENTITY_2, 2**63, 0)
        assert config(IDENTITY_2, 2**63 - 1, 0).n == 2**63 - 1

    def test_requires_exact_marginal(self):
        loose = MarginalSpec(alpha=2.0, scale_c=2.0)
        with pytest.raises(ValueError, match="pareto-exact"):
            SimulationConfig(sigma=IDENTITY_2, marg=loose, n=10, seed=0)


class TestSampling:
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
        samples = np.asfortranarray(rng.pareto(2.0, size=(50, 3)) + 1.0)
        column = derived_series(samples, IndexSubset.of(2), 1)
        assert np.shares_memory(column, samples)
        assert not np.shares_memory(derived_series(samples, IndexSubset.of(1, 2), 1), samples)

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

    @pytest.mark.parametrize("rank", [0, -1, 3])
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match=r"rank must be an integer in 1\.\.2"):
            derived_series(self.ROW, IndexSubset.of(1, 3), rank)


class TestHill:
    def test_hand_computed_curve(self):
        data = [math.e**3, math.e**2, math.e, 1.0]
        curve = hill_estimator(data, k_grid=[3], series_label="toy")
        assert curve.k_values == (3,)
        assert curve.alpha_hat[0] == pytest.approx(0.5, rel=1e-12)
        assert curve.series_label == "toy"
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
        # k = 1 and 2 subtract log 5 from itself exactly; from k = 30 on the
        # (k + 1)-th value is below the constant.
        assert curve.excluded_k[:2] == (1, 2)
        assert curve.k_values[-4:] == (30, 31, 100, 229)

    def test_default_grid(self):
        grid = default_k_grid(20000)
        assert grid[0] == 10 and grid[-1] == 5000
        assert len(grid) <= 40
        assert all(a < b for a, b in zip(grid, grid[1:]))
        with pytest.raises(ValueError, match="n >= 41"):
            default_k_grid(40)

    def test_k_grid_validation(self):
        data = np.arange(1.0, 101.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            hill_estimator(data, k_grid=[5, 5])
        with pytest.raises(ValueError, match=r"\[1, 99\]"):
            hill_estimator(data, k_grid=[100])
        with pytest.raises(ValueError, match="nonempty"):
            hill_estimator(data, k_grid=[])

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
        (table,) = verify_asymptotics(
            cfg, [rect(IndexSubset.of(1, 2), (0.3, 0.3))], [10.0, 13.0, 17.0, 22.0, 28.0]
        )
        assert table.slope_target == -4.0
        for row in table.rows:
            if row.hits >= 500:
                assert 0.9 <= row.ratio <= 1.1
        assert table.slope == pytest.approx(-4.0, abs=0.2)

    def test_correlated_slope_at_scale(self):
        # 10^7-sample slope diagnostic against the -8/3 decay law
        cfg = config(equi_matrix(2, 0.5), 10**7, 0)
        (table,) = verify_asymptotics(
            cfg,
            [rect(IndexSubset.of(1, 2), (1.0, 1.0))],
            [10.0, 13.0, 17.0, 22.0, 29.0, 38.0, 50.0],
        )
        assert table.slope_target == pytest.approx(-8.0 / 3.0, rel=1e-12)
        assert -2.93 <= table.slope <= -2.40

    def test_at_least_slope_target(self):
        cfg = config(coupled_pair_matrix(0.6), 50000, 2)
        (table,) = verify_asymptotics(cfg, [at_least((1.0, 1.0, 1.0), 3)], [10.0, 14.0, 18.0])
        assert table.slope_target == pytest.approx(-2.5, abs=1e-12)

    def test_low_hit_rows_flagged_and_excluded(self):
        cfg = config(IDENTITY_2, 2000, 5)
        (table,) = verify_asymptotics(
            cfg, [rect(IndexSubset.of(1, 2), (1.0, 1.0))], [10.0, 20.0, 1000.0]
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
        tables = verify_asymptotics(cfg, STREAM_SETS, STREAM_GRID)
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
        tables = verify_asymptotics(cfg, sets, STREAM_GRID)
        x = sample_rvgc(cfg)
        for table, tail_set in zip(tables, sets):
            want = empirical_tail(scaling_statistic(x, tail_set), STREAM_GRID)
            assert tuple(row.hits for row in table.rows) == want.hits
        assert tables[0].rows[0].hits == n
        assert tables[2].rows[0].hits == n
        assert 0 < tables[1].rows[0].hits < n

    @pytest.mark.parametrize("alpha", [0.7, 1.3, 3.5])
    def test_hits_equal_materialized_counts_for_other_alpha(self, alpha):
        n = 3 * BLOCK_ROWS + 5
        cfg = SimulationConfig(
            sigma=equi_matrix(3, 0.5), marg=MarginalSpec(alpha=alpha), n=n, seed=29
        )
        tables = verify_asymptotics(cfg, STREAM_SETS, STREAM_GRID)
        x = sample_rvgc(cfg)
        for table, tail_set in zip(tables, STREAM_SETS):
            want = empirical_tail(scaling_statistic(x, tail_set), STREAM_GRID)
            assert tuple(row.hits for row in table.rows) == want.hits
            assert tuple(row.empirical for row in table.rows) == want.probability

    @pytest.mark.parametrize("case", list(SHARED_RANK_CASES))
    def test_hits_equal_materialized_counts_for_shared_ranks(self, case):
        sigma, sets, grid = SHARED_RANK_CASES[case]
        cfg = config(sigma, 3 * BLOCK_ROWS + 5, 31)
        tables = verify_asymptotics(cfg, sets, grid)
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

    def test_thresholds_are_nondecreasing_on_an_ulp_grid(self):
        # At these t the rounded normal threshold falls by an ulp from one
        # float to the next; the events are nested, so the thresholds may not.
        grid = [35.65216314007357]
        for _ in range(3):
            grid.append(float(np.nextafter(grid[-1], np.inf)))
        raw = -ndtri(np.power(np.array(grid), -2.0))
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
        (table,) = verify_asymptotics(
            config(IDENTITY_1, 5 * BLOCK_ROWS, 3), [rect(IndexSubset.of(1), (1.0,))], grid
        )
        assert np.all(np.diff([row.hits for row in table.rows]) <= 0)

    def test_one_pass_equals_one_pass_per_set(self):
        cfg = config(equi_matrix(3, 0.5), 3 * BLOCK_ROWS + 5, 13)
        together = verify_asymptotics(cfg, STREAM_SETS, STREAM_GRID)
        alone = tuple(verify_asymptotics(cfg, [s], STREAM_GRID)[0] for s in STREAM_SETS)
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
        verify_asymptotics(config(sigma, 1, 1), sets, grid)  # fills the QP cache
        peaks = []
        for n in (8 * BLOCK_ROWS + 5, 64 * BLOCK_ROWS + 5):
            tracemalloc.start()
            try:
                verify_asymptotics(config(sigma, n, 1), sets, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks), peaks
        assert max(peaks) < 4 * 2**20, peaks


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

    @pytest.mark.parametrize("blocks", [normal_blocks, pareto_blocks], ids=["gaussian", "pareto"])
    def test_memory_does_not_grow_with_n(self, blocks):
        # A materialized sample would hold n x d floats: 1.6 MB at the
        # smaller n, 12.6 MB at the larger.
        sigma = equi_matrix(3, 0.5)
        peaks = []
        for n in (8 * BLOCK_ROWS + 5, 64 * BLOCK_ROWS + 5):
            tracemalloc.start()
            try:
                conditional_exceedance_curves(
                    blocks(config(sigma, n, 1)), [1.0, 2.0], [0.5, 1.0, 2.0]
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.1 * min(peaks), peaks
        assert max(peaks) < 2**20, peaks


class TestCsvWriters:
    def test_hill_csv_schema_and_bytes(self, tmp_path):
        curve = HillCurve((3, 7), (0.5, 0.75), "min_all")
        path = tmp_path / "hill.csv"
        write_hill_csv(path, [curve])
        text = path.read_bytes()
        assert b"\r" not in text
        lines = text.decode().splitlines()
        assert lines[0] == "series,k,alpha_hat"
        assert lines[1] == "min_all,3,0.5"
        write_hill_csv(tmp_path / "again.csv", [curve])
        assert (tmp_path / "again.csv").read_bytes() == text

    def test_verification_csv_schema(self, tmp_path):
        cfg = config(IDENTITY_2, 20000, 1)
        (table,) = verify_asymptotics(
            cfg, [rect(IndexSubset.of(1, 2), (0.5, 0.5))], [10.0, 15.0]
        )
        path = tmp_path / "verify.csv"
        write_verification_csv(path, table)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,empirical,se,asymptotic,ratio,flag"
        assert len(lines) == 3
        assert lines[1].startswith("10.0,")

    def test_conditional_csv_schema(self, tmp_path):
        cfg = config(IDENTITY_2, 5000, 2)
        curves = conditional_exceedance_curves(pareto_blocks(cfg), [1.0], [1.0, 2.0])
        path = tmp_path / "cond.csv"
        write_conditional_csv(path, {"pareto": curves})
        lines = path.read_text().splitlines()
        assert lines[0] == "side,kappa,t,probability,conditioning_count"
        assert lines[1].startswith("pareto,1.0,1.0,")
