"""Metric definitions vs brute-force oracles and distributional checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volab import metrics
from volab.labels import DataError
from volab.metrics import (
    ROW_METRICS,
    auroc,
    bootstrap_ci,
    brier_and_reliability,
    regression_metrics,
    stratified_sens_spec,
)

from oracles import (
    auroc_pairs,
    average_ranks,
    bootstrap_ci_loop,
    report_metric_1d,
)

unit_floats = st.floats(0.0, 1.0, width=64)


class TestRegressionMetrics:
    def test_perfect_prediction(self):
        t = np.array([0.2, 0.5, 0.9])
        m = regression_metrics(t, t)
        assert m["mse"] == 0 and m["mae"] == 0
        assert m["r2"] == pytest.approx(1.0)
        assert m["pearson"] == pytest.approx(1.0)

    def test_constant_mean_prediction_scores_zero_r2(self):
        t = np.array([0.1, 0.5, 0.9])
        m = regression_metrics(np.full(3, t.mean()), t)
        assert m["r2"] == pytest.approx(0.0)
        assert m["pearson"] is None

    def test_three_sample_direct_recomputation(self):
        p = np.array([0.1, 0.4, 0.8])
        t = np.array([0.2, 0.5, 0.7])
        m = regression_metrics(p, t)
        assert m["mse"] == pytest.approx(np.mean((p - t) ** 2))
        assert m["mae"] == pytest.approx(np.mean(np.abs(p - t)))
        assert m["r2"] == pytest.approx(
            1 - np.sum((p - t) ** 2) / np.sum((t - t.mean()) ** 2))
        assert m["pearson"] == pytest.approx(np.corrcoef(p, t)[0, 1])

    def test_constant_target_rejected(self):
        with pytest.raises(DataError):
            regression_metrics(np.array([0.1, 0.9]), np.array([0.5, 0.5]))

    def test_length_mismatch_and_empty(self):
        with pytest.raises(DataError):
            regression_metrics(np.zeros(3), np.zeros(2))
        with pytest.raises(DataError):
            regression_metrics(np.zeros(0), np.zeros(0))

    @given(st.lists(unit_floats, min_size=2, max_size=12),
           st.lists(unit_floats, min_size=2, max_size=12))
    @settings(max_examples=60)
    def test_matches_numpy_recomputation(self, pv, tv):
        n = min(len(pv), len(tv))
        p, t = np.array(pv[:n]), np.array(tv[:n])
        if t.std() == 0 or p.std() == 0:
            return
        m = regression_metrics(p, t)
        assert m["pearson"] == pytest.approx(np.corrcoef(p, t)[0, 1],
                                             abs=1e-9)
        assert m["r2"] <= 1.0


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_eight_sample_case_vs_pair_oracle(self):
        scores = np.array([0.1, 0.8, 0.35, 0.35, 0.7, 0.2, 0.9, 0.5])
        labels = np.array([0, 1, 0, 1, 1, 0, 1, 0])
        assert auroc(scores, labels) == pytest.approx(
            auroc_pairs(scores, labels), abs=1e-12)

    def test_soft_labels_thresholded(self):
        assert auroc([0.2, 0.9], [0.3, 0.8]) == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([0.2, 0.9], [1, 1])

    @given(st.lists(unit_floats, min_size=2, max_size=12),
           st.lists(st.integers(0, 1), min_size=2, max_size=12))
    @settings(max_examples=80)
    def test_matches_pair_counting(self, sv, lv):
        n = min(len(sv), len(lv))
        s, y = np.array(sv[:n]), np.array(lv[:n])
        if y.min() == y.max():
            return
        assert auroc(s, y) == pytest.approx(auroc_pairs(s, y), abs=1e-12)

    @given(st.lists(st.integers(0, 100), min_size=4, max_size=12),
           st.lists(st.integers(0, 1), min_size=4, max_size=12))
    @settings(max_examples=40)
    def test_monotone_transform_invariance(self, sv, lv):
        # coarse grid keeps distinct scores distinct under the transforms
        n = min(len(sv), len(lv))
        s, y = np.array(sv[:n]) / 100.0, np.array(lv[:n])
        if y.min() == y.max():
            return
        base = auroc(s, y)
        assert auroc(np.exp(3.0 * s), y) == pytest.approx(base, abs=1e-12)
        assert auroc(0.1 + 0.5 * s, y) == pytest.approx(base, abs=1e-12)


def _rank_inputs(kind):
    rng = np.random.default_rng(RANK_INPUTS.index(kind))
    if kind == "random":
        return rng.standard_normal((5, 30))
    if kind == "heavy_ties":
        return rng.integers(0, 3, size=(6, 40)).astype(np.float64)
    if kind == "all_tied":
        return np.full((3, 9), 0.25)
    if kind == "single_column":
        return rng.uniform(size=(4, 1))
    return np.round(rng.uniform(size=(1, 17)), 1)  # one row


RANK_INPUTS = ("random", "heavy_ties", "all_tied", "single_column",
               "one_row")


class TestAverageRanks:
    @pytest.mark.parametrize("kind", RANK_INPUTS)
    def test_matches_rankdata(self, kind):
        P = _rank_inputs(kind)
        mine, want = metrics._average_ranks(P), average_ranks(P)
        assert mine.dtype == want.dtype == np.float64
        assert np.array_equal(mine, want)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_bootstrap_auroc_interval_unchanged(self, seed, monkeypatch):
        # 0.1-grid scores: most resamples hold ties across both classes
        rng = np.random.default_rng(seed)
        p = np.round(rng.uniform(size=30), 1)
        t = (rng.uniform(size=30) < 0.4) * 1.0
        mine = bootstrap_ci(ROW_METRICS["auroc"], p, t, n=500, seed=seed)
        monkeypatch.setattr(metrics, "_average_ranks", average_ranks)
        assert mine == bootstrap_ci(ROW_METRICS["auroc"], p, t, n=500,
                                    seed=seed)


class TestBrierReliability:
    def test_perfect_predictions(self):
        brier, _ = brier_and_reliability([0.0, 1.0, 1.0], [0, 1, 1])
        assert brier == 0.0

    def test_constant_half(self):
        brier, rows = brier_and_reliability([0.5] * 20, [0, 1] * 10)
        assert brier == pytest.approx(0.25)
        assert sum(r[2] for r in rows) == 20

    def test_hundred_samples_partition_exactly(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(size=100)
        y = (rng.uniform(size=100) < p).astype(float)
        brier, rows = brier_and_reliability(p, y)
        assert [r[2] for r in rows] == [10] * 10
        assert brier == pytest.approx(np.mean((p - y) ** 2))
        # bins tile the sorted predictions: means must be nondecreasing
        means = [r[0] for r in rows]
        assert all(a <= b for a, b in zip(means, means[1:]))

    @given(st.integers(10, 200))
    @settings(max_examples=30)
    def test_counts_differ_by_at_most_one(self, n):
        rng = np.random.default_rng(n)
        p = rng.uniform(size=n)
        _, rows = brier_and_reliability(p, rng.integers(0, 2, size=n))
        counts = [r[2] for r in rows]
        assert sum(counts) == n
        assert max(counts) - min(counts) <= 1

    @given(st.lists(st.floats(0.01, 0.99), min_size=3, max_size=12),
           st.lists(st.integers(0, 1), min_size=3, max_size=12))
    @settings(max_examples=40)
    def test_pushing_away_from_outcomes_never_helps(self, pv, yv):
        n = min(len(pv), len(yv))
        p, y = np.array(pv[:n]), np.array(yv[:n])
        worse = np.clip(p - 0.01 * (2 * y - 1), 0, 1)
        b0, _ = brier_and_reliability(p, y)
        b1, _ = brier_and_reliability(worse, y)
        assert b1 >= b0 - 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            brier_and_reliability([1.2], [1])


class TestStratified:
    def test_perfect_prediction_maxes_everything(self):
        t = np.array([0.05, 0.15, 0.5, 0.6, 0.9, 0.95])
        bins, ba = stratified_sens_spec(t, t)
        assert set(bins) == {"healthy", "subclinical", "keratoconus"}
        for row in bins.values():
            assert row["sensitivity"] == 1.0
            assert row["specificity"] == 1.0
        assert ba == 1.0

    def test_collapsed_predictions_zero_specificity(self):
        t = np.array([0.1, 0.5, 0.9])
        bins, _ = stratified_sens_spec(np.full(3, 0.5), t)
        assert bins["subclinical"]["sensitivity"] == 1.0
        assert bins["subclinical"]["specificity"] == 0.0
        assert bins["healthy"]["sensitivity"] == 0.0
        assert bins["healthy"]["specificity"] == 1.0

    def test_twelve_sample_hand_tally(self):
        #          true bin:  H     H     H     H     S     S
        t = np.array([0.10, 0.20, 0.05, 0.22, 0.40, 0.60,
                      0.50, 0.45, 0.80, 0.90, 0.85, 0.99])
        #          true bin:  S     S     K     K     K     K
        p = np.array([0.20, 0.40, 0.15, 0.80, 0.45, 0.30,
                      0.55, 0.95, 0.85, 0.60, 0.90, 0.20])
        bins, ba = stratified_sens_spec(p, t)
        # healthy: 4 true, predicted healthy for t[0], t[2] -> 2/4
        assert bins["healthy"]["sensitivity"] == pytest.approx(2 / 4)
        # non-healthy: 8 true, predicted healthy only p[11]=0.20 -> 7/8
        assert bins["healthy"]["specificity"] == pytest.approx(7 / 8)
        # subclinical: 4 true, predicted subclinical t[4]->0.45? p[4]=0.45,
        # p[6]=0.55 in bin; p[5]=0.30 also subclinical -> 3/4
        assert bins["subclinical"]["sensitivity"] == pytest.approx(3 / 4)
        # non-subclinical: 8 true; predicted subclinical among them:
        # p[1]=0.40, p[3]... p[3]=0.80 no; p[1] yes, p[9]=0.60 yes -> 6/8
        assert bins["subclinical"]["specificity"] == pytest.approx(6 / 8)
        # keratoconus: 4 true, predicted kc: p[8]=0.85, p[10]=0.90 -> 2/4
        assert bins["keratoconus"]["sensitivity"] == pytest.approx(2 / 4)
        # non-kc: 8 true; predicted kc among them p[3]=0.80, p[7]=0.95 -> 6/8
        assert bins["keratoconus"]["specificity"] == pytest.approx(6 / 8)
        assert ba == pytest.approx((2 / 4 + 3 / 4 + 2 / 4) / 3)
        assert bins["healthy"]["count"] == 4

    def test_empty_true_bin_absent(self):
        t = np.array([0.1, 0.2, 0.9])
        bins, ba = stratified_sens_spec(t, t)
        assert "subclinical" not in bins
        assert ba == 1.0

    def test_whole_cohort_one_bin_has_no_specificity(self):
        t = np.array([0.1, 0.2])
        bins, _ = stratified_sens_spec(t, t)
        assert bins["healthy"]["specificity"] is None


def _mean_rows(p, t):
    return p.mean(axis=1)


def _undefined_rows(p, t):
    return np.full(len(p), np.nan)


class TestBootstrap:
    def test_zero_variance_width_zero(self):
        x = np.full(50, 0.3)
        lo, hi = bootstrap_ci(_mean_rows, x, x, n=200, seed=0)
        assert lo == hi == pytest.approx(0.3)

    def test_same_seed_identical(self):
        rng = np.random.default_rng(1)
        p, t = rng.uniform(size=40), rng.uniform(size=40)
        f = ROW_METRICS["mse"]
        assert (bootstrap_ci(f, p, t, n=500, seed=7)
                == bootstrap_ci(f, p, t, n=500, seed=7))

    def test_interval_brackets_point_estimate(self):
        rng = np.random.default_rng(2)
        t = rng.uniform(size=80)
        p = np.clip(t + rng.normal(0, 0.1, size=80), 0, 1)
        lo, hi = bootstrap_ci(ROW_METRICS["auroc"], p, t, n=500, seed=3)
        assert lo <= auroc(p, t) <= hi
        assert 0.0 <= lo < hi <= 1.0

    def test_degenerate_resamples_redrawn(self):
        # one positive in six: many resamples miss it and must be redrawn
        p = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.99])
        t = np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])
        lo, hi = bootstrap_ci(ROW_METRICS["auroc"], p, t, n=100, seed=5)
        assert 0.0 <= lo <= hi <= 1.0

    def test_always_failing_metric_reported(self):
        with pytest.raises(DataError, match="resamples"):
            bootstrap_ci(_undefined_rows, np.zeros(4), np.zeros(4), n=100,
                         seed=0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci(lambda p, t: np.zeros(len(p)), np.zeros(4),
                         np.zeros(4), n=50)

    def test_scalar_metric_rejected(self):
        x = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="one value per row"):
            bootstrap_ci(lambda p, t: float(p.mean()), x, x, n=100)

    def test_coverage_of_the_mean(self):
        """95% interval for the sample mean covers the true mean about 95%
        of the time (tolerance 3 points over 200 trials)."""
        rng = np.random.default_rng(11)
        hits = 0
        trials = 200
        for trial in range(trials):
            x = rng.normal(0.0, 1.0, size=40)
            lo, hi = bootstrap_ci(_mean_rows, x, x, n=10000, seed=trial)
            hits += lo <= 0.0 <= hi
        assert abs(hits / trials - 0.95) <= 0.03

    def test_memory_bounded_by_draw_cap(self):
        """One draw of n x m indices would hold n * m * 8 bytes (73 MiB
        here); chunked draws peak far below that."""
        n, m = 200_000, 48
        x = np.random.default_rng(12).uniform(size=m)
        tracemalloc.start()
        try:
            bootstrap_ci(_mean_rows, x, x, n=n, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 4


def _bootstrap_inputs(kind, m=24):
    rng = np.random.default_rng(BOOTSTRAP_INPUTS.index(kind))
    if kind == "continuous":
        t = rng.uniform(size=m)
        return np.clip(t + rng.normal(0, 0.15, size=m), 0, 1), t
    if kind == "tied":
        return (np.round(rng.uniform(size=m), 1),
                np.round(rng.uniform(size=m), 1))
    if kind == "hard_label":
        return rng.uniform(size=m), (rng.uniform(size=m) > 0.5) * 1.0
    # one positive: about a third of all resamples miss it, so every
    # metric redraws (the regression ones on a constant target)
    t = np.zeros(m)
    t[4] = 1.0
    return rng.uniform(size=m), t


BOOTSTRAP_INPUTS = ("continuous", "tied", "hard_label", "one_positive")


class TestBootstrapMatchesLoop:
    """The chunked row-wise bootstrap keeps exactly the resamples, and so
    the interval, of one draw and one scalar metric call per resample."""

    @pytest.mark.parametrize("kind", BOOTSTRAP_INPUTS)
    @pytest.mark.parametrize("key", sorted(ROW_METRICS))
    def test_report_metrics_equal(self, key, kind):
        p, t = _bootstrap_inputs(kind)
        for n, seed in ((100, 0), (400, 1)):
            assert (bootstrap_ci(ROW_METRICS[key], p, t, n=n, seed=seed)
                    == bootstrap_ci_loop(report_metric_1d(key), p, t, n=n,
                                         seed=seed))

    @pytest.mark.parametrize("cap", [1, 7 * 12, 50 * 12])
    @pytest.mark.parametrize("kind", ["continuous", "one_positive"])
    def test_equal_across_many_chunks(self, kind, cap, monkeypatch):
        # cap 1 draws one row per chunk; the others split n in uneven runs
        monkeypatch.setattr(metrics, "_DRAW_ELEMENTS", cap)
        p, t = _bootstrap_inputs(kind, m=12)
        for key in sorted(ROW_METRICS):
            assert (bootstrap_ci(ROW_METRICS[key], p, t, n=300, seed=4)
                    == bootstrap_ci_loop(report_metric_1d(key), p, t, n=300,
                                         seed=4))

    @pytest.mark.parametrize("case", ["never_defined", "rarely_defined"])
    def test_same_error_text(self, case):
        x = np.array([0.0, 1.0, 2.0])
        if case == "never_defined":
            rows = _undefined_rows

            def one(p, t):
                raise ValueError("undefined")
        else:
            # defined only when all three draws pick record 0: 1 in 27
            def rows(p, t):
                return np.where(p.max(axis=1) == 0.0, 1.0, np.nan)

            def one(p, t):
                if p.max() != 0.0:
                    raise ValueError("undefined")
                return 1.0
        with pytest.raises(DataError) as mine:
            bootstrap_ci(rows, x, x, n=100, seed=2)
        with pytest.raises(DataError) as want:
            bootstrap_ci_loop(one, x, x, n=100, seed=2)
        assert str(mine.value) == str(want.value)
        assert "within 1000 attempts" in str(mine.value)
