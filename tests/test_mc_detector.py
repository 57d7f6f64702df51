import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fieldexp import mc_detector
from fieldexp.field_model import (
    SENSOR_BLOCK,
    Clustered,
    FieldParams,
    Hypothesis,
    Periodic,
    Uniform,
    _sample_columns,
    derive_rng,
    step_correlations,
)
from fieldexp.mc_detector import (
    TRIAL_BLOCK,
    DetectionEstimate,
    ValidationBudget,
    _auto_n_values,
    _filter_schedule,
    _llr_arrays,
    _llr_columns,
    estimate_miss_probability,
    validate_exponent,
)

from oracles import llr_direct, llr_innovations, sample_observations

PARAMS = FieldParams(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=1.0)


def scalar_llr_oracle(y, pi0, sig2):
    """Two-Gaussian log-likelihood ratio for one observation."""
    s1 = sig2 + pi0
    return -0.5 * math.log(s1 / sig2) - 0.5 * y * y * (1.0 / s1 - 1.0 / sig2)


def reference_sample_columns(params, layout, hypothesis, rng, trials):
    """The sampler in its out-of-place form, kept as the reference."""
    n = layout.total_sensors()
    sigma = np.sqrt(params.noise_variance)
    if hypothesis is Hypothesis.H0:
        return sigma * rng.standard_normal((n, trials))
    pi0 = params.stationary_variance
    a = step_correlations(params, layout)
    step_sd = np.sqrt(pi0 * np.maximum(0.0, 1.0 - a * a))
    out = np.empty((n, trials))
    state = np.sqrt(pi0) * rng.standard_normal(trials)
    out[0] = state + sigma * rng.standard_normal(trials)
    for i in range(1, n):
        state = a[i - 1] * state + step_sd[i - 1] * rng.standard_normal(trials)
        out[i] = state + sigma * rng.standard_normal(trials)
    return out


def reference_llr_columns(sched, cols, noise_variance):
    """The innovations LLR pass in its out-of-place form, kept as the reference."""
    n, trials = cols.shape
    half_inv_noise = 0.5 / noise_variance
    half_inv_re = 0.5 / sched.innovation_var
    predicted = np.zeros(trials)
    acc = np.zeros(trials)
    for i in range(n):
        y = cols[i]
        e = y - predicted
        acc += half_inv_noise * y * y - half_inv_re[i] * e * e
        if i < n - 1:
            predicted = sched.step_corr[i] * (predicted + sched.filter_gain[i] * e)
    return sched.log_norm + acc


KERNEL_LAYOUTS = {
    "uniform": Uniform(0.5, 7),
    "clustered": Clustered(3, 3, 0.8),  # co-located sensors: step correlation 1
    "periodic": Periodic((0.1, 0.0, 0.4), 3),
    # chains that end just before, on and just after a sensor-block edge, and
    # ones that cross several edges
    **{f"uniform{n}": Uniform(0.5, n)
       for n in (SENSOR_BLOCK - 1, SENSOR_BLOCK, SENSOR_BLOCK + 1, 4 * SENSOR_BLOCK + 1)},
    "periodic33": Periodic((0.1, 0.0, 0.4), 11),
}
KERNEL_PARAMS = {
    "rate1": PARAMS,
    "rate0": FieldParams(0.0, 1.0, 0.5),
    "low_snr": FieldParams(2.0, 0.3, 3.0),
}


class TestInPlaceKernels:
    """The in-place sampler and LLR pass equal their reference forms bit for bit."""

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("params", sorted(KERNEL_PARAMS))
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_block_matches_reference(self, kind, params, hypothesis):
        params, layout = KERNEL_PARAMS[params], KERNEL_LAYOUTS[kind]
        cols = _sample_columns(params, layout, hypothesis, derive_rng(5, 1, 2), 1000)
        expected = reference_sample_columns(params, layout, hypothesis,
                                            derive_rng(5, 1, 2), 1000)
        assert np.array_equal(cols, expected)
        sched = _filter_schedule(params, layout)
        assert np.array_equal(_llr_columns(sched, cols, params.noise_variance),
                              reference_llr_columns(sched, expected,
                                                    params.noise_variance))

    @pytest.mark.parametrize("workers", [None, 3])
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_collected_blocks_match_reference(self, kind, workers):
        # two full blocks and a partial last one
        trials = 2 * TRIAL_BLOCK + 1000
        layout = KERNEL_LAYOUTS[kind]
        n = layout.total_sensors()
        sched = _filter_schedule(PARAMS, layout)
        for code, hypothesis in enumerate([Hypothesis.H0, Hypothesis.H1]):
            expected = np.concatenate([
                reference_llr_columns(sched, reference_sample_columns(
                    PARAMS, layout, hypothesis, derive_rng(9, code, n, index), size),
                    PARAMS.noise_variance)
                for index, size in enumerate([TRIAL_BLOCK, TRIAL_BLOCK, 1000])])
            llrs = _llr_arrays(PARAMS, [(layout, hypothesis)], 9, trials, workers)[0]
            assert np.array_equal(llrs, expected)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_single_trial_matches_reference(self, kind, hypothesis):
        # one trial: the width at which np.add.reduce over the rows sums them
        # pairwise instead of in order
        layout = KERNEL_LAYOUTS[kind]
        cols = _sample_columns(PARAMS, layout, hypothesis, derive_rng(6), 1)
        assert np.array_equal(cols, reference_sample_columns(
            PARAMS, layout, hypothesis, derive_rng(6), 1))
        sched = _filter_schedule(PARAMS, layout)
        assert np.array_equal(_llr_columns(sched, cols, PARAMS.noise_variance),
                              reference_llr_columns(sched, cols, PARAMS.noise_variance))

    @pytest.mark.parametrize("trials", [1, 3, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 2 * SENSOR_BLOCK])
    def test_block_draw_equals_row_draws(self, rows, trials):
        # the sampler's one draw per sensor block holds the normals of the
        # row-by-row draws, in row order
        rng = derive_rng(4, rows, trials)
        by_rows = np.stack([rng.standard_normal(trials) for _ in range(rows)])
        assert np.array_equal(derive_rng(4, rows, trials).standard_normal((rows, trials)),
                              by_rows)

    @pytest.mark.parametrize("hypothesis, calls", [
        (Hypothesis.H0, 1), (Hypothesis.H1, math.ceil(64 / SENSOR_BLOCK))])
    def test_one_draw_per_sensor_block(self, hypothesis, calls):
        class CountingRng:
            def __init__(self):
                self.calls = self.drawn = 0

            def standard_normal(self, size):
                self.calls += 1
                self.drawn += int(np.prod(size))
                return np.zeros(size)

        rng = CountingRng()
        _sample_columns(PARAMS, Uniform(0.5, 64), hypothesis, rng, 13)
        assert rng.calls == calls
        assert rng.drawn == (2 if hypothesis is Hypothesis.H1 else 1) * 64 * 13


class TestLlr:
    def test_single_observation_closed_form(self):
        for y in (-1.3, 0.0, 0.4, 2.2):
            expected = scalar_llr_oracle(y, 1.0, 1.0)
            lay = Uniform(1.0, 1)
            assert llr_innovations(PARAMS, lay, [y]) == pytest.approx(expected, abs=1e-12)
            assert llr_direct(PARAMS, lay, [y]) == pytest.approx(expected, abs=1e-12)

    def test_zero_observations_pure_normalization(self):
        # quadratic terms vanish, leaving the log of the innovations-variance
        # product, which must equal the covariance determinant ratio
        lay = Uniform(0.5, 6)
        from_filter = llr_innovations(PARAMS, lay, np.zeros(6))
        from_dense = llr_direct(PARAMS, lay, np.zeros(6))
        assert from_filter == pytest.approx(from_dense, abs=1e-10)
        assert from_filter < 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            llr_innovations(PARAMS, Uniform(1.0, 3), [0.0, 1.0])
        with pytest.raises(ValueError):
            llr_direct(PARAMS, Uniform(1.0, 3), [0.0, 1.0])

    def test_direct_size_cap(self):
        with pytest.raises(ValueError):
            llr_direct(PARAMS, Uniform(1.0, 2001), np.zeros(2001))

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.integers(0, 2),
        m=st.integers(1, 3),
        blocks=st.integers(1, 4),
        gap=st.floats(0.05, 3.0),
        rate=st.floats(0.05, 5.0),
        snr=st.floats(0.1, 10.0),
        seed=st.integers(0, 10_000),
    )
    def test_routes_agree(self, kind, m, blocks, gap, rate, snr, seed):
        params = FieldParams(rate, 1.0, 1.0 / snr)
        layout = [Uniform(gap, m * blocks),
                  Clustered(m, blocks, gap),
                  Periodic((0.0,) * (m - 1) + (gap,), blocks)][kind]
        y = sample_observations(params, layout, "H1", seed)
        assert llr_innovations(params, layout, y) == pytest.approx(
            llr_direct(params, layout, y), abs=1e-8)

    def test_signal_mean_llr_positive_noise_mean_negative(self):
        lay = Uniform(0.5, 8)
        h0 = _llr_arrays(PARAMS, [(lay, Hypothesis.H0)], 3, 20_000, None)[0]
        h1 = _llr_arrays(PARAMS, [(lay, Hypothesis.H1)], 3, 20_000, None)[0]
        assert h0.mean() < 0.0  # -KL(H0 || H1) plus noise
        assert h1.mean() > 0.0

    def test_collect_matches_public_llr(self):
        lay = Clustered(2, 3, 0.7)
        llrs = _llr_arrays(PARAMS, [(lay, Hypothesis.H1)], 11, 64, None)[0]
        from fieldexp.field_model import derive_rng, _sample_columns
        cols = _sample_columns(PARAMS, lay, Hypothesis.H1,
                               derive_rng(11, 1, 6, 0), 64)
        expected = [llr_innovations(PARAMS, lay, cols[:, t]) for t in range(64)]
        np.testing.assert_allclose(llrs, expected, atol=1e-10)


class TestEstimate:
    def test_argument_validation(self):
        pattern = Uniform(1.0, 1)
        with pytest.raises(ValueError):
            estimate_miss_probability(PARAMS, pattern, 0.0, [10], 10_000, 1)
        with pytest.raises(ValueError):
            estimate_miss_probability(PARAMS, pattern, 0.1, [10], 5_000, 1)

    def test_deterministic_and_worker_invariant(self):
        pattern = Uniform(2.0, 1)
        kw = dict(alpha=0.2, n_values=[5, 10, 15, 20], trials=10_000, seed=42)
        a = estimate_miss_probability(PARAMS, pattern, **kw)
        b = estimate_miss_probability(PARAMS, pattern, **kw)
        assert a == b
        # 10_000 trials leave a partial last block of 1808
        for workers in (1, 2, 3, 4, 8):
            assert estimate_miss_probability(PARAMS, pattern, workers=workers, **kw) == a

    @staticmethod
    def record_sampler(monkeypatch, hold_s=0.0):
        """Replace the sampler the detector calls by one that records each
        call's (n, size) and the sample bytes in flight across threads."""
        real = mc_detector._sample_columns
        lock = threading.Lock()
        log = {"calls": [], "in_flight": 0, "peak": 0}

        def recording(params, layout, hypothesis, rng, size):
            nbytes = 8 * layout.total_sensors() * size
            with lock:
                log["calls"].append((layout.total_sensors(), size))
                log["in_flight"] += nbytes
                log["peak"] = max(log["peak"], log["in_flight"])
            try:
                cols = real(params, layout, hypothesis, rng, size)
                time.sleep(hold_s)  # keep admitted blocks overlapping
                return cols
            finally:
                with lock:
                    log["in_flight"] -= nbytes

        monkeypatch.setattr(mc_detector, "_sample_columns", recording)
        return log

    def test_blocks_run_largest_first(self, monkeypatch):
        log = self.record_sampler(monkeypatch)
        estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, [3, 40, 9],
                                  10_000, seed=2, workers=1)
        cost = [n * size for n, size in log["calls"]]
        assert len(cost) == 3 * 2 * 3
        assert cost == sorted(cost, reverse=True)

    def test_sample_bytes_in_flight_capped(self, monkeypatch):
        kw = dict(alpha=0.1, n_values=[8, 64, 128], trials=20_000, seed=3)
        expected = estimate_miss_probability(PARAMS, Uniform(0.5, 1), **kw)
        log = self.record_sampler(monkeypatch, hold_s=0.02)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            est = estimate_miss_probability(PARAMS, Uniform(0.5, 1), workers=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        largest = 8 * 128 * TRIAL_BLOCK
        assert largest < log["peak"] <= 2 * largest
        assert log["in_flight"] == 0
        assert len(log["calls"]) == 3 * 2 * 5
        assert est == expected

    def test_size_calibration(self):
        # threshold realizes the requested false-alarm rate on fresh noise
        lay = Uniform(0.5, 12)
        trials = 50_000
        alpha = 0.1
        h0 = _llr_arrays(PARAMS, [(lay, Hypothesis.H0)], 7, trials, None)[0]
        threshold = np.quantile(h0, 1 - alpha, method="higher")
        fresh = _llr_arrays(PARAMS, [(lay, Hypothesis.H0)], 8, trials, None)[0]
        rate = np.mean(fresh > threshold)
        assert abs(rate - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / trials)

    def test_indistinguishable_hypotheses_miss_half(self):
        # at vanishing SNR and size one половина, the test is a coin flip
        params = FieldParams(1.0, 1e-8, 1.0)
        est = estimate_miss_probability(params, Uniform(1.0, 1), 0.5, [1],
                                        40_000, seed=3)
        assert est.miss_prob[0][0] == pytest.approx(0.5, abs=0.02)

    def test_monotone_in_snr(self):
        pattern = Uniform(0.5, 1)
        n = [20]
        low = estimate_miss_probability(FieldParams(1.0, 1.0, 1.0), pattern, 0.1, n,
                                        20_000, 5)
        high = estimate_miss_probability(FieldParams(1.0, 2.0, 1.0), pattern, 0.1, n,
                                         20_000, 5)
        p_low, ci_low = low.miss_prob[0]
        p_high, ci_high = high.miss_prob[0]
        assert p_high <= p_low + ci_low + ci_high

    def test_rate_fit_reasonable_for_iid(self):
        est = estimate_miss_probability(PARAMS, Uniform(50.0, 1), 0.2,
                                        [10, 20, 30, 40, 50, 60, 70, 80],
                                        50_000, seed=9)
        assert est.fit_n_used[-1] == max(n for n, c in
                                         zip(est.n_values, est.miss_counts) if c >= 50)
        assert len(est.fit_n_used) >= 3
        # within a third of the asymptotic rate at this small budget
        assert est.fitted_rate == pytest.approx(0.0966, rel=0.35)

    def test_no_fit_with_too_few_points(self):
        est = estimate_miss_probability(PARAMS, Uniform(50.0, 1), 0.1, [5, 10],
                                        10_000, seed=2)
        assert math.isnan(est.fitted_rate)
        assert est.fit_n_used == []

    def test_zero_miss_entry_recorded_and_excluded(self):
        # strong signal: no misses at moderate n
        params = FieldParams(1.0, 50.0, 1.0)
        est = estimate_miss_probability(params, Uniform(50.0, 1), 0.1,
                                        [2, 4, 40], 10_000, seed=4)
        p, half = est.miss_prob[-1]
        assert p == 0.0
        assert half == pytest.approx(3.0 / 10_000)
        assert 40 not in est.fit_n_used


class TestPatternGrid:
    @pytest.mark.parametrize("pattern, n_values, expected", [
        (Uniform(0.5, 3), [7], [Uniform(0.5, 7)]),
        (Clustered(2, 4, 1.0), [2, 10], [Clustered(2, 1, 1.0), Clustered(2, 5, 1.0)]),
        (Periodic((0.1, 0.9), 2), [8], [Periodic((0.1, 0.9), 4)]),
    ])
    def test_layouts_repeat_the_pattern(self, monkeypatch, pattern, n_values, expected):
        # the pattern's own period count plays no part
        seen = set()
        real = mc_detector._sample_columns

        def recording(params, layout, hypothesis, rng, size):
            seen.add(layout)
            return real(params, layout, hypothesis, rng, size)

        monkeypatch.setattr(mc_detector, "_sample_columns", recording)
        estimate_miss_probability(PARAMS, pattern, 0.1, n_values, 10_000, seed=1)
        assert seen == set(expected)

    @pytest.mark.parametrize("pattern, n_values, per_period", [
        (Clustered(2, 1, 1.0), [4, 7], 2),
        (Periodic((0.1, 0.2, 0.3), 5), [8], 3),
    ])
    def test_divisibility_enforced(self, monkeypatch, pattern, n_values, per_period):
        log = TestEstimate.record_sampler(monkeypatch)
        with pytest.raises(ValueError, match=f"multiples of {per_period} sensors/period"):
            estimate_miss_probability(PARAMS, pattern, 0.1, n_values, 10_000, seed=1)
        assert log["calls"] == []

    def test_auto_grid_exponential(self):
        ns = _auto_n_values(0.0966, 1, 100_000)
        assert len(ns) == 8
        assert ns[-1] <= 300
        assert all(b - a == ns[0] for a, b in zip(ns, ns[1:]))
        ns2 = _auto_n_values(0.05, 2, 100_000)
        assert all(n % 2 == 0 for n in ns2)

    def test_auto_grid_polynomial(self):
        ns = _auto_n_values(0.0, 1, 100_000)
        assert ns[0] == 16 and ns[-1] == 4096


class TestValidation:
    def test_exponential_regime_report(self):
        k_closed = 0.0966
        budget = ValidationBudget(trials=20_000, n_values=(10, 20, 30, 40, 50, 60),
                                  check_alphas=(), seed=6)
        report = validate_exponent(PARAMS, Uniform(50.0, 1), 0.2, k_closed, budget)
        assert report.regime == "exponential"
        assert report.alpha_independent is None
        assert math.isfinite(report.fitted_rate)
        assert report.passed == (report.rel_deviation <= 0.20)

    def test_alpha_check_runs_extra_estimates(self):
        k_closed = 0.0966
        budget = ValidationBudget(trials=10_000, n_values=(10, 20, 30, 40),
                                  check_alphas=(0.05, 0.2), seed=6)
        report = validate_exponent(PARAMS, Uniform(50.0, 1), 0.2, k_closed, budget)
        assert set(report.estimates) == {0.2, 0.05}
        assert set(report.alpha_rates) == {0.2, 0.05}
        assert report.alpha_independent in (True, False)

    def test_polynomial_regime_routing(self):
        params = FieldParams(0.0, 1.0, 1.0)  # perfectly correlated field
        k_closed = 0.0
        budget = ValidationBudget(trials=20_000, n_values=(16, 32, 64, 128, 256),
                                  seed=8)
        report = validate_exponent(params, Uniform(1.0, 1), 0.1, k_closed, budget)
        assert report.regime == "polynomial"
        assert report.poly_slope == pytest.approx(-0.5, abs=0.2)
        assert report.passed == report.poly_ok
