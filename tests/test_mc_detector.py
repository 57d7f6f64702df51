import math
import sys
import threading
import time
import tracemalloc

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
    _filter_schedule,
    _sample_columns,
    derive_rng,
)
from fieldexp.mc_detector import (
    TRIAL_BLOCK,
    DetectionEstimate,
    _in_order,
    _llr_blocks,
    _threshold,
    auto_n_values,
    estimate_miss_probability,
    validate_exponent,
)

from oracles import (
    llr_direct,
    llr_innovations,
    reference_llr_columns,
    reference_sample_columns,
    sample_observations,
)

PARAMS = FieldParams(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=1.0)


def collected(layout, hypothesis, seed, trials, workers=None):
    """The LLRs of one ``(layout, hypothesis)`` job, its blocks joined in order."""
    return np.concatenate(list(_llr_blocks(PARAMS, [(layout, hypothesis)], seed, trials,
                                           workers)))


def scalar_llr_oracle(y, pi0, sig2):
    """Two-Gaussian log-likelihood ratio for one observation."""
    s1 = sig2 + pi0
    return -0.5 * math.log(s1 / sig2) - 0.5 * y * y * (1.0 / s1 - 1.0 / sig2)


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
    """The fused kernel's LLRs equal the reference sampler and LLR pass
    composed, bit for bit."""

    @staticmethod
    def reference(params, layout, hypothesis, rng, trials):
        return reference_llr_columns(
            _filter_schedule(params, layout),
            reference_sample_columns(params, layout, hypothesis, rng, trials),
            params.noise_variance)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("params", sorted(KERNEL_PARAMS))
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_block_matches_reference(self, kind, params, hypothesis):
        params, layout = KERNEL_PARAMS[params], KERNEL_LAYOUTS[kind]
        llrs = _sample_columns(params, layout, hypothesis, derive_rng(5, 1, 2), 1000)
        assert llrs.shape == (1000,)
        assert np.array_equal(llrs, self.reference(params, layout, hypothesis,
                                                   derive_rng(5, 1, 2), 1000))

    @pytest.mark.parametrize("workers", [None, 3])
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_collected_blocks_match_reference(self, kind, workers):
        # two full blocks and a partial last one
        trials = 2 * TRIAL_BLOCK + 1000
        layout = KERNEL_LAYOUTS[kind]
        n = layout.total_sensors()
        for code, hypothesis in enumerate([Hypothesis.H0, Hypothesis.H1]):
            expected = np.concatenate([
                self.reference(PARAMS, layout, hypothesis, derive_rng(9, code, n, index), size)
                for index, size in enumerate([TRIAL_BLOCK, TRIAL_BLOCK, 1000])])
            llrs = collected(layout, hypothesis, 9, trials, workers)
            assert np.array_equal(llrs, expected)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("kind", sorted(KERNEL_LAYOUTS))
    def test_single_trial_matches_reference(self, kind, hypothesis):
        # one trial: the width at which np.add.reduce over the rows sums them
        # pairwise instead of in order
        layout = KERNEL_LAYOUTS[kind]
        assert np.array_equal(
            _sample_columns(PARAMS, layout, hypothesis, derive_rng(6), 1),
            self.reference(PARAMS, layout, hypothesis, derive_rng(6), 1))

    @pytest.mark.parametrize("trials", [1, 3, 1000])
    @pytest.mark.parametrize("rows", [1, 2, 2 * SENSOR_BLOCK])
    def test_block_draw_equals_row_draws(self, rows, trials):
        # the kernel's one draw per sensor block holds the normals of the
        # row-by-row draws, in row order
        rng = derive_rng(4, rows, trials)
        by_rows = np.stack([rng.standard_normal(trials) for _ in range(rows)])
        assert np.array_equal(derive_rng(4, rows, trials).standard_normal((rows, trials)),
                              by_rows)

    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    def test_one_draw_per_sensor_block(self, hypothesis):
        class CountingRng:
            def __init__(self):
                self.calls = self.drawn = 0

            def standard_normal(self, size):
                self.calls += 1
                self.drawn += int(np.prod(size))
                return np.zeros(size)

        rng = CountingRng()
        _sample_columns(PARAMS, Uniform(0.5, 64), hypothesis, rng, 13)
        assert rng.calls == math.ceil(64 / SENSOR_BLOCK)
        assert rng.drawn == (2 if hypothesis is Hypothesis.H1 else 1) * 64 * 13

    def test_block_memory_does_not_grow_with_n(self):
        # a trial block holds a few sensor blocks of rows whatever n is; the
        # (n, trials) sample matrix alone took 8 * 4096 * 4096 bytes (134 MB)
        peaks = {}
        for n in (64, 4096):
            tracemalloc.start()
            try:
                _sample_columns(PARAMS, Uniform(0.5, n), Hypothesis.H1,
                                derive_rng(1, n), TRIAL_BLOCK)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[4096] < 4e6
        assert peaks[4096] < 2 * peaks[64]


class TestInOrder:
    """The runner yields every result in key order on any worker count,
    looks at most twice its worker count ahead, and joins its threads."""

    @pytest.mark.parametrize("workers", [None, 1, 2, 3, 8])
    def test_results_come_in_key_order(self, workers):
        def run(key):
            time.sleep(0.002 * (key % 3))  # later keys often finish first
            return key * key

        assert list(_in_order(run, list(range(20)), workers)) == [k * k for k in range(20)]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_lookahead_is_twice_the_workers(self, workers):
        started = []

        def run(key):
            started.append(key)
            return key

        keys, ahead = list(range(6 * workers)), set()
        for i in _in_order(run, keys, workers):
            time.sleep(0.01)  # a slow caller: the threads fill their window
            ahead.add(len(started) - (i + 1))
        assert max(ahead) == 2 * workers
        assert sorted(started) == keys

    def test_serial_runs_on_the_calling_thread(self):
        threads = []
        results = _in_order(lambda key: threads.append(threading.get_ident()), [0, 1, 2], 1)
        assert list(results) == [None] * 3
        assert threads == [threading.get_ident()] * 3

    def test_a_closed_runner_joins_its_threads(self):
        before, started = threading.active_count(), []

        def run(key):
            started.append(key)
            time.sleep(0.001)
            return key

        results = _in_order(run, list(range(100)), 2)
        assert next(results) == 0
        results.close()
        assert threading.active_count() == before
        assert len(started) <= 1 + 2 * 2  # the one read and the window

    def test_a_failing_key_stops_the_threads_taking_more(self):
        # key 1 fails while key 0 still runs: without the stop the other
        # thread would go on to fill its window with keys 2 to 4
        started = []

        def run(key):
            started.append(key)
            if key == 1:
                raise ValueError("key 1")
            time.sleep(0.05 if key == 0 else 0)
            return key

        with pytest.raises(ValueError, match="key 1"):
            list(_in_order(run, list(range(100)), 2))
        assert sorted(started) == [0, 1]

    def test_the_first_failing_key_is_raised_in_its_turn(self):
        def run(key):
            if key in (3, 5):
                raise ValueError(f"key {key}")
            return key

        before, got = threading.active_count(), []
        with pytest.raises(ValueError, match="key 3"):
            for value in _in_order(run, list(range(10)), 2):
                got.append(value)
        assert got == [0, 1, 2]
        assert threading.active_count() == before


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
        h0 = collected(lay, Hypothesis.H0, 3, 20_000)
        h1 = collected(lay, Hypothesis.H1, 3, 20_000)
        assert h0.mean() < 0.0  # -KL(H0 || H1) plus noise
        assert h1.mean() > 0.0

    def test_collect_matches_public_llr(self):
        lay = Clustered(2, 3, 0.7)
        llrs = collected(lay, Hypothesis.H1, 11, 64)
        cols = reference_sample_columns(PARAMS, lay, Hypothesis.H1,
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

    @pytest.mark.parametrize("n_values", [[2.5, 4], [math.inf], [4, math.nan], [0, 4], []],
                             ids=["fraction", "inf", "nan", "zero", "empty"])
    def test_sensor_counts_must_be_positive_integers(self, monkeypatch, n_values):
        # int() would truncate 2.5 to 2 and overflow on inf
        calls = self.record_sampler(monkeypatch)
        with pytest.raises(ValueError, match="n_values must be positive integers"):
            estimate_miss_probability(PARAMS, Uniform(1.0, 1), 0.1, n_values, 10_000, 1)
        assert calls == []

    def test_integral_float_counts_run_as_integers(self):
        a = estimate_miss_probability(PARAMS, Uniform(2.0, 1), 0.2, [5.0, 10], 10_000, 3)
        b = estimate_miss_probability(PARAMS, Uniform(2.0, 1), 0.2, [5, 10], 10_000, 3)
        assert a == b
        assert all(type(n) is int for n in a.n_values)

    @pytest.mark.parametrize("alpha", [0.001, 0.05, 0.1, 0.5, 0.9])
    def test_threshold_is_the_higher_quantile(self, alpha):
        # the reduction sorts the estimator's own H0 array in place; the
        # threshold is the order statistic np.quantile takes of a copy.
        # 10_007 trials leave a partial last block of 1815
        pattern, n_values, trials = Uniform(0.5, 1), [2, 6], 10_007
        est = estimate_miss_probability(PARAMS, pattern, alpha, n_values, trials, 8)
        h0 = [collected(Periodic(pattern.offsets, n), Hypothesis.H0, 8, trials)
              for n in n_values]
        assert est.threshold_per_n == [float(np.quantile(llrs, 1.0 - alpha, method="higher"))
                                       for llrs in h0]
        for llrs in h0:
            copy = llrs.copy()
            threshold = _threshold(llrs, alpha)
            assert threshold == float(np.quantile(copy, 1.0 - alpha, method="higher"))
            assert sorted(llrs.tolist()) == sorted(copy.tolist())

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
    def record_sampler(monkeypatch):
        """Replace the kernel the detector calls by one that records each
        call's (n, trials)."""
        real = mc_detector._sample_columns
        calls = []

        def recording(params, layout, hypothesis, rng, trials):
            calls.append((layout.total_sensors(), trials))
            return real(params, layout, hypothesis, rng, trials)

        monkeypatch.setattr(mc_detector, "_sample_columns", recording)
        return calls

    def test_blocks_run_largest_first(self, monkeypatch):
        # sensor counts largest first; within a count its H0 blocks in stream
        # order, then its H1 blocks
        real_rng = mc_detector.derive_rng
        streams, calls = [], []

        def recording_rng(seed, code, n, index):
            streams.append(index)
            return real_rng(seed, code, n, index)

        def recording(params, layout, hypothesis, rng, trials):
            calls.append((layout.total_sensors(), hypothesis, streams[-1]))
            return np.zeros(trials)

        monkeypatch.setattr(mc_detector, "derive_rng", recording_rng)
        monkeypatch.setattr(mc_detector, "_sample_columns", recording)
        estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, [3, 40, 9],
                                  10_000, seed=2, workers=1)
        assert calls == [(n, hypothesis, index) for n in (40, 9, 3)
                         for hypothesis in (Hypothesis.H0, Hypothesis.H1)
                         for index in range(3)]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_does_not_grow_with_the_grid(self, workers):
        # each n is reduced as soon as its blocks are in, so eight sensor
        # counts hold about what one does; holding every n's two arrays
        # until the end took 16 * 8 * 100_000 bytes
        def peak(n_values):
            tracemalloc.start()
            try:
                estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, n_values,
                                          100_000, seed=4, workers=workers)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak([1])  # first-call allocations (imports, caches) count in neither
        assert peak(range(1, 9)) <= 2 * peak([8])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_holds_one_h0_array(self, monkeypatch, workers):
        # the H1 blocks are counted as they arrive, so an estimate holds one
        # H0 array of 8 bytes a trial and the blocks in flight; holding an H1
        # array beside it took 16.  The kernel is a stand-in that allocates
        # only its block: the real one's scratch rows, about 0.6 MB a thread,
        # are bounded by test_block_memory_does_not_grow_with_n
        def block(params, layout, hypothesis, rng, trials):
            return rng.standard_normal(trials)

        monkeypatch.setattr(mc_detector, "_sample_columns", block)
        trials = 100_000
        estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, [4], 10_000, seed=4,
                                  workers=workers)  # first-call allocations
        tracemalloc.start()
        try:
            estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, [4], trials, seed=4,
                                      workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * trials

    @pytest.mark.parametrize("workers", [1, 2])
    def test_miss_counts_are_the_h1_llrs_below_the_threshold(self, workers):
        # 10_000 trials leave a partial last block of 1808
        pattern, n_values, trials = Uniform(0.5, 1), [2, 6, 12], 10_000
        est = estimate_miss_probability(PARAMS, pattern, 0.1, n_values, trials, 8,
                                        workers=workers)
        for n, threshold, misses in zip(n_values, est.threshold_per_n, est.miss_counts):
            h1 = collected(Periodic(pattern.offsets, n), Hypothesis.H1, 8, trials)
            assert misses == int(np.sum(h1 < threshold))
        assert [p for p, _ in est.miss_prob] == [c / trials for c in est.miss_counts]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_failing_block_stops_the_run(self, monkeypatch, workers):
        # the error reaches the caller; the threads take no block after it
        # beyond their lookahead, and none outlives the call
        real = mc_detector._sample_columns
        calls = []

        def failing(params, layout, hypothesis, rng, trials):
            calls.append(layout.total_sensors())
            if len(calls) == 1:
                raise RuntimeError("block failed")
            return real(params, layout, hypothesis, rng, trials)

        monkeypatch.setattr(mc_detector, "_sample_columns", failing)
        before = threading.active_count()
        n_values = range(10, 90, 10)
        with pytest.raises(RuntimeError, match="block failed"):
            estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, n_values,
                                      100_000, seed=5, workers=workers)
        assert threading.active_count() == before
        assert 1 <= len(calls) <= 2 * workers + workers

    def test_no_thread_outlives_the_estimate(self):
        before = threading.active_count()
        estimate_miss_probability(PARAMS, Uniform(0.5, 1), 0.1, [2, 4], 10_000, seed=5,
                                  workers=3)
        assert threading.active_count() == before

    def test_threads_switching_often_write_every_block(self, monkeypatch):
        # more workers than CPUs, switching threads every 10 us: each block
        # still reaches the estimator in its turn, while workers run the
        # blocks after it
        kw = dict(alpha=0.1, n_values=[8, 64, 128], trials=20_000, seed=3)
        expected = estimate_miss_probability(PARAMS, Uniform(0.5, 1), **kw)
        calls = self.record_sampler(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            est = estimate_miss_probability(PARAMS, Uniform(0.5, 1), workers=8, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 3 * 2 * 5
        assert est == expected

    def test_size_calibration(self):
        # threshold realizes the requested false-alarm rate on fresh noise
        lay = Uniform(0.5, 12)
        trials = 50_000
        alpha = 0.1
        h0 = collected(lay, Hypothesis.H0, 7, trials)
        threshold = np.quantile(h0, 1 - alpha, method="higher")
        fresh = collected(lay, Hypothesis.H0, 8, trials)
        rate = np.mean(fresh > threshold)
        assert abs(rate - alpha) <= 3.0 * math.sqrt(alpha * (1 - alpha) / trials)

    def test_indistinguishable_hypotheses_miss_half(self):
        # at vanishing SNR and size one half, the test is a coin flip
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
        assert math.isnan(est.fitted_rate_stderr)
        assert math.isnan(est.fitted_intercept)
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

        def recording(params, layout, hypothesis, rng, trials):
            seen.add(layout)
            return real(params, layout, hypothesis, rng, trials)

        monkeypatch.setattr(mc_detector, "_sample_columns", recording)
        estimate_miss_probability(PARAMS, pattern, 0.1, n_values, 10_000, seed=1)
        assert seen == set(expected)

    @pytest.mark.parametrize("pattern, n_values, per_period", [
        (Clustered(2, 1, 1.0), [4, 7], 2),
        (Periodic((0.1, 0.2, 0.3), 5), [8], 3),
    ])
    def test_divisibility_enforced(self, monkeypatch, pattern, n_values, per_period):
        calls = TestEstimate.record_sampler(monkeypatch)
        with pytest.raises(ValueError, match=f"multiples of {per_period} sensors/period"):
            estimate_miss_probability(PARAMS, pattern, 0.1, n_values, 10_000, seed=1)
        assert calls == []

    def test_auto_grid_exponential(self):
        ns = auto_n_values(0.0966, 1, 100_000)
        assert len(ns) == 8
        assert ns[-1] <= 300
        assert all(b - a == ns[0] for a, b in zip(ns, ns[1:]))
        ns2 = auto_n_values(0.05, 2, 100_000)
        assert all(n % 2 == 0 for n in ns2)

    def test_auto_grid_polynomial(self):
        ns = auto_n_values(0.0, 1, 100_000)
        assert ns[0] == 16 and ns[-1] == 4096


class TestValidation:
    def test_exponential_regime_report(self):
        k_closed = 0.0966
        report = validate_exponent(PARAMS, Uniform(50.0, 1), 0.2, k_closed,
                                   [10, 20, 30, 40, 50, 60], trials=20_000, seed=6,
                                   check_alphas=(), rel_tol=0.2)
        assert report.regime == "exponential"
        assert report.alpha_independent is None
        assert math.isfinite(report.fitted_rate)
        assert report.passed == (report.rel_deviation <= 0.20)

    def test_alpha_check_runs_extra_estimates(self):
        k_closed = 0.0966
        report = validate_exponent(PARAMS, Uniform(50.0, 1), 0.2, k_closed, [10, 20, 30, 40],
                                   trials=10_000, seed=6, check_alphas=(0.05, 0.2),
                                   rel_tol=0.2)
        assert set(report.estimates) == {0.2, 0.05}
        assert set(report.alpha_rates) == {0.2, 0.05}
        assert report.alpha_independent in (True, False)

    def test_polynomial_regime_routing(self):
        params = FieldParams(0.0, 1.0, 1.0)  # perfectly correlated field
        k_closed = 0.0
        report = validate_exponent(params, Uniform(1.0, 1), 0.1, k_closed,
                                   [16, 32, 64, 128, 256], trials=20_000, seed=8,
                                   check_alphas=(0.05, 0.2), rel_tol=0.2)
        assert report.regime == "polynomial"
        assert report.poly_slope == pytest.approx(-0.5, abs=0.2)
        assert report.passed == report.poly_ok

    @pytest.mark.parametrize("check_alphas, expected", [
        ((0.05, 0.2), [(0.2, 6), (0.05, 7)]),
        ((0.2, 0.05), [(0.2, 6), (0.05, 8)]),
        ((), [(0.2, 6)]),
    ], ids=["main-last", "main-first", "none"])
    def test_check_alpha_seed_layout(self, monkeypatch, check_alphas, expected):
        # the j-th check size draws at seed + 1 + j; one equal to alpha reuses
        # the main estimate, and every estimate runs exactly the grid given
        calls = []

        def recording(params, pattern, alpha, n_values, trials, seed, workers=None):
            calls.append((alpha, seed, n_values, trials, workers))
            return DetectionEstimate(
                alpha=alpha, n_values=list(n_values), threshold_per_n=[0.0] * 4,
                miss_prob=[(0.5, 0.01)] * 4, fitted_rate=0.1, trials=trials,
                miss_counts=[5000] * 4, fitted_rate_stderr=0.01, fitted_intercept=0.0,
                fit_n_used=list(n_values), seed=seed)

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", recording)
        n_values = [3, 9, 27, 81]
        report = validate_exponent(PARAMS, Uniform(50.0, 1), 0.2, 0.1, n_values,
                                   trials=10_000, seed=6, check_alphas=check_alphas,
                                   rel_tol=0.2, workers=2)
        assert [(alpha, seed) for alpha, seed, *_ in calls] == expected
        assert all(ns is n_values and rest == [10_000, 2] for _, _, ns, *rest in calls)
        assert sorted(report.estimates) == sorted(alpha for alpha, _ in expected)
        assert report.passed
