import bisect
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from fieldexp import cli, kalman_exponent
from fieldexp.config_opt import (
    classify_m3_configuration,
    cluster_size_sweep,
    correlation_sweep,
    offset_sweep_m2,
    offset_sweep_m3,
    optimal_spacing_curve,
    snr_sweep,
)
from fieldexp.field_model import FieldParams
import oracles
from oracles import optimal_correlation_search, optimality, refine


def params_at(snr, rate=1.0):
    return FieldParams(diffusion_rate=rate, stationary_variance=1.0,
                       noise_variance=1.0 / snr)


def optimum(snr, rate=1.0):
    """The optimum of uniform spacing at one SNR; a* does not depend on the rate."""
    return optimal_spacing_curve(rate, [snr])[0]


def count_engine_rows(monkeypatch):
    """The shapes of the arrays every engine call sees, in call order."""
    calls = []
    engine = kalman_exponent._steady_state

    def counting_engine(a, *args):
        calls.append(np.shape(a))
        return engine(a, *args)

    monkeypatch.setattr(kalman_exponent, "_steady_state", counting_engine)
    return calls


def objective_oracle(a, snr):
    """Optimality equation evaluated with the closed-form quadratic root of
    the steady-state prediction variance (independent of the package solver)."""
    b = (1.0 - a * a) * (1.0 - snr)
    c = -snr * (1.0 - a * a)
    rho = (-b + math.sqrt(b * b - 4.0 * c)) / 2.0
    r_e = 1.0 + rho
    return (1.0 + a * a + snr * (1.0 - a * a)) ** 2 - 2.0 * (r_e + a ** 4 / r_e)


# roots computed offline with objective_oracle + Brent at xtol 1e-15
ORACLE_ROOTS = {
    0.1: 0.9591775379608818,
    0.25: 0.8978638863660192,
    0.5: 0.7818758451065563,
    0.9: 0.41790162879961423,
}


class TestOptimalCorrelation:
    def test_rejects_snr_at_or_above_one(self):
        with pytest.raises(ValueError):
            optimum(1.0)
        with pytest.raises(ValueError):
            optimum(4.0)

    @pytest.mark.parametrize("snr", [0.1, 0.25, 0.5, 0.9])
    def test_root_matches_independent_oracle(self, snr):
        res = optimum(snr)
        oracle = brentq(lambda a: objective_oracle(a, snr), 0.05, 0.999, xtol=1e-15)
        assert res.a_star == pytest.approx(oracle, abs=1e-8)
        assert res.a_star == pytest.approx(ORACLE_ROOTS[snr], abs=1e-8)
        assert abs(res.residual) < 1e-10

    @pytest.mark.parametrize("snr", [0.1, 0.25, 0.5, 0.9])
    def test_root_is_grid_argmax(self, snr):
        from fieldexp.kalman_exponent import scalar_exponent_from_correlation
        params = params_at(snr)
        res = optimum(params.snr())
        grid = np.arange(0.001, 1.0, 0.001)
        ks = [scalar_exponent_from_correlation(params, a).exponent_per_sensor
              for a in grid]
        assert abs(res.a_star - grid[int(np.argmax(ks))]) <= 1e-3 + 1e-12

    @pytest.mark.parametrize("snr", [1e-3, 0.1, 0.5, 0.9])
    def test_one_engine_row_per_optimum(self, monkeypatch, snr):
        # the optimum is closed form: one one-row solve gives the exponent and
        # the residual at a*, and a curve is one solve with a row per SNR
        calls = count_engine_rows(monkeypatch)
        optimum(snr)
        assert calls == [(1, 1)]
        calls.clear()
        snrs = [snr, 0.25, 0.75, 1e-6]
        optimal_spacing_curve(1.0, snrs)
        assert calls == [(len(snrs), 1)]

    def test_curve_rows_match_single_calls(self):
        snrs = np.concatenate([np.logspace(-12, -0.01, 40), [1.0 - 1e-8]])
        curve = optimal_spacing_curve(2.0, snrs)
        assert len(curve) == len(snrs)
        assert curve == [optimum(s, rate=2.0) for s in snrs.tolist()]

    @settings(max_examples=100, deadline=None)
    @given(snr=st.floats(1e-4, 1.0 - 1e-6))
    def test_closed_form_matches_search(self, snr):
        res = optimum(snr)
        assert res.a_star == pytest.approx(optimal_correlation_search(snr), abs=1e-9)
        assert abs(res.residual) < 1e-12

    @pytest.mark.parametrize("snr", [1e-12, 1e-300])
    def test_vanishing_snr_asymptote(self, snr):
        rate = 3.0
        res = optimum(snr, rate)
        assert res.delta_star * rate / snr == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-9)

    def test_unit_snr_asymptote(self):
        snr = 1.0 - 1e-8
        res = optimum(snr)
        assert res.a_star / math.sqrt(2.0 * (1.0 - snr)) == pytest.approx(1.0, rel=1e-7)
        assert 0.0 < res.delta_star and math.isfinite(res.exponent_at_optimum)

    @pytest.mark.parametrize("snr", [1e-4, 0.01, 0.3, 0.9, 0.99999999])
    def test_exponent_at_optimum_beats_close_neighbours(self, snr):
        # a*(1 +- 1e-4), the upper one kept below 1; near unit SNR the
        # exponent is flat to about an ulp there, hence the 4 ulp allowance
        res = optimum(snr)
        a = res.a_star
        rows = [[a], [a * (1.0 - 1e-4)], [min(a * (1.0 + 1e-4), 0.5 * (a + 1.0))]]
        k = kalman_exponent._steady_state(rows, snr).exponent_per_block
        assert k[0] == res.exponent_at_optimum
        assert np.all(k[0] >= k[1:] - 4.0 * np.spacing(k[0]))

    def test_exponent_at_optimum_beats_neighbors(self):
        from fieldexp.kalman_exponent import scalar_exponent_from_correlation
        params = params_at(0.5)
        res = optimum(params.snr())
        for shift in (-1e-3, 1e-3):
            neighbor = scalar_exponent_from_correlation(
                params, res.a_star + shift).exponent_per_sensor
            assert res.exponent_at_optimum >= neighbor

    def test_vanishing_snr_pushes_correlation_to_one(self):
        res = optimum(params_at(1e-4).snr())
        assert res.a_star > 0.99

    def test_near_unit_snr_still_solves(self):
        from fieldexp.kalman_exponent import scalar_exponent_from_correlation
        params = params_at(0.99)
        res = optimum(params.snr())
        assert 0.0 < res.a_star < 1.0
        k0 = scalar_exponent_from_correlation(params, 0.001).exponent_per_sensor
        assert res.exponent_at_optimum >= k0


def random_bracket(rng):
    """A seeded random function of an array of points and a bracket around
    one of its roots, with lo < hi; the bracket need not change sign.

    The families cover smooth and steep roots, flat roots (odd powers, which
    round to exact zeros), a step, several roots in one bracket, and the
    optimality equation of the optimum search.
    """
    kind = int(rng.integers(7))
    r = float(rng.uniform(-2.0, 2.0))
    if kind == 0:
        c = [float(v) for v in rng.normal(size=3)]
        f = lambda x: (x - r) * ((c[2] * x + c[1]) * x + c[0])  # noqa: E731
    elif kind == 1:
        s = float(10.0 ** rng.uniform(-1.0, 3.0))
        f = lambda x: math.tanh(s * (x - r))  # noqa: E731
    elif kind == 2:
        k = int(rng.choice([3, 5, 9]))
        f = lambda x: (x - r) ** k  # noqa: E731
    elif kind == 3:
        f = lambda x: math.exp(x) - math.exp(r)  # noqa: E731
    elif kind == 4:
        f = lambda x: 1.0 if x > r else -1.0  # noqa: E731
    elif kind == 5:
        w = float(rng.uniform(0.5, 20.0))
        f = lambda x: math.sin(w * (x - r))  # noqa: E731
    else:
        snr = float(rng.uniform(0.01, 0.99))
        lo, hi = float(rng.uniform(0.01, 0.4)), float(rng.uniform(0.97, 0.99))
        return lambda a: optimality(a, snr), lo, hi
    left, right = 10.0 ** rng.uniform(-6.0, 0.5, size=2)
    return (lambda x: np.array([f(v) for v in x.tolist()]),
            r - float(left), r + float(right))


class TestRefinement:
    """The refinement of the optimum search in the oracles, whose roots the
    closed form is checked against."""

    def test_random_brackets_end_on_a_sign_change(self):
        rng = np.random.default_rng(20260810)
        failures, brackets = [], 0
        while brackets < 2_000:
            f, lo, hi = random_bracket(rng)
            f_lo, f_hi = f(np.array([lo, hi])).tolist()
            if not f_lo * f_hi < 0.0:
                continue
            brackets += 1
            seen = {lo: f_lo, hi: f_hi}

            def recorded(x):
                fx = f(x)
                seen.update(zip(x.tolist(), fx.tolist()))
                return fx

            root = refine(recorded, lo, hi, f_lo)
            # no evaluated point lies inside the final bracket, so its ends
            # are neighbours among the evaluated points; a bracket one ulp
            # wide has its midpoint round onto one of them
            xs = sorted(seen)
            j = bisect.bisect_left(xs, root)
            ends = [(xs[i], xs[i + 1]) for i in (j - 1, j)
                    if 0 <= i < len(xs) - 1 and xs[i] <= root <= xs[i + 1]]
            ok = lo <= root <= hi and (seen.get(root) == 0.0 or any(
                (seen[left] < 0.0) != (seen[right] < 0.0)
                and root - left <= 1e-14 and right - root <= 1e-14
                for left, right in ends))
            if not ok:
                failures.append((lo, hi, root, ends))
        assert failures == []

    def test_exact_zero_ends_the_search(self):
        # the interior points of [0, 65] are the integers 1..64
        seen = []

        def f(x):
            seen.append(x)
            return x - 20.0

        assert refine(f, 0.0, 65.0, -20.0) == 20.0
        assert len(seen) == 1 and seen[0].tolist() == list(range(1, 65))

    def test_first_sign_change_wins(self):
        # signs + + - + ... over 1..64: the bracket closes on [2, 3], not on
        # the later change or the exact zero at 40
        def f(x):
            return np.where(x < 2.5, 1.0, np.where(x < 3.5, -1.0, x - 40.0))

        root = refine(f, 0.0, 65.0, 1.0)
        assert abs(root - 2.5) <= 1e-14


class TestOptimalSpacing:
    def test_inverts_correlation(self):
        res = optimum(0.5, rate=1.0)
        assert res.delta_star == pytest.approx(-math.log(res.a_star), rel=1e-12)

    def test_scales_inversely_with_diffusion_rate(self):
        slow = optimum(0.5, rate=1.0)
        fast = optimum(0.5, rate=2.0)
        assert fast.a_star == pytest.approx(slow.a_star, abs=1e-10)
        assert fast.delta_star == pytest.approx(slow.delta_star / 2.0, rel=1e-9)

    def test_zero_diffusion_rejected(self):
        with pytest.raises(ValueError):
            optimal_spacing_curve(0.0, [0.5])

    @pytest.mark.parametrize("rate, snrs, named", [
        (1e-320, [0.5], 0.5),
        (1e-320, [0.1, 0.5, 0.9], 0.1),
        (1e-309, [0.1, 0.5], 0.5),  # 4.2e307 at SNR 0.1 is in range
    ])
    def test_spacing_beyond_the_float_range_rejected(self, rate, snrs, named):
        # -ln(a*)/A overflows: an error naming the rate and the SNR, not inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                optimal_spacing_curve(rate, snrs)
        assert str(err.value) == (f"optimal spacing -ln(a*)/A exceeds the float range at "
                                  f"diffusion_rate {rate!r} and SNR {named!r}")

    def test_curve_monotone_in_snr(self):
        curve = optimal_spacing_curve(1.0, np.linspace(0.05, 0.9, 8))
        deltas = [res.delta_star for res in curve]
        assert np.all(np.diff(deltas) > 0)


class TestCorrelationAndSnrSweeps:
    def test_correlation_sweep_monotone_at_high_snr(self):
        res = correlation_sweep(10.0, np.linspace(0.0, 1.0, 51))
        ks = res.k_per_sensor
        assert np.all(np.diff(ks) < 0)
        assert res.argmax == 0.0

    def test_snr_sweep_monotone(self):
        res = snr_sweep(0.5, np.logspace(-1, 2, 13))
        ks = res.k_per_sensor
        assert np.all(np.diff(ks) > 0)
        assert res.argmax == pytest.approx(100.0)


DIVISORS_OF_1000 = [m for m in range(1, 1001) if 1000 % m == 0]


class TestClusterSweep:
    @pytest.mark.parametrize("sizes, rows", [
        ([], 5), (["--sizes", "1"], 1), (["--sizes", "1000,8"], 2),
        (["--sizes", ",".join(map(str, DIVISORS_OF_1000))], 16)])
    def test_one_engine_call_per_sweep(self, monkeypatch, sizes, rows):
        # every size is one row of one engine call, the co-located pair (0, T)
        calls = count_engine_rows(monkeypatch)
        assert cli.main(["sweep", "--axis", "cluster", "--diffusion-rate", "1", "--snr", "10",
                         "--n-total", "1000", *sizes]) == 0
        assert calls == [(rows, 2)]

    def test_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            cluster_size_sweep(1.0, 10.0, 1.0, 100, [1, 3])

    @pytest.mark.parametrize("field_length", [math.inf, math.nan, 0.0])
    def test_rejects_field_length(self, field_length):
        with pytest.raises(ValueError, match="field_length must be finite and > 0"):
            cluster_size_sweep(1.0, 10.0, field_length, 100, [1, 2])

    @pytest.mark.parametrize("n_total", [0, -4])
    def test_rejects_a_budget_below_one(self, n_total):
        with pytest.raises(ValueError, match="does not divide"):
            cluster_size_sweep(1.0, 10.0, 1.0, n_total, [1, 2])

    def test_near_independent_field_prefers_uniform(self):
        res = cluster_size_sweep(10.0, 10.0, 1.0, 100,
                                 [1, 2, 4, 5, 10])
        assert res.argmax == 1.0

    def test_intermediate_correlation_has_interior_optimum(self):
        res = cluster_size_sweep(1.0, 10.0, 1.0, 100,
                                 [1, 2, 4, 5, 10])
        assert res.argmax == 5.0
        ks = dict(zip(res.points.tolist(), res.k_per_sensor))
        assert ks[5.0] == pytest.approx(0.11303951488118873, abs=1e-9)

    def test_low_snr_favors_clustering(self):
        # every cluster size beats the uniform configuration at -3 dB
        snr = 10.0 ** (-0.3)
        for rate in (0.1, 1.0, 10.0):
            res = cluster_size_sweep(rate, snr, 1.0, 100,
                                     [1, 2, 4, 5, 10])
            ks = dict(zip(res.points.tolist(), res.k_per_sensor))
            assert all(ks[float(m)] > ks[1.0] for m in (2, 4, 5, 10))
            if rate in (0.1, 1.0):
                assert res.argmax == 10.0


class TestOffsetSweepM2:
    def test_symmetry(self):
        # d1 and period - d1 are one gap cycle, solved once: exact twins
        res = offset_sweep_m2(8.0, 10.0, 0.02, 81)
        np.testing.assert_array_equal(res.k_per_block, res.k_per_block[::-1])
        np.testing.assert_array_equal(res.k_per_sensor, res.k_per_sensor[::-1])

    @pytest.mark.parametrize("grid_points", [3, 4, 5, 41, 200, 201])
    def test_one_engine_row_per_gap_cycle(self, monkeypatch, grid_points):
        # grid points i and G - 1 - i share a cycle: ceil(G / 2) rows are solved
        calls = count_engine_rows(monkeypatch)
        res = offset_sweep_m2(1.0, 0.1, 0.1, grid_points)
        assert calls == [(-(-grid_points // 2), 2)]
        assert res.points.shape == res.k_per_block.shape == res.k_per_sensor.shape \
            == (grid_points,)

    def test_strong_correlation_prefers_clustering(self):
        res = offset_sweep_m2(1.0, 10.0, 0.02, 201)
        assert res.argmax == 0.0

    def test_weak_correlation_prefers_uniform(self):
        res = offset_sweep_m2(100.0, 10.0, 0.02, 201)
        assert res.argmax == pytest.approx(0.01)

    def test_intermediate_correlation_secondary_lobe(self):
        res = offset_sweep_m2(8.0, 10.0, 0.02, 201)
        ks = res.k_per_block
        mid = len(ks) // 2
        assert ks[mid] > ks[mid - 1] and ks[mid] > ks[mid + 1]
        assert res.argmax == 0.0  # the lobe is local, clustering still wins

    def test_no_interior_optimum_at_high_snr(self):
        for rate in (1.0, 8.0, 15.0, 100.0):
            res = offset_sweep_m2(rate, 10.0, 0.02, 201)
            assert res.argmax in (0.0, pytest.approx(0.01))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            offset_sweep_m2(1.0, 10.0, 0.0, 51)
        with pytest.raises(ValueError):
            offset_sweep_m2(1.0, 10.0, 0.02, 2)

    @pytest.mark.parametrize("period", [math.inf, math.nan])
    def test_non_finite_period(self, period):
        for sweep in (offset_sweep_m2, offset_sweep_m3):
            with pytest.raises(ValueError, match="period must be finite and > 0"):
                sweep(1.0, 10.0, period, 5)


class TestOffsetSweepM3:
    @pytest.mark.parametrize("grid_points, cycles", [(3, 2), (4, 3), (41, 154), (62, 341)])
    def test_one_engine_call_one_row_per_gap_cycle(self, monkeypatch, grid_points, cycles):
        # a point's gap cycle in grid steps is a sorted triple a <= b <= c with
        # a + b + c = G - 1, and each is solved once: round((G + 2)^2 / 12) rows
        calls = count_engine_rows(monkeypatch)
        res = offset_sweep_m3(1.0, 0.1, 0.1, grid_points)
        assert cycles == round((grid_points + 2) ** 2 / 12)
        assert calls == [(cycles, 3)]
        assert res.points.shape == (grid_points ** 2, 2)
        assert res.k_per_block.shape == res.k_per_sensor.shape == (grid_points ** 2,)

    def test_classifier(self):
        period = 0.03
        tol = 3e-4
        assert classify_m3_configuration(0.0, 0.03, period, tol) == "clustering"
        assert classify_m3_configuration(0.01, 0.02, period, tol) == "uniform"
        assert classify_m3_configuration(0.015, 0.015, period, tol) == "two_plus_one"
        assert classify_m3_configuration(0.0, 0.015, period, tol) == "two_plus_one"
        assert classify_m3_configuration(0.005, 0.022, period, tol) == "other"

    @pytest.mark.parametrize("period, grid_points", [(0.03, 13), (1.0, 31), (0.1, 41),
                                                     (2e-323, 9)])
    def test_classifier_labels_match_the_numpy_oracle(self, period, grid_points):
        # every grid pair (x2, x3) at the sweep's tolerance, at a tolerance just
        # below and above it, and at tolerances equal to the pair's gaps
        axis = np.linspace(0.0, period, grid_points).tolist()
        step = 0.6 * (axis[1] - axis[0])
        labels = set()
        for x2 in axis:
            for x3 in axis:
                first, second, third = sorted((0.0, x2, x3))
                gaps = [second - first, third - second, period - third]
                offsets = [abs(g - period / d) for g in gaps for d in (2.0, 3.0)]
                for tol in {step, math.nextafter(step, 0.0), math.nextafter(step, 1.0),
                            *gaps, *offsets}:
                    label = classify_m3_configuration(x2, x3, period, tol)
                    assert label == oracles.classify_m3_configuration(x2, x3, period, tol)
                    labels.add(label)
        if period >= 1e-300:
            assert labels == {"clustering", "uniform", "two_plus_one", "other"}

    def test_classifier_gaps_exactly_at_tol(self):
        # a gap exactly at tol is within it; one ulp more is not
        cases = [(0.25, 0.5, 0.75, 0.25, "clustering", "uniform"),
                 (0.0, 0.375, 0.75, 0.0, "two_plus_one", "other"),
                 (0.375, 0.375, 0.75, 0.0, "two_plus_one", "other"),
                 # gaps (0.125, 0.375, 0.5): the pair's gap and 0.5 - 0.375 at tol
                 (0.125, 0.5, 1.0, 0.125, "two_plus_one", "other"),
                 (0.5, 0.125, 1.0, 0.125, "two_plus_one", "other")]
        for x2, x3, period, tol, at, below in cases:
            for t, label in [(tol, at), (math.nextafter(tol, -1.0), below)]:
                assert classify_m3_configuration(x2, x3, period, t) == label
                assert oracles.classify_m3_configuration(x2, x3, period, t) == label

    def test_strong_correlation_clusters(self):
        res = offset_sweep_m3(1.0, 10.0, 0.03, 13)
        assert res.argmax_label == "clustering"
        corners = {(0.0, 0.0), (0.0, 0.03), (0.03, 0.0), (0.03, 0.03)}
        assert tuple(np.round(res.argmax, 10)) in corners

    def test_transitional_correlation_two_plus_one(self):
        res = offset_sweep_m3(5.0, 10.0, 0.03, 13)
        assert res.argmax_label == "two_plus_one"

    def test_weak_correlation_uniform(self):
        res = offset_sweep_m3(10.0, 10.0, 0.03, 13)
        assert res.argmax_label == "uniform"
