import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from fieldexp.field_model import (
    Clustered,
    FieldParams,
    Periodic,
    Uniform,
    _correlations,
)
from fieldexp.config_opt import (
    cluster_size_sweep,
    correlation_sweep,
    offset_sweep_m2,
    offset_sweep_m3,
    snr_sweep,
)
from fieldexp.errors import NumericFailure
from fieldexp.kalman_exponent import (
    ScalarInnovations,
    _steady_state,
    scalar_exponent_from_correlation,
    vector_exponent,
)

from oracles import signal_covariance, steady_state_loop


def params_at(snr, rate=1.0, pi0=1.0):
    return FieldParams(diffusion_rate=rate, stationary_variance=pi0,
                       noise_variance=pi0 / snr)


def fixed_point(params, a):
    """Steady-state innovations of uniformly spaced sensors at correlation ``a``."""
    return scalar_exponent_from_correlation(params, a).innovations[0]


def riccati_root_oracle(a, pi0, sig2):
    """Positive root of the steady-state quadratic
    p^2 + p (1-a^2)(sig2 - pi0) - pi0 (1-a^2) sig2 = 0."""
    b = (1.0 - a * a) * (sig2 - pi0)
    c = -pi0 * (1.0 - a * a) * sig2
    return (-b + math.sqrt(b * b - 4.0 * c)) / 2.0


def gaussian_kl_rate(snr):
    """KL divergence between N(0,1) and N(0,1+snr) (unit noise variance)."""
    return 0.5 * (1.0 / (1.0 + snr) - 1.0 + math.log(1.0 + snr))


def decimal_uniform_exponent(a, snr):
    """Exponent of uniform spacing at correlation ``a`` and SNR ``snr``, from
    the fixed points p and v of the one-step Riccati and noise-only maps in
    60-digit decimal arithmetic, which leaves the O(snr^2) exponent about 30
    digits after its O(snr) parts cancel at snr = 1e-15."""
    with localcontext() as ctx:
        ctx.prec = 60
        a2, g = Decimal(a) ** 2, Decimal(snr)
        q = g * (1 - a2)
        b = 1 - a2 - q  # p^2 + b p - q = 0
        p = (-b + (b * b + 4 * q).sqrt()) / 2
        k = p / (1 + p)
        v = a2 * k * k / (1 - a2 * (1 - k) ** 2)
        return float((1 + p).ln() / 2 + (v - p) / (2 * (1 + p)))


class TestScalarRiccati:
    def test_independent_samples(self):
        inn = fixed_point(params_at(2.0), 0.0)
        assert inn.p == pytest.approx(1.0, abs=1e-14)
        assert inn.r_e == pytest.approx(1.5, abs=1e-14)
        assert inn.gain == 0.0
        assert inn.r_e_tilde == pytest.approx(0.5, abs=1e-14)

    def test_perfect_correlation(self):
        inn = fixed_point(params_at(1.0), 1.0)
        assert inn == ScalarInnovations(p=0.0, r_e=1.0, r_e_tilde=1.0, gain=0.0)

    def test_against_quadratic_root(self):
        params = FieldParams(1.0, 1.0, 1.0)
        inn = fixed_point(params, 0.5)
        # sqrt(3)/2, the positive root at equal signal and noise power
        assert inn.p == pytest.approx(math.sqrt(0.75), abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.0, 0.999), snr=st.floats(0.01, 100.0),
           pi0=st.floats(0.1, 10.0))
    def test_quadratic_oracle_and_bounds(self, a, snr, pi0):
        sig2 = pi0 / snr
        params = FieldParams(1.0, pi0, sig2)
        inn = fixed_point(params, a)
        oracle = riccati_root_oracle(a, pi0, sig2)
        assert inn.p == pytest.approx(oracle, rel=1e-9, abs=1e-12 * pi0)
        assert inn.r_e == pytest.approx(sig2 + inn.p, abs=1e-14 * max(sig2, 1))
        assert inn.r_e >= sig2
        assert inn.r_e_tilde >= sig2 * (1 - 1e-15)
        assert inn.gain == pytest.approx(a * inn.p / inn.r_e, abs=1e-14)

    def test_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            fixed_point(params_at(1.0), -0.1)
        with pytest.raises(ValueError):
            fixed_point(params_at(1.0), 1.1)


class TestScalarExponent:
    @pytest.mark.parametrize("snr", [0.1, 1.0, 10.0, 100.0])
    def test_reduces_to_kl_at_zero_correlation(self, snr):
        res = scalar_exponent_from_correlation(params_at(snr), 0.0)
        assert res.exponent_per_sensor == pytest.approx(gaussian_kl_rate(snr),
                                                        abs=1e-12)

    def test_unit_snr_value(self):
        # 0.5*ln 2 - 0.25
        res = scalar_exponent_from_correlation(params_at(1.0), 0.0)
        assert res.exponent_per_sensor == pytest.approx(0.09657359027997264,
                                                        abs=1e-14)

    @pytest.mark.parametrize("snr", [1e-3, 1e-6, 1e-9, 1e-12, 1e-15])
    def test_relative_accuracy_at_small_snr(self, snr):
        # the exponent is O(snr^2), the two parts of the textbook term O(snr)
        k = _steady_state([[0.5]], snr).exponent_per_block[0]
        assert k == pytest.approx(decimal_uniform_exponent(0.5, snr), rel=1e-15, abs=0)

    def test_zero_at_perfect_correlation(self):
        res = scalar_exponent_from_correlation(params_at(1.0), 1.0)
        assert res.exponent_per_sensor == 0.0
        zero_rate = FieldParams(0.0, 1.0, 1.0)
        assert vector_exponent(zero_rate, Uniform(7.0, 1)).exponent_per_sensor == 0.0
        assert vector_exponent(zero_rate, Clustered(3, 2, 1.0)).exponent_per_block == 0.0
        assert vector_exponent(zero_rate, Periodic((0.0, 0.5), 3)).exponent_per_block == 0.0

    def test_solves_near_unit_correlation_at_low_snr(self):
        # the Riccati map contracts by only ~1 - 3e-5 per step here
        res = scalar_exponent_from_correlation(FieldParams(1.0, 0.01, 1.0), 1 - 1e-8)
        assert math.isfinite(res.exponent_per_sensor)
        assert res.exponent_per_sensor >= 0.0
        assert res.diagnostics["residual"] < 1e-12 * 0.01

    def test_continuity_toward_perfect_correlation(self):
        res = scalar_exponent_from_correlation(params_at(1.0), 1.0 - 1e-6)
        assert res.exponent_per_sensor < 1e-3

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            vector_exponent(params_at(1.0), Uniform(-1.0, 1))

    def test_decreasing_in_correlation_above_unit_snr(self):
        for snr in (2.0, 10.0):
            ks = [scalar_exponent_from_correlation(params_at(snr), a).exponent_per_sensor
                  for a in np.arange(0.0, 0.951, 0.05)]
            assert np.all(np.diff(ks) < 0)

    def test_interior_maximum_below_unit_snr(self):
        for snr in (0.1, 0.5):
            grid = np.arange(0.0, 1.0001, 0.05)
            ks = [scalar_exponent_from_correlation(params_at(snr), a).exponent_per_sensor
                  for a in grid]
            best = int(np.argmax(ks))
            assert 0 < best < len(grid) - 1

    def test_increasing_in_snr(self):
        for a in (0.0, 0.5, 0.9):
            ks = [scalar_exponent_from_correlation(params_at(s), a).exponent_per_sensor
                  for s in np.logspace(-1, 4, 11)]
            assert np.all(np.diff(ks) > 0)

    def test_high_snr_logarithmic_growth(self):
        target = 0.5 * math.log(10.0)
        for a in (0.0, 0.5, 0.9):
            k1 = scalar_exponent_from_correlation(params_at(1e3), a).exponent_per_sensor
            k2 = scalar_exponent_from_correlation(params_at(1e4), a).exponent_per_sensor
            assert abs((k2 - k1) - target) <= 0.05 * target

    def test_diagnostics_say_how_the_result_was_computed(self):
        # every layout reports the same key, the fixed-point residual; the
        # command line adds the layout's shape
        params = params_at(2.0)
        for layout in (Uniform(0.7, 5), Clustered(3, 2, 1.5), Periodic((0.2, 0.0, 0.3), 1)):
            diag = vector_exponent(params, layout).diagnostics
            assert set(diag) == {"residual"}
            assert diag["residual"] < 1e-12
        assert set(scalar_exponent_from_correlation(params, 0.4).diagnostics) == {"residual"}


class TestClusteringExponent:
    def test_single_cluster_matches_scalar(self):
        params = params_at(3.0)
        lay = Clustered(cluster_size=1, cluster_count=10, period=0.8)
        a = vector_exponent(params, lay)
        b = scalar_exponent_from_correlation(params, math.exp(-0.8))
        assert a.exponent_per_sensor == b.exponent_per_sensor

    def test_wide_separation_reaches_boosted_kl(self):
        # far-apart clusters of two act like independent pairs at doubled SNR
        params = params_at(10.0)
        lay = Clustered(cluster_size=2, cluster_count=4, period=60.0)
        res = vector_exponent(params, lay)
        assert res.exponent_per_sensor == pytest.approx(0.5 * gaussian_kl_rate(20.0),
                                                        abs=1e-12)

    def test_per_block_is_size_times_per_sensor(self):
        params = params_at(0.5)
        res = vector_exponent(params, Clustered(4, 5, 1.2))
        assert res.exponent_per_block == pytest.approx(4 * res.exponent_per_sensor)

    def test_optimal_size_is_interior_at_intermediate_correlation(self):
        # 10 dB, unit field, 100 sensors: a mid-size cluster beats both extremes
        params = FieldParams(1.0, 1.0, 0.1)
        ks = {m: vector_exponent(
            params, Clustered(m, 100 // m, m / 100.0)).exponent_per_sensor
            for m in (1, 2, 4, 5, 10)}
        assert ks[1] == pytest.approx(0.10775924751177124, abs=1e-9)
        assert ks[5] == pytest.approx(0.11303951488118873, abs=1e-9)
        assert max(ks, key=ks.get) == 5


@dataclass
class BlockModel:
    """One spatial period of a periodic layout stacked into a block
    state-space model: the test oracle for the closed-form engine.

    feedback    : M x M transition matrix; only its last column is nonzero
                  because consecutive periods interact through the last sensor
    input       : M x M unit lower-triangular noise propagation matrix
    process_cov : M x M diagonal covariance of the per-period noise vector,
                  wrap-around gap first
    initial_cov : M x M stationary covariance of the stacked signal samples
    """

    feedback: np.ndarray
    input: np.ndarray
    process_cov: np.ndarray
    initial_cov: np.ndarray
    dim: int


def block_model(params, offsets) -> BlockModel:
    offs = np.asarray(offsets, dtype=float)
    rate = params.diffusion_rate
    if rate * offs.sum() <= 0.0:
        raise ValueError("the block model needs diffusion_rate * period > 0")
    pi0 = params.stationary_variance
    m = offs.size
    x = np.concatenate([[0.0], np.cumsum(offs[:-1])])
    feedback = np.zeros((m, m))
    feedback[:, -1] = np.exp(-rate * (offs[-1] + x))
    gaps_from = x[:, None] - x[None, :]
    input_mat = np.where(gaps_from >= 0, np.exp(-rate * np.maximum(gaps_from, 0.0)), 0.0)
    wrap_first = np.concatenate([[offs[-1]], offs[:-1]])
    process_cov = pi0 * np.diag(1.0 - np.exp(-2.0 * rate * wrap_first))
    initial_cov = pi0 * np.exp(-rate * np.abs(gaps_from))
    return BlockModel(feedback, input_mat, process_cov, initial_cov, m)


def block_solution(params, offsets):
    """(P, R_e, Rt_e) of the block filter from scipy's DARE and Lyapunov
    solvers: prediction covariance, innovations covariance, and innovations
    covariance on noise-only data."""
    ss = block_model(params, offsets)
    sig2 = params.noise_variance
    eye = np.eye(ss.dim)
    drive = ss.input @ ss.process_cov @ ss.input.T
    p = scipy.linalg.solve_discrete_are(ss.feedback.T, eye, drive, sig2 * eye)
    r_e = sig2 * eye + p
    gain = ss.feedback @ p @ np.linalg.inv(r_e)
    closed = ss.feedback - gain
    p_tilde = scipy.linalg.solve_discrete_lyapunov(closed, gain @ gain.T)
    return p, r_e, sig2 * (eye + p_tilde)


def block_exponent(params, offsets) -> float:
    """0.5 ln det(R_e / sigma^2) + 0.5 tr(R_e^-1 Rt_e) - M / 2."""
    _, r_e, rt_e = block_solution(params, offsets)
    m = r_e.shape[0]
    _, logdet = np.linalg.slogdet(r_e)
    return 0.5 * (logdet - m * math.log(params.noise_variance)) \
        + 0.5 * float(np.trace(np.linalg.solve(r_e, rt_e))) - 0.5 * m


class TestStateSpace:
    def test_single_sensor_reduces_to_scalar_model(self):
        params = params_at(2.0)
        ss = block_model(params, [0.4])
        a = math.exp(-0.4)
        np.testing.assert_allclose(ss.feedback, [[a]])
        np.testing.assert_allclose(ss.input, [[1.0]])
        np.testing.assert_allclose(ss.process_cov, [[1.0 - a * a]], atol=1e-15)
        np.testing.assert_allclose(ss.initial_cov, [[1.0]])

    def test_colocated_pair(self):
        params = params_at(1.0)
        ss = block_model(params, [0.0, 0.9])
        np.testing.assert_allclose(ss.initial_cov, [[1.0, 1.0], [1.0, 1.0]])
        assert np.max(np.abs(np.linalg.eigvals(ss.feedback))) == pytest.approx(
            math.exp(-0.9), abs=1e-12)

    def test_equal_split_transition_column(self):
        params = params_at(1.0)
        delta = 0.6
        ss = block_model(params, [delta / 2, delta / 2])
        np.testing.assert_allclose(ss.feedback[:, -1],
                                   [math.exp(-delta / 2), math.exp(-delta)],
                                   atol=1e-15)
        assert np.all(ss.feedback[:, 0] == 0.0)

    def test_process_cov_ordering_wrap_gap_first(self):
        params = params_at(1.0)
        ss = block_model(params, [0.3, 0.5])
        np.testing.assert_allclose(
            np.diag(ss.process_cov),
            [1.0 - math.exp(-2 * 0.5), 1.0 - math.exp(-2 * 0.3)],
            atol=1e-15,
        )

    def test_zero_offsets_allowed_inside_period(self):
        # zero wrap gap puts a zero in the leading process-covariance slot
        ss = block_model(params_at(1.0), [0.5, 0.0])
        assert ss.process_cov[0, 0] == 0.0
        assert ss.process_cov[1, 1] == pytest.approx(1.0 - math.exp(-1.0))

    def test_initial_cov_matches_one_period_of_signal_covariance(self):
        params = params_at(4.0)
        offsets = [0.2, 0.1, 0.7]
        ss = block_model(params, offsets)
        one_period = signal_covariance(params, Periodic(tuple(offsets), 1))
        np.testing.assert_allclose(ss.initial_cov, one_period, atol=1e-14)

    def test_singular_regimes_rejected(self):
        # no stable block model exists; the engine gives exponent 0 instead
        with pytest.raises(ValueError):
            block_model(FieldParams(0.0, 1.0, 1.0), [0.5])
        with pytest.raises(ValueError):
            block_model(params_at(1.0), [0.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(0.05, 10.0),
        gaps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
        pi0=st.floats(0.2, 5.0),
    )
    def test_stationarity_identity(self, rate, gaps, pi0):
        if rate * sum(gaps) <= 0:  # the block model's own precondition
            gaps[-1] = 0.3
        params = FieldParams(rate, pi0, 1.0)
        ss = block_model(params, gaps)
        residual = ss.initial_cov - (
            ss.feedback @ ss.initial_cov @ ss.feedback.T
            + ss.input @ ss.process_cov @ ss.input.T
        )
        assert np.max(np.abs(residual)) < 1e-10 * pi0


def random_instances(count, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 6))
        offsets = rng.uniform(0.0, 1.5, m)
        if m > 1 and rng.random() < 0.4:
            offsets[rng.integers(0, m - 1)] = 0.0
        if offsets.sum() <= 0:
            offsets[-1] = 0.5
        snr = math.exp(rng.uniform(math.log(0.05), math.log(50)))
        yield FieldParams(rng.uniform(0.05, 8.0), 1.0, 1.0 / snr), offsets


def pattern_of(params, offsets):
    return [math.exp(-params.diffusion_rate * d) for d in offsets]


class TestVectorSolvers:
    def test_matches_scipy_dare(self):
        # the block model solved by scipy is an independent route to the exponent
        for params, offsets in random_instances(100):
            res = vector_exponent(params, Periodic(tuple(offsets), 1))
            assert res.exponent_per_block == pytest.approx(
                block_exponent(params, offsets), rel=1e-10)

    def test_matches_recursion_from_stationary_start(self):
        # run the prediction Riccati recursion along the sensor line from the
        # stationary variance until it settles on the periodic steady state
        for params, offsets in random_instances(15, seed=77):
            sig2, pi0 = params.noise_variance, params.stationary_variance
            steps = pattern_of(params, offsets)
            p = pi0
            for _ in range(100_000):
                start = p
                for a in steps:
                    p = a * a * p * sig2 / (p + sig2) + pi0 * (1.0 - a * a)
                if abs(p - start) < 1e-16:
                    break
            ps = []
            for a in steps:
                ps.append(p)
                p = a * a * p * sig2 / (p + sig2) + pi0 * (1.0 - a * a)
            res = vector_exponent(params, Periodic(tuple(offsets), 1))
            np.testing.assert_allclose([inn.p for inn in res.innovations], ps,
                                       rtol=1e-12, atol=1e-14)

    def test_solution_is_stabilizing_and_psd(self):
        for params, offsets in random_instances(10, seed=5):
            sig2 = params.noise_variance
            res = vector_exponent(params, Periodic(tuple(offsets), 1))
            loop = 1.0
            for a, inn in zip(pattern_of(params, offsets), res.innovations):
                assert inn.p >= 0.0
                assert inn.r_e == sig2 + inn.p
                assert inn.r_e_tilde >= sig2
                loop *= a * sig2 / inn.r_e  # a (1 - K) with K = p / r_e
            assert abs(loop) < 1.0

    def test_scalar_consistency(self):
        params = params_at(3.0)
        inn = vector_exponent(params, Periodic((0.5,), 1)).innovations[0]
        assert inn == fixed_point(params, math.exp(-0.5))
        p, r_e, rt_e = block_solution(params, [0.5])
        assert p[0, 0] == pytest.approx(inn.p, abs=1e-10)
        assert r_e[0, 0] == pytest.approx(inn.r_e, abs=1e-10)
        assert rt_e[0, 0] == pytest.approx(inn.r_e_tilde, abs=1e-10)

    def test_lyapunov_series_oracle(self):
        # noise-only prediction variance as the sum of the series of filtered
        # noise: iterate the affine recursion from zero until it settles
        for params, offsets in random_instances(10, seed=99):
            sig2 = params.noise_variance
            res = vector_exponent(params, Periodic(tuple(offsets), 1))
            steps = list(zip(pattern_of(params, offsets), res.innovations))
            v = 0.0
            for _ in range(20_000):
                start = v
                for a, inn in steps:
                    k = inn.p / inn.r_e
                    v = a * a * ((1.0 - k) ** 2 * v + k * k * sig2)
                if abs(v - start) < 1e-18:
                    break
            for a, inn in steps:
                assert inn.r_e_tilde - sig2 == pytest.approx(v, rel=1e-10, abs=1e-15)
                k = inn.p / inn.r_e
                v = a * a * ((1.0 - k) ** 2 * v + k * k * sig2)

    def test_negligible_feedback_gives_noise_only_floor(self):
        # huge gaps: correlation ~ 0, so the filter ignores the past
        params = params_at(5.0)
        res = vector_exponent(params, Periodic((40.0, 40.0), 1))
        for inn in res.innovations:
            assert inn.p == pytest.approx(params.stationary_variance, rel=1e-15)
            assert inn.r_e_tilde == pytest.approx(params.noise_variance, abs=1e-15)


class TestVectorExponent:
    def test_reduces_to_scalar(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            rate = rng.uniform(0.1, 5.0)
            d = rng.uniform(0.05, 2.0)
            snr = math.exp(rng.uniform(math.log(0.1), math.log(30)))
            params = FieldParams(rate, 1.0, 1.0 / snr)
            kv = vector_exponent(params, Periodic((d,), 1)).exponent_per_sensor
            ks = scalar_exponent_from_correlation(params, math.exp(-rate * d)) \
                .exponent_per_sensor
            assert kv == pytest.approx(ks, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 64), rate=st.floats(0.1, 5.0), gap=st.floats(0.05, 2.0),
           snr=st.floats(-150.0, 3.0).map(lambda e: 10.0 ** e))
    # long periods, where an unscaled product of the step maps breaks down
    @example(m=100, rate=1.0, gap=0.7, snr=1e-4)
    @example(m=50, rate=1.0, gap=0.7, snr=1e4)
    def test_clustering_identity(self, m, rate, gap, snr):
        # m co-located sensors act like one sensor at m times the SNR: the
        # m-sensor pattern at G, the co-located pair at m G / 2 and the one
        # site at m G have one exponent per period (the a = 1 steps)
        pattern = _steady_state(_correlations(rate, [(0.0,) * (m - 1) + (gap,)]), snr)
        pair = _steady_state(_correlations(rate, [(0.0, gap)]), snr * (m / 2))
        site = _steady_state(_correlations(rate, [(gap,)]), snr * m)
        k = pattern.exponent_per_block[0]
        assert pair.exponent_per_block[0] == pytest.approx(k, rel=1e-12, abs=0)
        assert site.exponent_per_block[0] == pytest.approx(k, rel=1e-12, abs=0)
        clustered = vector_exponent(FieldParams(rate, snr, 1.0), Clustered(m, 2, gap))
        assert clustered.exponent_per_block == k

    def test_two_sensor_frozen_values(self):
        # 10 dB, period 0.02: strong correlation favors the co-located pair,
        # weak correlation the even split (values frozen from an independent
        # dense-solver implementation)
        p10 = FieldParams(1.0, 1.0, 0.1)
        k_pair = vector_exponent(p10, Periodic((0.0, 0.02), 1)).exponent_per_block
        k_even = vector_exponent(p10, Periodic((0.01, 0.01), 1)).exponent_per_block
        assert k_pair == pytest.approx(0.21955271740203464, abs=1e-9)
        assert k_even == pytest.approx(0.2155184950235416, abs=1e-9)
        assert k_pair > k_even

        p_weak = FieldParams(100.0, 1.0, 0.1)
        k_pair = vector_exponent(p_weak, Periodic((0.0, 0.02), 1)).exponent_per_block
        k_even = vector_exponent(p_weak, Periodic((0.01, 0.01), 1)).exponent_per_block
        assert k_pair == pytest.approx(1.038498010087848, abs=1e-9)
        assert k_even == pytest.approx(1.3926776806380148, abs=1e-9)
        assert k_even > k_pair

    def test_against_dense_kl_rate(self):
        # the exponent equals the large-n per-sensor KL rate between the two
        # hypotheses; extrapolate the dense-covariance rate in 1/n
        params = FieldParams(9.0, 1.0, 0.1)
        offsets = (0.0, 0.015, 0.015)
        kv = vector_exponent(params, Periodic(offsets, 1)).exponent_per_sensor

        def kl_rate(periods):
            layout = Periodic(offsets, periods)
            n = layout.total_sensors()
            sig2 = params.noise_variance
            cov1 = signal_covariance(params, layout) + sig2 * np.eye(n)
            chol = np.linalg.cholesky(cov1)
            logdet1 = 2.0 * np.sum(np.log(np.diag(chol)))
            trace = sig2 * np.trace(np.linalg.inv(cov1))
            return 0.5 * (trace - n + logdet1 - n * math.log(sig2)) / n

        n1, n2 = 3 * 150, 3 * 300
        k1, k2 = kl_rate(150), kl_rate(300)
        extrapolated = (n2 * k2 - n1 * k1) / (n2 - n1)
        assert kv == pytest.approx(extrapolated, abs=1e-6)

    def test_exponent_nonnegative(self):
        for params, offsets in random_instances(15, seed=404):
            res = vector_exponent(params, Periodic(tuple(offsets), 1))
            assert res.exponent_per_block >= 0.0
            assert res.exponent_per_sensor == pytest.approx(
                res.exponent_per_block / len(offsets))
            assert len(res.innovations) == len(offsets)


def random_batch(rng, n, m):
    """(a, snr): n random period-m patterns with per-row SNRs.  About a tenth
    of the rows are all ones (perfect correlation), a tenth have
    zero-correlation steps, and a tenth have co-located sensors (a = 1 at some
    steps); the rest are uniform on (0, 1) or close to 1."""
    a = rng.uniform(0.0, 1.0, (n, m)) ** rng.choice([1.0, 1e-3, 1e-9], (n, 1))
    kind = rng.integers(10, size=n)
    a[kind == 0] = 1.0
    a[(kind == 1)[:, None] & (rng.uniform(size=(n, m)) < 0.5)] = 0.0
    a[(kind == 2)[:, None] & (rng.uniform(size=(n, m)) < 0.5)] = 1.0
    snr = 10.0 ** rng.uniform(-2.0, 2.0, n)
    return a, snr


def same_bits(x, y) -> bool:
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def same_rows(states, i, one):
    """Row i of the batch ``states`` equals the one-row solve ``one`` bit for bit."""
    return (same_bits(states.p[i], one.p[0]) and same_bits(states.v[i], one.v[0])
            and same_bits(states.exponent_per_block[i], one.exponent_per_block[0])
            and same_bits(states.residual[i], one.residual[0]))


class TestBatchedEngine:
    """One call solves a stack of patterns, each row as it would be alone."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rows_equal_one_row_solves(self, m):
        rng = np.random.default_rng(100 + m)
        a, snr = random_batch(rng, 300, m)
        states = _steady_state(a, snr)
        ones = np.all(a == 1.0, axis=1)
        assert ones.any()
        # perfect correlation solves like any row, to +0.0 throughout
        for got in (states.p[ones], states.v[ones], states.exponent_per_block[ones],
                    states.residual[ones]):
            assert same_bits(got, np.zeros_like(got))
        for i in range(len(a)):
            assert same_rows(states, i, _steady_state(a[i:i + 1], snr[i])), i
        # nor does a row depend on its position or on the batch size
        order = rng.permutation(len(a))[:137]
        shuffled = _steady_state(a[order], snr[order])
        for j, i in enumerate(order):
            assert same_rows(shuffled, j, _steady_state(a[i:i + 1], snr[i]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 12])
    def test_rows_equal_the_python_loop(self, m):
        rng = np.random.default_rng(200 + m)
        a, snr = random_batch(rng, 200, m)
        states = _steady_state(a, snr)
        for i in range(len(a)):
            k, ps, vs, residual = steady_state_loop(a[i].tolist(), float(snr[i]))
            assert (states.exponent_per_block[i], states.p[i].tolist(),
                    states.v[i].tolist(), states.residual[i]) == (k, ps, vs, residual), i

    @pytest.mark.parametrize("ufunc, sign, top", [(np.exp, -1.0, 746.0),
                                                  (np.log1p, 1.0, 1e154)])
    def test_exp_and_log1p_are_batch_independent(self, ufunc, sign, top):
        # what keeps the engine's rows independent: numpy's exp on [-746, 0]
        # and log1p on [0, 1e154], the ranges the engine feeds them, round an
        # element alike at any array offset or size, in a strided or
        # transposed view, and as a 0-d array or a Python float
        rng = np.random.default_rng(17)
        x = sign * np.concatenate([[0.0, top], rng.uniform(0.0, top, 600),
                                   10.0 ** rng.uniform(-300.0, math.log10(top), 600)])
        ref = ufunc(x)
        for offset in range(17):
            buf = np.empty(offset + len(x))
            buf[offset:] = x
            assert same_bits(ufunc(buf[offset:]), ref), offset
        for size in range(1, 34):
            chunks = [ufunc(x[i:i + size]) for i in range(0, len(x), size)]
            assert same_bits(np.concatenate(chunks), ref), size
        strided = np.zeros((len(x), 3))
        strided[:, 1] = x
        assert same_bits(ufunc(strided[:, 1]), ref)
        assert same_bits(ufunc(x.reshape(-1, 2).T).T.ravel(), ref)
        assert same_bits([ufunc(np.array(v)) for v in x.tolist()], ref)
        assert same_bits([ufunc(v) for v in x.tolist()], ref)

    def test_rows_straddling_the_series_cut(self):
        # the exponent term is a series where u = p / (1 + p) < 1/8 and a log
        # elsewhere; rows on both sides of the cut, and rows whose steps take
        # both, solve alike in one batch, alone and in any order
        rng = np.random.default_rng(31)
        a = rng.uniform(0.0, 1.0, (120, 3))
        snr = 0.1 * 10.0 ** rng.uniform(-0.3, 0.3, 120)
        states = _steady_state(a, snr)
        u = states.p / (1.0 + states.p)
        assert (u < 0.125).all(axis=1).any() and (u >= 0.125).all(axis=1).any()
        assert ((u < 0.125).any(axis=1) & (u >= 0.125).any(axis=1)).any()
        for i in range(len(a)):
            assert same_rows(states, i, _steady_state(a[i:i + 1], snr[i])), i
        order = rng.permutation(len(a))
        shuffled = _steady_state(a[order], snr[order])
        for j, i in enumerate(order):
            assert same_rows(shuffled, j, _steady_state(a[i:i + 1], snr[i]))

    @settings(max_examples=300, deadline=None)
    @given(gaps=st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=1,
                         max_size=6).filter(any),
           snr=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e))
    def test_exponent_is_invariant_under_rotation_and_reversal(self, gaps, snr):
        # the field is stationary and time-reversible, so which sensor starts
        # the period, and the direction it is read in, leave the exponent
        m = len(gaps)
        cycles = [gaps[s:] + gaps[:s] for s in range(m)]
        cycles += [cycle[::-1] for cycle in cycles]
        k = _steady_state(_correlations(1.0, cycles), snr).exponent_per_block
        assert k[0] > 0.0
        assert np.max(np.abs(k - k[0])) <= 1e-13 * k[0]

    def test_perfect_correlation_at_infinite_snr(self):
        # a ratio of finite variances may overflow to an infinite SNR; at
        # a = 1 the step adds no signal, whatever the SNR
        states = _steady_state(np.ones((2, 3)), np.array([math.inf, 1.0]))
        for got in (states.p, states.v, states.exponent_per_block, states.residual):
            assert same_bits(got, np.zeros_like(got))

    def test_scalar_stationary_variance_is_every_row_the_same(self):
        # the SNR is the stationary variance in units of the noise variance
        a, _ = random_batch(np.random.default_rng(7), 50, 3)
        states = _steady_state(a, 2.0)
        per_row = _steady_state(a, np.full(len(a), 2.0))
        assert all(same_bits(getattr(states, f), getattr(per_row, f))
                   for f in ("p", "v", "exponent_per_block", "residual"))

    def test_one_row_calls_agree_with_the_engine(self):
        params = FieldParams(1.3, 2.0, 0.5)  # SNR 4, exactly
        offsets = (0.2, 0.0, 0.45)
        states = _steady_state(_correlations(1.3, [offsets]), 4.0)
        res = vector_exponent(params, Periodic(offsets, 1))
        assert res.exponent_per_block == states.exponent_per_block[0]
        assert [inn.p for inn in res.innovations] == (0.5 * states.p[0]).tolist()
        assert [inn.r_e for inn in res.innovations] == (0.5 + 0.5 * states.p[0]).tolist()
        assert [inn.r_e_tilde for inn in res.innovations] == \
            (0.5 + 0.5 * states.v[0]).tolist()
        assert res.diagnostics["residual"] == states.residual[0]
        one = scalar_exponent_from_correlation(params, 0.3)
        assert one.exponent_per_block == _steady_state([[0.3]], 4.0).exponent_per_block[0]

    @pytest.mark.parametrize("m", [1, 2, 3, 10, 100])
    def test_subnormal_snr_rows_solve(self, m):
        # below G = 2.5e-312 the tolerance 1e-12 G underflows to 0, which no
        # residual meets; an M-step row's root is off by up to about M^2
        # subnormal steps, and the tolerance is 16 M^2 of them
        a, _ = random_batch(np.random.default_rng(m), 2000 // m, m)
        snr = 10.0 ** np.random.default_rng(m + 1).uniform(-323.7, -311.7, len(a))
        assert np.all(1e-12 * snr == 0.0)
        states = _steady_state(a, snr)
        assert np.all(states.residual <= 2 * m * m * 2.0 ** -1074)
        assert np.all(states.exponent_per_block == 0.0)

    # rows that fail: at the negative SNR -0.5, outside the domain, 1e-12 G
    # is negative, so the tolerance is the subnormal floor and the finite
    # residual 1.1e-16 fails; a NaN correlation gives a NaN residual
    FAILING = ([0.3], -0.5)

    def test_failing_row_raises_with_its_residual(self):
        a_bad, snr_bad = self.FAILING
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure) as alone:
                _steady_state([a_bad], snr_bad)
            assert 1e-12 * snr_bad < 0.0 < alone.value.residual < 1e-15
            a = np.array([[0.5], [0.9], a_bad, [0.1], [1.0]])
            snr = np.array([1.0, 0.3, snr_bad, 2.0, 1.0])
            good = np.arange(len(a)) != 2
            assert np.all(_steady_state(a[good], snr[good]).residual < 1e-12 * snr[good])
            with pytest.raises(NumericFailure, match="does not map onto itself") as batch:
                _steady_state(a, snr)
        assert batch.value.residual == alone.value.residual

    def test_first_failing_row_is_reported(self):
        a = np.array([[0.5], [np.nan], [0.9], self.FAILING[0]])
        snr = np.array([1.0, 1.0, 1.0, self.FAILING[1]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericFailure) as err:
                _steady_state(a, snr)
            assert math.isnan(err.value.residual)
            with pytest.raises(NumericFailure) as err:
                _steady_state(a[[0, 3, 1]], snr[[0, 3, 1]])
        assert not math.isnan(err.value.residual)

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.99])
    @pytest.mark.parametrize("snr", [1e160, 1e300, 1e307])
    def test_huge_snr_meets_the_high_snr_law(self, a, snr):
        # past G = 1.3e154, where the carry (a^2 + q) p + q overflowed, the
        # exponent is 1/2 log(G (1 - a^2)) - 1/2 up to O(1/G)
        k = _steady_state([[a]], snr).exponent_per_block[0]
        assert k == pytest.approx(0.5 * math.log(snr * (1.0 - a * a)) - 0.5, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(0.1, 2.0),
           gaps=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
                         min_size=0, max_size=3),
           last_gap=st.floats(1e-3, 3.0),
           snr=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e),
           noise_variance=st.floats(2.0 ** -20, 2.0 ** 20),
           k=st.integers(-900, 900))
    def test_variance_scale_is_exact(self, rate, gaps, last_gap, snr, noise_variance, k):
        # Pi0 and sigma^2 times 2^k leave the SNR, and so every exponent, bit
        # for bit as it was, and scale the innovations by exactly 2^k
        layout = Periodic((*gaps, last_gap), 1)
        base = vector_exponent(FieldParams(rate, snr * noise_variance, noise_variance),
                               layout)
        scaled = vector_exponent(FieldParams(rate, math.ldexp(snr * noise_variance, k),
                                             math.ldexp(noise_variance, k)), layout)
        assert (scaled.exponent_per_sensor, scaled.exponent_per_block, scaled.diagnostics) \
            == (base.exponent_per_sensor, base.exponent_per_block, base.diagnostics)
        for one, other in zip(base.innovations, scaled.innovations):
            assert (math.ldexp(one.p, k), math.ldexp(one.r_e, k),
                    math.ldexp(one.r_e_tilde, k), one.gain) \
                == (other.p, other.r_e, other.r_e_tilde, other.gain)


class TestSweepsMatchOneRowSolves:
    """Every sweep point is exactly the one-layout solve at that point, or,
    for the offset sweeps, at the canonical order of its gap cycle."""

    PARAMS = FieldParams(1.0, 1.0, 10.0)

    @pytest.mark.parametrize("grid_points", [3, 4, 15])
    def test_m3(self, grid_points):
        # point (x2, x3) at grid indices (i, j) has the cycle (lo, hi - lo,
        # G - 1 - hi) in grid steps; sorted to a <= b <= c, it is solved at
        # the positions (0, x_a, x_(a+b)), and every ordering reports its bits
        period = 0.1
        res = offset_sweep_m3(self.PARAMS.diffusion_rate, self.PARAMS.snr(), period,
                              grid_points)
        axis = np.linspace(0.0, period, grid_points)
        last = grid_points - 1
        by_cycle = {}
        for n, (i, j) in enumerate(np.ndindex(grid_points, grid_points)):
            assert res.points[n].tolist() == [axis[i], axis[j]]
            lo, hi = min(i, j), max(i, j)
            a, b, _ = cycle = tuple(sorted((lo, hi - lo, last - hi)))
            one = vector_exponent(self.PARAMS, Periodic(
                (axis[a], axis[a + b] - axis[a], period - axis[a + b]), 1))
            assert (res.k_per_sensor[n], res.k_per_block[n]) == \
                (one.exponent_per_sensor, one.exponent_per_block)
            by_cycle.setdefault(cycle, set()).add(res.k_per_block[n].tobytes())
        assert len(by_cycle) == round((grid_points + 2) ** 2 / 12)
        assert all(len(bits) == 1 for bits in by_cycle.values())

    @pytest.mark.parametrize("grid_points", [3, 4, 41])
    def test_delta1(self, grid_points):
        # grid points i and G - 1 - i are the cycle (d1_i, period - d1_i) with
        # i <= G - 1 - i, solved once
        period = 0.5
        res = offset_sweep_m2(self.PARAMS.diffusion_rate, self.PARAMS.snr(), period,
                              grid_points)
        d1 = np.linspace(0.0, period, grid_points).tolist()
        assert res.points.tolist() == d1
        for i, (k_sensor, k_block) in enumerate(zip(res.k_per_sensor, res.k_per_block)):
            first = d1[min(i, grid_points - 1 - i)]
            one = vector_exponent(self.PARAMS, Periodic((first, period - first), 1))
            assert (k_sensor, k_block) == (one.exponent_per_sensor, one.exponent_per_block)
            twin = grid_points - 1 - i
            assert same_bits(res.k_per_block[twin], k_block)

    def test_cluster(self):
        # each size m is the co-located pair of its cluster period at m G / 2,
        # and matches the layout of n_total // m clusters over the field
        length, n_total, snr = 0.7, 18, self.PARAMS.snr()
        res = cluster_size_sweep(self.PARAMS.diffusion_rate, snr, length, n_total, [1, 3, 9])
        for m, grid, k_block, k_sensor in zip((1, 3, 9), res.points.tolist(), res.k_per_block,
                                              res.k_per_sensor):
            clusters = n_total // m
            pair = vector_exponent(FieldParams(self.PARAMS.diffusion_rate, snr * (m / 2), 1.0),
                                   Periodic((0.0, length / clusters), 1))
            assert (grid, k_block, k_sensor) == \
                (float(m), pair.exponent_per_block, pair.exponent_per_block / m)
            one = vector_exponent(self.PARAMS, Clustered(m, clusters, length / clusters))
            assert k_block == pytest.approx(one.exponent_per_block, rel=1e-12)

    def test_cluster_beyond_the_one_site_range(self):
        # one cluster of 20,000 at G = 1e151: the one site (T,) at m G = 2e155
        # is past where the carry (a^2 + q) p + q overflowed; q + a^2 p / (p + 1)
        # solves it, and it agrees with the sweep's gap-0 pair
        res = cluster_size_sweep(1.0, 1e151, 0.5, 20000, [20000])
        one = vector_exponent(FieldParams(1.0, 1e151, 1.0), Clustered(20000, 1, 0.5))
        assert res.k_per_block[0] == pytest.approx(one.exponent_per_block, rel=1e-12)
        assert res.k_per_sensor[0] == res.k_per_block[0] / 20000
        site = _steady_state(_correlations(1.0, [(0.5,)]), 1e151 * 20000)
        assert res.k_per_block[0] == pytest.approx(site.exponent_per_block[0], rel=1e-12)

    def test_correlation(self):
        res = correlation_sweep(self.PARAMS.snr(), np.linspace(0.0, 1.0, 201))
        for a, k_sensor in zip(res.points.tolist(), res.k_per_sensor):
            one = scalar_exponent_from_correlation(self.PARAMS, a)
            assert k_sensor == one.exponent_per_sensor

    def test_snr(self):
        # params whose snr() is the grid point exactly
        res = snr_sweep(0.6, np.logspace(-2, 2, 201))
        for snr, k_sensor in zip(res.points.tolist(), res.k_per_sensor):
            one = scalar_exponent_from_correlation(FieldParams(1.0, snr, 1.0), 0.6)
            assert k_sensor == one.exponent_per_sensor
