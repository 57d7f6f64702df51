import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fieldexp.field_model import (
    Clustered,
    FieldParams,
    Hypothesis,
    Periodic,
    Uniform,
    _correlations,
    _filter_schedule,
    derive_rng,
    experiment_schema,
    layout_from_dict,
    layout_to_dict,
)

from fieldexp.cli import _check
from oracles import (
    correlation_from_spacing,
    sample_observation_matrix,
    sample_observations,
    signal_covariance,
)

PARAMS = FieldParams(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=1.0)


def ou_autocorrelation_quadrature(rate, pi0, distance):
    """Independent oracle: autocorrelation from the spectral density
    2*rate*pi0 / (rate^2 + w^2) by numerical quadrature."""
    val, _ = integrate.quad(
        lambda w: 2.0 * rate * pi0 / (rate**2 + w**2),
        0.0, np.inf, weight="cos", wvar=distance, limit=400,
    )
    return val / np.pi


class TestCorrelation:
    def test_zero_spacing(self):
        assert correlation_from_spacing(PARAMS, 0.0) == 1.0

    def test_zero_diffusion(self):
        params = FieldParams(0.0, 1.0, 1.0)
        assert correlation_from_spacing(params, 5.0) == 1.0

    def test_half(self):
        assert correlation_from_spacing(PARAMS, np.log(2)) == pytest.approx(0.5, abs=1e-15)

    def test_negative_spacing_rejected(self):
        with pytest.raises(ValueError):
            correlation_from_spacing(PARAMS, -0.1)

    def test_large_spacing_vanishes(self):
        assert correlation_from_spacing(PARAMS, 1e3) == 0.0


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(diffusion_rate=-1.0, stationary_variance=1.0, noise_variance=1.0),
        dict(diffusion_rate=1.0, stationary_variance=0.0, noise_variance=1.0),
        dict(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=0.0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FieldParams(**kwargs)

    @pytest.mark.parametrize("name", ["diffusion_rate", "stationary_variance",
                                      "noise_variance"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, name, value):
        kwargs = dict(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=1.0)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            FieldParams(**kwargs)

    def test_snr(self):
        assert FieldParams(1.0, 2.0, 0.5).snr() == 4.0


class TestLayouts:
    def test_sizes(self):
        assert Uniform(spacing=0.5, count=4).total_sensors() == 4
        assert Clustered(cluster_size=2, cluster_count=3, period=1.5).total_sensors() == 6
        lay = Periodic(offsets=(0.2, 0.8), period_count=2)
        assert lay.total_sensors() == 4
        assert lay.period == pytest.approx(1.0)

    def test_invalid_layouts(self):
        with pytest.raises(ValueError):
            Uniform(spacing=0.0, count=3)
        with pytest.raises(ValueError):
            Clustered(cluster_size=0, cluster_count=1, period=1.0)
        with pytest.raises(ValueError):
            Periodic(offsets=(0.0, 0.0), period_count=1)
        with pytest.raises(ValueError):
            Periodic(offsets=(-0.1, 0.5), period_count=1)

    @pytest.mark.parametrize("offsets", [(1.0, np.inf), (np.nan, 0.5), (1e308, 1e308)])
    def test_non_finite_gaps_rejected(self, offsets):
        with pytest.raises(ValueError, match="finite"):
            Periodic(offsets=offsets, period_count=1)

    def test_non_finite_spacing_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Clustered(cluster_size=2, cluster_count=1, period=np.inf)
        with pytest.raises(ValueError, match="finite"):
            Uniform(spacing=np.inf, count=1)

    def test_kinds_are_constructors_of_one_type(self):
        assert Uniform(0.5, 4) == Periodic((0.5,), 4)
        assert Clustered(3, 2, 1.5) == Periodic((0.0, 0.0, 1.5), 2)
        assert type(Uniform(0.5, 4)) is type(Clustered(3, 2, 1.5)) is Periodic

    def test_step_correlations(self):
        lay = Periodic(offsets=(0.0, np.log(2)), period_count=2)
        np.testing.assert_allclose(_filter_schedule(PARAMS, lay).step_corr, [1.0, 0.5, 1.0],
                                   atol=1e-15)

    @pytest.mark.parametrize("layout", [Uniform(0.3, 400), Periodic((0.1, 0.0, 0.4), 133)])
    def test_step_correlations_are_the_engines(self, layout):
        # the engine's one-period correlations, repeated, bit for bit; positions
        # summed over hundreds of periods round differently
        rate = PARAMS.diffusion_rate
        engine = np.tile(_correlations(rate, [layout.offsets])[0], layout.period_count)[:-1]
        sched = _filter_schedule(PARAMS, layout)
        np.testing.assert_array_equal(sched.step_corr.view(np.uint64), engine.view(np.uint64))

    def test_an_overflowing_rate_times_gap_is_correlation_zero(self):
        # exp(-inf) = 0 is the limit: no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _correlations(1e308, [1e308, 1.0, 0.0]).tolist() == [0.0, 0.0, 1.0]


class TestSignalCovariance:
    def test_single_sensor(self):
        cov = signal_covariance(PARAMS, Uniform(1.0, 1))
        np.testing.assert_allclose(cov, [[1.0]])

    def test_colocated_pair(self):
        cov = signal_covariance(PARAMS, Clustered(2, 1, 1.0))
        np.testing.assert_allclose(cov, [[1.0, 1.0], [1.0, 1.0]])

    def test_toeplitz_example(self):
        cov = signal_covariance(PARAMS, Uniform(np.log(2), 3))
        expected = [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]
        np.testing.assert_allclose(cov, expected, atol=1e-14)

    @pytest.mark.parametrize("rate,pi0,distance", [(1.0, 1.0, np.log(2)),
                                                   (0.7, 2.5, 1.3)])
    def test_against_spectral_quadrature(self, rate, pi0, distance):
        params = FieldParams(rate, pi0, 1.0)
        cov = signal_covariance(params, Uniform(distance, 2))
        oracle = ou_autocorrelation_quadrature(rate, pi0, distance)
        assert cov[0, 1] == pytest.approx(oracle, rel=1e-8)

    def test_clustered_equals_periodic_with_zero_offsets(self):
        clustered = Clustered(cluster_size=3, cluster_count=4, period=0.8)
        periodic = Periodic(offsets=(0.0, 0.0, 0.8), period_count=4)
        np.testing.assert_array_equal(
            signal_covariance(PARAMS, clustered),
            signal_covariance(PARAMS, periodic),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        rate=st.floats(0.0, 20.0),
        kind=st.integers(0, 2),
        m=st.integers(1, 4),
        n=st.integers(1, 5),
        gap=st.floats(0.01, 5.0),
    )
    def test_symmetric_psd(self, rate, kind, m, n, gap):
        params = FieldParams(rate, 2.0, 1.0)
        layout = [Uniform(gap, m * n),
                  Clustered(m, n, gap),
                  Periodic((0.0,) * (m - 1) + (gap,), n)][kind]
        cov = signal_covariance(params, layout)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-10 * params.stationary_variance


class TestSampling:
    def test_deterministic_in_seed(self):
        lay = Uniform(0.5, 6)
        a = sample_observations(PARAMS, lay, "H1", 123)
        b = sample_observations(PARAMS, lay, Hypothesis.H1, 123)
        np.testing.assert_array_equal(a, b)
        c = sample_observations(PARAMS, lay, "H1", 124)
        assert not np.array_equal(a, c)

    def test_h0_variance(self):
        params = FieldParams(1.0, 1.0, 0.8)
        draws = sample_observation_matrix(params, Uniform(1.0, 1), "H0", 7, 1_000_000)
        assert draws.shape == (1_000_000, 1)
        assert np.var(draws) == pytest.approx(0.8, rel=0.01)

    def test_perfectly_correlated_samples_identical(self):
        # negligible measurement noise isolates the signal recursion
        params = FieldParams(1.0, 1.0, 1e-18)
        draws = sample_observation_matrix(params, Clustered(5, 1, 1.0), "H1", 3, 100)
        assert np.max(np.ptp(draws, axis=1)) < 1e-7

    def test_pairwise_signal_correlation(self):
        lay = Uniform(np.log(2), 2)
        draws = sample_observation_matrix(PARAMS, lay, "H1", 11, 1_000_000)
        # measurement noise is independent, so the off-diagonal estimates
        # the signal covariance a * pi0 directly
        cov = np.cov(draws.T)
        assert cov[0, 1] == pytest.approx(0.5, abs=0.01)

    def test_stationary_variance_every_sensor(self):
        lay = Periodic(offsets=(0.1, 0.0, 0.7), period_count=2)
        draws = sample_observation_matrix(PARAMS, lay, "H1", 5, 400_000)
        sig_var = np.var(draws, axis=0) - PARAMS.noise_variance
        np.testing.assert_allclose(sig_var, 1.0, atol=0.02)

    def test_empirical_covariance_matches_model(self):
        lay = Periodic(offsets=(0.3, 0.9), period_count=2)
        draws = sample_observation_matrix(PARAMS, lay, "H1", 19, 1_000_000)
        emp = np.cov(draws.T)
        model = signal_covariance(PARAMS, lay) + np.eye(4)
        np.testing.assert_allclose(emp, model, atol=0.02)

    def test_h0_is_pure_noise(self):
        lay = Uniform(0.2, 3)
        draws = sample_observation_matrix(PARAMS, lay, "H0", 21, 200_000)
        emp = np.cov(draws.T)
        np.testing.assert_allclose(emp, np.eye(3), atol=0.02)

    def test_derive_rng_streams_differ(self):
        a = derive_rng(5, 0, 1).standard_normal(4)
        b = derive_rng(5, 0, 2).standard_normal(4)
        c = derive_rng(5, 0, 1).standard_normal(4)
        np.testing.assert_array_equal(a, c)
        assert not np.array_equal(a, b)


class TestJson:
    @pytest.mark.parametrize("layout", [
        Uniform(0.5, 7),
        Clustered(2, 5, 1.0),
        Periodic((0.0, 0.25, 0.75), 4),
    ])
    def test_layout_round_trip(self, layout):
        # a JSON layout is the gap pattern alone: it reads back as one period
        assert layout_from_dict(layout_to_dict(layout)) == Periodic(layout.offsets, 1)

    @pytest.mark.parametrize("layout, echo", [
        (Clustered(1, 4, 0.7), {"kind": "uniform", "spacing": 0.7}),
        (Periodic((0.5,), 2), {"kind": "uniform", "spacing": 0.5}),
        (Periodic((0.0, 0.8), 3), {"kind": "clustered", "cluster_size": 2, "period": 0.8}),
        (Periodic((0.8, 0.0), 3), {"kind": "periodic", "offsets": [0.8, 0.0]}),
        (Periodic((0.0, 0.3, 0.5), 1), {"kind": "periodic", "offsets": [0.0, 0.3, 0.5]}),
    ])
    def test_echo_is_the_simplest_kind(self, layout, echo):
        assert layout_to_dict(layout) == echo
        assert layout_from_dict(echo) == Periodic(layout.offsets, 1)

    def test_unknown_layout_kind(self):
        with pytest.raises(ValueError):
            layout_from_dict({"kind": "ring", "radius": 1.0})

    def test_document_validation(self):
        doc = {"diffusion_rate": 1.0, "stationary_variance": 1.0,
               "noise_variance": 0.1,
               "layout": {"kind": "uniform", "spacing": 0.5}}
        _check(doc, experiment_schema(), repr)

    def test_unknown_keys_rejected(self):
        doc = {"diffusion_rate": 1.0, "stationary_variance": 1.0,
               "noise_variance": 0.1, "wavelength": 3.0}
        with pytest.raises(ValueError):
            _check(doc, experiment_schema(), repr)

    def test_bad_layout_rejected(self):
        doc = {"diffusion_rate": 1.0, "stationary_variance": 1.0,
               "noise_variance": 0.1,
               "layout": {"kind": "uniform", "spacing": -2.0}}
        with pytest.raises(ValueError):
            _check(doc, experiment_schema(), repr)
