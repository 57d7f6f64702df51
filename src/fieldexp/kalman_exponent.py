"""Closed-form detection error exponents from steady-state innovations.

For a fixed false-alarm size, the miss probability of the optimal detector
decays exponentially in the number of sensors; the decay rate is determined by
the steady-state variances of the one-step prediction errors (innovations) of
the signal-hypothesis Kalman filter, evaluated both on signal-plus-noise data
and on noise-only data (Sung, Tong & Poor, IEEE Trans. IT 2006).

Every layout is a :class:`~fieldexp.field_model.Periodic` pattern of gaps
d_1, ..., d_M between consecutive sensors, d_M being the wrap-around gap into
the next period, so the filter sees the periodic pattern of step correlations
a_i = exp(-A d_i).  Uniform spacing s is the pattern (exp(-A s),), and clusters
of m co-located sensors every T are (1, ..., 1, exp(-A T)).

One engine, :func:`_steady_state`, solves a stack of N patterns of one length
M in one call: numpy runs each step below over the N rows at once, with the
same IEEE operations, in the same order, as for one row.  numpy's exp and
log1p give an element the same bits wherever it sits in an array (the tests
check this), so a row's result does not depend on the batch size or its place.
The sweeps and the spacing optimum of :mod:`fieldexp.config_opt` solve a whole
grid per call.  :func:`vector_exponent` (any layout) and
:func:`scalar_exponent_from_correlation` (the one-sensor pattern (a,) of a
bare correlation a in [0, 1]) are one-row calls.

The engine works in units of the noise variance sigma^2, so it sees only the
SNR G = Pi0 / sigma^2, and every variance below is the physical one / sigma^2.
One step of the prediction Riccati recursion,

    p  ->  ((a^2 + q) p + q) / (p + 1),   q = G (1 - a^2),

is a linear-fractional (Moebius) map, so one period composes into a single
2 x 2 matrix whose fixed point is the positive root of a quadratic -- the
periodic Riccati equation (Bittanti, Colaneri & De Nicolao, 1991).  The root
is carried around the period by the same map written as q + a^2 p / (p + 1),
which forms no product p q, so it stays finite up to an SNR near the float
maximum.  With the prediction variances p_i known, the noise-only prediction
variance v_i follows an affine recursion whose periodic fixed point is closed
form as well.  The exponent per period is

    sum_i  1/2 ln(1 + p_i) + 1/2 (v_i - p_i) / (1 + p_i),

the innovations variances being sigma^2 (1 + p_i) on signal-plus-noise data
and sigma^2 (1 + v_i) on noise-only data; per sensor it is that sum divided
by M.  At small p a term's two parts are O(p) and cancel to O(p^2), so where
u = p / (1 + p) < 1/8 the engine sums it as 1/2 f(u) + 1/2 v / (1 + p), with the
series f(u) = ln(1 + p) - u = sum_{k>=2} u^k / k, whose parts do not cancel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericFailure
from .field_model import FieldParams, Periodic, _correlations

__all__ = [
    "ScalarInnovations",
    "ExponentResult",
    "scalar_exponent_from_correlation",
    "vector_exponent",
]

# Roundoff can push a mathematically zero exponent slightly negative; anything
# below this is a real error, not noise.
_NEGATIVE_TOL = 1e-12

# The periodic fixed point must map onto itself within this fraction of the
# SNR.  Below the normal float range, values are spaced 2^-1074 apart, and
# the root of an M-step period is off by up to about M^2 such steps, so the
# tolerance is never below _RESIDUAL_FLOOR * M^2, 16 M^2 steps.
_RESIDUAL_TOL = 1e-12
_RESIDUAL_FLOOR = 2.0 ** -1070

# f(u) = sum_{k>=2} u^k / k, summed by Horner from 1/25 down where u < 1/8:
# the first term left out is below 2e-23 of the sum.
_SERIES = tuple(1.0 / k for k in range(25, 1, -1))


@dataclass(frozen=True)
class ScalarInnovations:
    """Steady-state innovations statistics at one sensor.

    p         : one-step prediction error variance under the signal hypothesis
    r_e       : innovations variance under the signal hypothesis (noise + p)
    r_e_tilde : innovations variance of the same filter driven by noise-only data
    gain      : steady-state prediction gain a * p / r_e, with a the
                correlation of the step to the next sensor
    """

    p: float
    r_e: float
    r_e_tilde: float
    gain: float


@dataclass
class ExponentResult:
    """Error exponent of a configuration, with solver by-products.

    exponent_per_sensor is the decay rate per activated sensor;
    exponent_per_block the rate per spatial period (they coincide for
    uniform spacing).  ``innovations`` holds one entry per sensor of the
    period.  ``diagnostics`` says how the result was computed: the
    ``residual`` of the periodic fixed point.
    """

    exponent_per_sensor: float
    exponent_per_block: float
    innovations: tuple[ScalarInnovations, ...]
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SteadyStates:
    """Periodic steady states of N step-correlation patterns of length M, the
    variances in units of the noise variance.

    p                  : (N, M) prediction variances under the signal hypothesis
    v                  : (N, M) prediction variances of the same filter driven
                         by noise-only data
    exponent_per_block : (N,) exponent per period
    residual           : (N,) how far one period moves the closed-form fixed point
    """

    p: np.ndarray
    v: np.ndarray
    exponent_per_block: np.ndarray
    residual: np.ndarray


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _steady_state(a, snr) -> SteadyStates:
    """Periodic steady states and exponents of the rows of ``a``.

    ``a`` is an (N, M) array: ``a[n, i]`` is the correlation from sensor i to
    sensor i + 1 of one period of pattern n, the last column being the
    wrap-around step.  ``snr``, the stationary variance in units of the noise
    variance, is a scalar or one value per row.  A row is solved by the same
    IEEE operations as a one-row call, and numpy's elementwise exp and log1p
    round an element alike in any batch (a tested property), so its result
    does not depend on the batch.  Rows of perfect correlation have exponent 0.
    Raises NumericFailure for the first row whose closed-form fixed point does
    not map onto itself, or whose exponent is negative beyond roundoff; numpy
    warns of none of the overflow, division by zero or NaN such a row may
    carry.
    """
    a = np.asarray(a, dtype=float)
    n, m = a.shape
    snr = np.asarray(snr, dtype=float)
    cols = np.ascontiguousarray(a.T)  # one row per step
    # G (1 - a^2), accurate as a -> 1, and 0 at a = 1 even if G overflowed to inf
    q = np.where(cols < 1.0, snr * (1.0 - cols) * (1.0 + cols), 0.0)
    a2 = cols * cols
    t11 = a2 + q

    # Compose the Moebius matrices [[a^2 + q, q], [1, 1]] of one period; all
    # entries are >= 0, and rescaling keeps them from over- or underflowing
    # on long periods.
    al, be, ga, de = np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)
    for j in range(m):
        al, be, ga, de = (t11[j] * al + q[j] * ga, t11[j] * be + q[j] * de,
                          al + ga, be + de)
        scale = 1.0 / (al + be + ga + de)
        al, be, ga, de = al * scale, be * scale, ga * scale, de * scale

    # Positive root of ga p^2 + (de - al) p - be = 0, free of cancellation.
    b = de - al
    root = np.sqrt(b * b + 4.0 * ga * be)
    p = np.where(b > 0, 2.0 * be, root - b) / np.where(b > 0, b + root, 2.0 * ga)

    # Carry the root once around the period; q + a^2 p / (p + 1) forms no
    # product p q to overflow.
    ps = np.empty_like(cols)
    for j in range(m):
        ps[j] = p
        p = q[j] + a2[j] * p / (p + 1.0)
    del t11, q
    residual = np.abs(p - ps[0])

    # Compose the noise-only prediction variance map v -> a^2 ((1 - K)^2 v +
    # K^2) of each step, with filter gain K = p / (p + 1), into
    # v -> c_tot v + d_tot, and carry its fixed point around the period.
    k = ps / (ps + 1.0)
    c = a2 * ((1.0 - k) * (1.0 - k))
    d = a2 * k * k
    c_tot, d_tot = 1.0, 0.0
    for j in range(m):
        c_tot, d_tot = c[j] * c_tot, c[j] * d_tot + d[j]
    vs = np.empty_like(cols)
    # c_tot = 1 only if every a = 1, and then d_tot = 0: v = 0, not 0/0
    vs[0] = d_tot / np.where(c_tot == 1.0, 1.0, 1.0 - c_tot)
    for j in range(m - 1):
        vs[j + 1] = c[j] * vs[j] + d[j]
    del a2, c, d

    # 1/2 ln(1 + p) + 1/2 (v - p) / (1 + p) per step, or 1/2 f(u) + 1/2 v /
    # (1 + p) where u = K < 1/8, summed over the period in order
    series = k * _SERIES[0]
    series += _SERIES[1]
    for coef in _SERIES[2:]:
        series *= k
        series += coef
    terms = np.where(k < 0.125, 0.5 * (series * k * k) + 0.5 * vs / (1.0 + ps),
                     0.5 * np.log1p(ps) + 0.5 * (vs - ps) / (1.0 + ps))
    k_block = 0.0
    for term in terms:
        k_block = k_block + term

    bad_fixed_point = ~(residual < np.maximum(_RESIDUAL_TOL * snr, _RESIDUAL_FLOOR * (m * m)))
    bad = np.flatnonzero(bad_fixed_point | (k_block < -_NEGATIVE_TOL))
    if bad.size:
        i = bad[0]
        if bad_fixed_point[i]:
            raise NumericFailure("periodic Riccati fixed point does not map onto itself",
                                 residual=float(residual[i]))
        raise NumericFailure(f"exponent {float(k_block[i])} is negative beyond roundoff",
                             residual=float(k_block[i]))
    return SteadyStates(ps.T, vs.T, np.maximum(k_block, 0.0), residual)


def _result(params: FieldParams, a: np.ndarray) -> ExponentResult:
    """ExponentResult of the one-row pattern ``a`` of shape (1, M)."""
    sig2 = params.noise_variance
    states = _steady_state(a, params.snr())
    k_block = float(states.exponent_per_block[0])
    p_and_v = sig2 * np.concatenate([states.p, states.v])  # back from noise units
    innovations = tuple(
        ScalarInnovations(p=p, r_e=sig2 + p, r_e_tilde=sig2 + v, gain=ai * p / (sig2 + p))
        for ai, p, v in zip(a[0].tolist(), *p_and_v.tolist()))
    return ExponentResult(
        exponent_per_sensor=k_block / a.shape[1],
        exponent_per_block=k_block,
        innovations=innovations,
        diagnostics={"residual": float(states.residual[0])},
    )


def scalar_exponent_from_correlation(params: FieldParams, a: float) -> ExponentResult:
    """Per-sensor exponent for uniformly spaced sensors at correlation ``a``."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"correlation must lie in [0, 1], got {a}")
    return _result(params, np.array([[a]], dtype=float))


def vector_exponent(params: FieldParams, layout: Periodic) -> ExponentResult:
    """Exponent of a layout, per period of ``len(layout.offsets)`` sensors and
    per sensor."""
    return _result(params, _correlations(params.diffusion_rate, [layout.offsets]))
