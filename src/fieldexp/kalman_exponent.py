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
:func:`vector_exponent` solves any layout;
:func:`scalar_exponent_from_correlation` solves the one-sensor pattern (a,)
for a bare correlation a in [0, 1], as the sweeps and the spacing optimum use.

One step of the prediction Riccati recursion,

    p  ->  ((a^2 sigma^2 + q) p + q sigma^2) / (p + sigma^2),   q = Pi0 (1 - a^2),

is a linear-fractional (Moebius) map, so one period composes into a single
2 x 2 matrix whose fixed point is the positive root of a quadratic -- the
periodic Riccati equation (Bittanti, Colaneri & De Nicolao, 1991).  With the
prediction variances P_i known, the noise-only prediction variance V_i follows
an affine recursion whose periodic fixed point is closed form as well.  The
exponent per period is

    sum_i  1/2 ln(R_i / sigma^2) + 1/2 Rt_i / R_i - 1/2,

with R_i = sigma^2 + P_i and Rt_i = sigma^2 + V_i; per sensor it is that sum
divided by M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NumericFailure
from .field_model import FieldParams, Periodic

__all__ = [
    "ScalarInnovations",
    "ExponentResult",
    "scalar_riccati_fixed_point",
    "scalar_exponent_from_correlation",
    "vector_exponent",
]

# Roundoff can push a mathematically zero exponent slightly negative; anything
# below this is a real error, not noise.
_NEGATIVE_TOL = 1e-12

# The periodic fixed point must map onto itself within this fraction of Pi0.
_RESIDUAL_TOL = 1e-12


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
    period.
    """

    exponent_per_sensor: float
    exponent_per_block: float
    innovations: tuple[ScalarInnovations, ...]
    diagnostics: dict = field(default_factory=dict)


def _clamp_exponent(value: float, context: str) -> float:
    if value < -_NEGATIVE_TOL:
        raise NumericFailure(
            f"{context}: exponent {value} is negative beyond roundoff", residual=value
        )
    return max(value, 0.0)


def _steady_state(params: FieldParams, pattern: tuple[float, ...]) -> ExponentResult:
    """Periodic steady state and exponent of the step-correlation ``pattern``.

    ``pattern[i]`` is the correlation from sensor i to sensor i + 1 of one
    period; the last entry is the wrap-around step.  Raises NumericFailure
    when the closed-form fixed point does not map onto itself.
    """
    sig2 = params.noise_variance
    pi0 = params.stationary_variance
    m = len(pattern)
    if all(a == 1.0 for a in pattern):
        # perfectly correlated: one sample pins the signal down, the exponent is 0
        inn = ScalarInnovations(p=0.0, r_e=sig2, r_e_tilde=sig2, gain=0.0)
        return ExponentResult(0.0, 0.0, (inn,) * m, {"residual": 0.0})
    steps = []
    for a in pattern:
        q = pi0 * (1.0 - a) * (1.0 + a)  # Pi0 (1 - a^2), accurate as a -> 1
        steps.append((a, a * a * sig2 + q, q * sig2))

    # Compose the Moebius matrices [[a^2 sig2 + q, q sig2], [1, sig2]] of one
    # period; all entries are >= 0, and rescaling keeps them from over- or
    # underflowing on long periods.
    al, be, ga, de = 1.0, 0.0, 0.0, 1.0
    for _, t11, t12 in steps:
        al, be, ga, de = (t11 * al + t12 * ga, t11 * be + t12 * de,
                          al + sig2 * ga, be + sig2 * de)
        scale = 1.0 / (al + be + ga + de)
        al, be, ga, de = al * scale, be * scale, ga * scale, de * scale

    # Positive root of ga p^2 + (de - al) p - be = 0, free of cancellation.
    b = de - al
    root = math.sqrt(b * b + 4.0 * ga * be)
    p = 2.0 * be / (b + root) if b > 0 else (root - b) / (2.0 * ga)

    # Carry the root once around the period.  Along the way, compose the
    # noise-only prediction variance map V -> a^2 ((1 - K)^2 V + K^2 sig2),
    # with filter gain K = P / (P + sig2), into V -> c_tot V + d_tot.
    ps, maps = [], []
    c_tot, d_tot = 1.0, 0.0
    for a, t11, t12 in steps:
        k = p / (p + sig2)
        c, d = a * a * (1.0 - k) ** 2, a * a * k * k * sig2
        ps.append(p)
        maps.append((c, d))
        c_tot, d_tot = c * c_tot, c * d_tot + d
        p = (t11 * p + t12) / (p + sig2)
    residual = abs(p - ps[0])
    if not residual < _RESIDUAL_TOL * pi0:
        raise NumericFailure("periodic Riccati fixed point does not map onto itself",
                             residual=residual)
    v = d_tot / (1.0 - c_tot)

    innovations = []
    k_block = 0.0
    for (a, _, _), p, (c, d) in zip(steps, ps, maps):
        r_e = sig2 + p
        innovations.append(ScalarInnovations(p=p, r_e=r_e, r_e_tilde=sig2 + v,
                                             gain=a * p / r_e))
        # 1/2 ln(R / sig2) + 1/2 Rt / R - 1/2, without cancelling terms of order 1
        k_block += 0.5 * math.log1p(p / sig2) + 0.5 * (v - p) / r_e
        v = c * v + d
    k_block = _clamp_exponent(k_block, "exponent")
    return ExponentResult(
        exponent_per_sensor=k_block / m,
        exponent_per_block=k_block,
        innovations=tuple(innovations),
        diagnostics={"residual": residual},
    )


def scalar_riccati_fixed_point(params: FieldParams, a: float) -> ScalarInnovations:
    """Steady-state innovations of uniformly spaced sensors at correlation ``a``."""
    return scalar_exponent_from_correlation(params, a).innovations[0]


def scalar_exponent_from_correlation(params: FieldParams, a: float) -> ExponentResult:
    """Per-sensor exponent for uniformly spaced sensors at correlation ``a``."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"correlation must lie in [0, 1], got {a}")
    result = _steady_state(params, (a,))
    result.diagnostics["correlation"] = a
    return result


def vector_exponent(params: FieldParams, layout: Periodic) -> ExponentResult:
    """Exponent of a layout, per period of ``len(layout.offsets)`` sensors and
    per sensor."""
    rate = params.diffusion_rate
    result = _steady_state(params, tuple(math.exp(-rate * d) for d in layout.offsets))
    result.diagnostics.update(sensors_per_period=len(layout.offsets),
                              period=layout.period)
    return result
