"""Reference routes the tests compare the package against.

Dense covariances, the dense log-likelihood ratio, the one-observation LLR
through the filter innovations, sampling one observation vector or many, the
sampler and the innovations LLR pass in their out-of-place, sensor-by-sensor
form (the Monte Carlo kernel fuses and blocks them), the
spacing-to-correlation map, the one-pattern steady-state loop and a numerical
search for the optimal correlation.  None of them is on a path the command
line runs, so they live here and scipy stays a test-only dependency.
"""

import math

import numpy as np
import scipy.linalg

from fieldexp import kalman_exponent
from fieldexp.errors import NumericFailure
from fieldexp.field_model import (
    FieldParams,
    Hypothesis,
    Periodic,
    _correlations,
    _filter_schedule,
    derive_rng,
)

DIRECT_MAX_SENSORS = 2000


def correlation_from_spacing(params: FieldParams, spacing: float) -> float:
    """Correlation coefficient exp(-diffusion_rate * spacing), in [0, 1]."""
    if spacing < 0:
        raise ValueError(f"spacing must be >= 0, got {spacing}")
    return float(np.exp(-params.diffusion_rate * spacing))


def signal_covariance(params: FieldParams, layout: Periodic) -> np.ndarray:
    """Exact signal covariance: entry (i, j) is Pi0 * exp(-A * |x_i - x_j|).

    Co-located sensors give a rank-deficient (but still PSD) matrix; callers
    that need positive definiteness must add the noise variance themselves.
    """
    within = np.concatenate([[0.0], np.cumsum(layout.offsets[:-1])])
    x = (layout.period * np.arange(layout.period_count)[:, None] + within).ravel()
    return params.stationary_variance * np.exp(
        -params.diffusion_rate * np.abs(x[:, None] - x[None, :])
    )


def _as_hypothesis(hypothesis) -> Hypothesis:
    if isinstance(hypothesis, Hypothesis):
        return hypothesis
    return Hypothesis(str(hypothesis))


def reference_sample_columns(params, layout, hypothesis, rng, trials):
    """Observations with shape (n_sensors, trials), column t one trial: the
    sampler in its out-of-place form, one draw of ``trials`` per row."""
    n = layout.total_sensors()
    sigma = np.sqrt(params.noise_variance)
    if hypothesis is Hypothesis.H0:
        return sigma * rng.standard_normal((n, trials))
    pi0 = params.stationary_variance
    a = _correlations(params.diffusion_rate, np.tile(layout.offsets, layout.period_count)[:-1])
    step_sd = np.sqrt(pi0 * np.maximum(0.0, 1.0 - a * a))
    out = np.empty((n, trials))
    state = np.sqrt(pi0) * rng.standard_normal(trials)
    out[0] = state + sigma * rng.standard_normal(trials)
    for i in range(1, n):
        state = a[i - 1] * state + step_sd[i - 1] * rng.standard_normal(trials)
        out[i] = state + sigma * rng.standard_normal(trials)
    return out


def reference_llr_columns(sched, cols, noise_variance):
    """LLR of each column of ``cols`` (shape (n, trials)): the innovations
    LLR pass in its out-of-place form."""
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


def sample_observation_matrix(params, layout, hypothesis, seed: int, trials: int) -> np.ndarray:
    """``trials`` independent observation vectors, shape (trials, n)."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    hyp = _as_hypothesis(hypothesis)
    rng = derive_rng(seed, 0 if hyp is Hypothesis.H0 else 1)
    return reference_sample_columns(params, layout, hyp, rng, trials).T


def sample_observations(params, layout, hypothesis, seed: int) -> np.ndarray:
    """One observation vector (length n), deterministic in ``seed``."""
    hyp = _as_hypothesis(hypothesis)
    rng = derive_rng(seed, 0 if hyp is Hypothesis.H0 else 1)
    return reference_sample_columns(params, layout, hyp, rng, 1)[:, 0]


def llr_innovations(params: FieldParams, layout: Periodic, observations) -> float:
    """Exact log-likelihood ratio computed through the filter innovations.

    Runs the signal-hypothesis Kalman filter along the sensor line (the filter
    schedule follows the layout's gaps) and whitens the observations; the LLR
    is the whitened Gaussian log-density minus the noise-only log-density.
    """
    y = np.asarray(observations, dtype=float)
    n = layout.total_sensors()
    if y.shape != (n,):
        raise ValueError(f"observations must have shape ({n},), got {y.shape}")
    sched = _filter_schedule(params, layout)
    return float(reference_llr_columns(sched, y[:, None], params.noise_variance)[0])


def llr_direct(params: FieldParams, layout: Periodic, observations) -> float:
    """Log-likelihood ratio from dense covariance matrices.

    Cholesky-factorizes the signal-plus-noise covariance; the measurement
    noise keeps it positive definite even with co-located sensors.  Intended
    for moderate sensor counts.
    """
    y = np.asarray(observations, dtype=float)
    n = layout.total_sensors()
    if y.shape != (n,):
        raise ValueError(f"observations must have shape ({n},), got {y.shape}")
    if n > DIRECT_MAX_SENSORS:
        raise ValueError(f"direct route supports n <= {DIRECT_MAX_SENSORS}, got {n}")
    sig2 = params.noise_variance
    cov1 = signal_covariance(params, layout) + sig2 * np.eye(n)
    try:
        factor = scipy.linalg.cho_factor(cov1, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise NumericFailure(f"covariance factorization failed: {err}") from err
    logdet1 = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    quad1 = float(y @ scipy.linalg.cho_solve(factor, y))
    logdet0 = n * math.log(sig2)
    quad0 = float(y @ y) / sig2
    return -0.5 * (logdet1 - logdet0) - 0.5 * (quad1 - quad0)


def steady_state_loop(pattern, snr: float):
    """(exponent per period, prediction variances, noise-only prediction
    variances, residual) of one step-correlation pattern at SNR ``snr``, the
    variances in units of the noise variance, in plain Python floats: the
    one-pattern loop the batched engine vectorises, step for step in the same
    operations and order, with numpy's log1p.  Each step's exponent term is
    1/2 log1p(p) + 1/2 (v - p) / (1 + p), or below u = p / (1 + p) = 1/8
    1/2 f(u) + 1/2 v / (1 + p) with f(u) = log1p(p) - u summed as its series.
    Perfect correlation gives zeros."""
    if all(a == 1.0 for a in pattern):
        return 0.0, [0.0] * len(pattern), [0.0] * len(pattern), 0.0
    steps = []
    for a in pattern:
        q = snr * (1.0 - a) * (1.0 + a)
        steps.append((a, a * a + q, q))
    al, be, ga, de = 1.0, 0.0, 0.0, 1.0
    for _, t11, q in steps:
        al, be, ga, de = (t11 * al + q * ga, t11 * be + q * de, al + ga, be + de)
        scale = 1.0 / (al + be + ga + de)
        al, be, ga, de = al * scale, be * scale, ga * scale, de * scale
    b = de - al
    root = math.sqrt(b * b + 4.0 * ga * be)
    p = 2.0 * be / (b + root) if b > 0 else (root - b) / (2.0 * ga)
    ps, maps = [], []
    c_tot, d_tot = 1.0, 0.0
    for a, _, q in steps:
        k = p / (p + 1.0)
        c, d = a * a * ((1.0 - k) * (1.0 - k)), a * a * k * k
        ps.append(p)
        maps.append((c, d))
        c_tot, d_tot = c * c_tot, c * d_tot + d
        p = q + a * a * p / (p + 1.0)
    residual = abs(p - ps[0])
    v, vs, k_block = d_tot / (1.0 - c_tot), [], 0.0
    for p, (c, d) in zip(ps, maps):
        vs.append(v)
        u = p / (p + 1.0)
        if u < 0.125:  # f(u) = log1p(p) - u = sum_{k>=2} u^k / k, by Horner
            f = 1.0 / 25
            for j in range(24, 1, -1):
                f = f * u + 1.0 / j
            k_block += 0.5 * (f * u * u) + 0.5 * v / (1.0 + p)
        else:
            k_block += 0.5 * float(np.log1p(p)) + 0.5 * (v - p) / (1.0 + p)
        v = c * v + d
    return max(k_block, 0.0), ps, vs, residual


# The optimum search: a 1e-3 correlation grid with a geometric tail toward 1,
# and the width to which refinement narrows a sign-changing grid bracket with
# the interior points each refinement pass evaluates in one engine call.
ROOT_GRID = np.concatenate([np.arange(1e-3, 0.9985, 1e-3),
                            1.0 - np.geomspace(1.5e-3, 1e-8, 24)])
ROOT_XTOL = 1e-14
REFINE_POINTS = 64


def optimality(a: np.ndarray, snr: float) -> np.ndarray:
    """(1 + a^2 + G (1 - a^2))^2 - 2 (r_e + a^4 / r_e) at every correlation of
    ``a``, r_e / sigma^2 = 1 + p from one engine solve: zero where the
    exponent of uniform spacing is stationary in a."""
    r_e = 1.0 + kalman_exponent._steady_state(a[:, None], snr).p[:, 0]
    s, a2 = 1.0 + a * a + snr * (1.0 - a * a), a * a
    return s * s - 2.0 * (r_e + a2 * a2 / r_e)


def refine(f, lo: float, hi: float, f_lo: float) -> float:
    """Root of ``f`` in [lo, hi], where ``f(lo) = f_lo`` and f changes sign;
    ``f`` maps an array of points to their values.  Each pass evaluates
    REFINE_POINTS equispaced interior points and keeps the first sign change,
    returning the first exact zero if it comes first, until the bracket is no
    wider than ROOT_XTOL; then returns its midpoint."""
    while hi - lo > ROOT_XTOL:
        x = np.linspace(lo, hi, REFINE_POINTS + 2)[1:-1]
        fx = f(x)
        flips = np.flatnonzero((fx == 0.0) | ((fx < 0.0) != (f_lo < 0.0)))
        i = flips[0] if flips.size else REFINE_POINTS  # else the flip is at hi
        if i < REFINE_POINTS and fx[i] == 0.0:
            return float(x[i])
        if i > 0:
            lo, f_lo = float(x[i - 1]), float(fx[i - 1])
        if i < REFINE_POINTS:
            hi = float(x[i])
    return 0.5 * (lo + hi)


def optimal_correlation_search(snr: float) -> float:
    """Optimal correlation of uniform spacing at SNR ``snr`` in (0, 1), by
    search: the interior root of the optimality equation on ROOT_GRID, refined,
    that lies nearest the grid argmax of the exponent and within two grid
    steps of it.  Fails below a* = 1e-3 (SNR above about 1 - 5e-7), where the
    grid has no bracket."""
    k = kalman_exponent._steady_state(ROOT_GRID[:, None], snr).exponent_per_block
    g = optimality(ROOT_GRID, snr)
    argmax_a = float(ROOT_GRID[int(np.argmax(k))])
    roots = []
    zero, flip = g[:-1] == 0.0, g[:-1] * g[1:] < 0.0
    for i in np.flatnonzero(zero | flip).tolist():
        if zero[i]:
            roots.append(float(ROOT_GRID[i]))
        else:
            roots.append(refine(lambda a: optimality(a, snr), float(ROOT_GRID[i]),
                                float(ROOT_GRID[i + 1]), float(g[i])))
    matched = [r for r in roots if abs(r - argmax_a) <= 2e-3]
    if not matched:
        raise AssertionError(f"no root {roots} near the grid argmax {argmax_a} "
                             f"at SNR {snr}")
    return min(matched, key=lambda r: abs(r - argmax_a))
