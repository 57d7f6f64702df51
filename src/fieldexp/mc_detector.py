"""Monte Carlo oracle for the closed-form exponents.

Computes the exact Neyman-Pearson log-likelihood ratio through the
signal-hypothesis Kalman filter's innovations and uses it to estimate miss
probabilities at a fixed empirical size over a grid of sensor counts.  The decay rate fitted to those
estimates is the quantity the closed forms predict.

The estimator takes a layout's gap pattern (a
:class:`~fieldexp.field_model.Periodic`; the uniform and clustered kinds are
constructors of it) and builds the layout at each sensor count n by
repeating the pattern, so n must be a multiple of its sensors per period.

Trials are partitioned into fixed blocks of :data:`TRIAL_BLOCK` and every
block draws from the stream ``(hypothesis, n, block_index)`` under the master
seed, so results do not depend on execution order or worker count; block size
is part of the stream layout and deliberately not configurable.

One :func:`estimate_miss_probability` call runs every ``(n, hypothesis,
block)`` of its grid through a single thread pool; each runs the kernel
:func:`~fieldexp.field_model._sample_columns`, which draws the block and
scores it in the same pass.  numpy releases the GIL inside a call on a long
array, but holds it for about half of a short call's cost, so threads making
short calls sensor by sensor queue on it.  The kernel therefore makes one
call per block of :data:`~fieldexp.field_model.SENSOR_BLOCK` sensors
wherever it can, and only its recursions run sensor by sensor: about 8 calls
per sensor and 4096-trial block under H1 and 6 under H0.  On 2 CPUs,
``validate`` on the shipped configs runs 1.65-1.76x faster on 2 threads than
on 1.

Blocks are dispatched largest first by their cost ``n * size``, which
balances the big blocks of the longest chain across workers, and each block
writes its LLRs into its own slice of its job's array.  A block in flight
holds O(``SENSOR_BLOCK * size``) floats whatever n is, a few MB at most.
``workers=None`` or 1 runs the same blocks, in the same order, on the calling
thread.

The functions return results only; the command line writes them as JSON or
CSV.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .field_model import (
    FieldParams,
    Hypothesis,
    Periodic,
    Uniform,
    _filter_schedule,
    _sample_columns,
    derive_rng,
)

__all__ = [
    "DetectionEstimate",
    "ValidationBudget",
    "ValidationReport",
    "estimate_miss_probability",
    "validate_exponent",
    "polynomial_regime",
    "uniform_family",
]

TRIAL_BLOCK = 4096

# A miss-probability estimate enters the rate fit only when it rests on at
# least this many observed misses.
_MIN_FIT_MISSES = 50

_Z95 = 1.959963984540054

# Below this closed-form exponent the miss probability decays like a power
# of n; its log-log slope must lie within POLY_TOL of -1/2.
_POLYNOMIAL_K = 1e-9
POLY_TOL = 0.15


def _run_largest_first(run, blocks, workers: int | None) -> None:
    """``run(key)`` for each ``(key, cost)`` of ``blocks``, on ``workers``
    threads (serial for None or 1), started in decreasing cost (ties keep
    list order); returns when all have finished."""
    order = [key for key, _ in sorted(blocks, key=lambda kb: -kb[1])]
    if not workers or workers <= 1:
        for key in order:
            run(key)
        return
    # Imported here, so that commands without a thread pool do not load it
    # (it pulls in logging and queue).
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, order))  # raises the first block's error, if any


def _llr_arrays(params, jobs, seed: int, trials: int,
                workers: int | None) -> list[np.ndarray]:
    """LLRs of ``trials`` draws for each ``(layout, hypothesis)`` in ``jobs``.

    All blocks of all jobs share one pool; each block writes its LLRs into
    its own slice of its job's array, so any worker count produces identical
    arrays.  Every filter schedule is built before the first draw, so a
    schedule out of the float range refuses the run before any sampling.
    """
    for layout, _ in jobs:
        _filter_schedule(params, layout)
    sizes = [TRIAL_BLOCK] * (trials // TRIAL_BLOCK)
    if trials % TRIAL_BLOCK:
        sizes.append(trials % TRIAL_BLOCK)
    llrs = [np.empty(trials) for _ in jobs]

    def run(key):
        """LLRs of one trial block, drawn from the block's own stream."""
        j, index = key
        layout, hypothesis = jobs[j]
        rng = derive_rng(seed, 0 if hypothesis is Hypothesis.H0 else 1,
                         layout.total_sensors(), index)
        start = index * TRIAL_BLOCK
        llrs[j][start:start + sizes[index]] = _sample_columns(
            params, layout, hypothesis, rng, sizes[index])

    _run_largest_first(run, [((j, index), layout.total_sensors() * size)
                             for j, (layout, _) in enumerate(jobs)
                             for index, size in enumerate(sizes)], workers)
    return llrs


@dataclass
class DetectionEstimate:
    """Miss-probability estimates and the fitted decay rate.

    miss_prob pairs each estimate with its 95% binomial half-width (rule of
    three for zero observed misses).  fitted_rate is the least-squares slope
    of -log(miss) against n over the largest sensor counts whose estimates
    rest on at least 50 misses; NaN when fewer than three such points exist.
    """

    alpha: float
    n_values: list[int]
    threshold_per_n: list[float]
    miss_prob: list[tuple[float, float]]
    fitted_rate: float
    trials: int
    miss_counts: list[int] = field(default_factory=list)
    fitted_rate_stderr: float = math.nan
    fitted_intercept: float = math.nan
    fit_n_used: list[int] = field(default_factory=list)
    seed: int = 0


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Slope, intercept, and slope standard error of y on x."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    xc = x - x.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    stderr = math.sqrt(float(resid @ resid) / dof / sxx) if dof > 0 else math.nan
    return slope, intercept, stderr


def estimate_miss_probability(params: FieldParams, pattern: Periodic, alpha: float,
                              n_values, trials: int, seed: int,
                              workers: int | None = None) -> DetectionEstimate:
    """Empirical miss probability of the size-``alpha`` NP test versus n.

    The layout at sensor count n repeats ``pattern``'s gaps ``n / len(offsets)``
    times; an n that is not a multiple of the sensors per period is rejected.
    Per sensor count: the threshold is the empirical (1 - alpha) quantile of
    ``trials`` noise-only LLRs (the ``higher`` sample, so the realized size
    never exceeds alpha beyond sampling noise), and the miss probability is
    the fraction of signal-hypothesis LLRs below it.  All trial blocks of
    the grid run on one pool of ``workers`` threads (serial for None or 1);
    the result is deterministic in ``seed`` for any worker count.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 10_000:
        raise ValueError(f"at least 10000 trials required, got {trials}")
    n_values = sorted({int(n) for n in n_values})
    if not n_values or n_values[0] < 1:
        raise ValueError(f"n_values must be positive integers, got {n_values}")
    per_period = len(pattern.offsets)
    if any(n % per_period for n in n_values):
        raise ValueError(f"n_values {n_values} must be multiples of "
                         f"{per_period} sensors/period")

    jobs = []
    for n in n_values:
        layout = Periodic(pattern.offsets, n // per_period)
        jobs += [(layout, Hypothesis.H0), (layout, Hypothesis.H1)]
    llrs = _llr_arrays(params, jobs, seed, trials, workers)

    thresholds, probs, counts = [], [], []
    for h0, h1 in zip(llrs[0::2], llrs[1::2]):
        threshold = float(np.quantile(h0, 1.0 - alpha, method="higher"))
        misses = int(np.sum(h1 < threshold))
        p_hat = misses / trials
        if misses > 0:
            half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials)
        else:
            half = 3.0 / trials  # one-sided rule-of-three upper bound
        thresholds.append(threshold)
        probs.append((p_hat, half))
        counts.append(misses)

    est = DetectionEstimate(
        alpha=alpha, n_values=n_values, threshold_per_n=thresholds,
        miss_prob=probs, fitted_rate=math.nan, trials=trials,
        miss_counts=counts, seed=seed,
    )
    eligible = [i for i, c in enumerate(counts) if c >= _MIN_FIT_MISSES]
    if len(eligible) >= 3:
        take = eligible[-max(3, len(eligible) // 2):]
        xs = np.array([n_values[i] for i in take], float)
        ys = np.array([-math.log(probs[i][0]) for i in take])
        slope, intercept, stderr = _ols(xs, ys)
        est.fitted_rate = slope
        est.fitted_intercept = intercept
        est.fitted_rate_stderr = stderr
        est.fit_n_used = [int(x) for x in xs]
    return est


# --- validation harness --------------------------------------------------

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class ValidationBudget:
    """Knobs of a validation run; the command line echoes them with its report."""

    trials: int = 100_000
    n_values: tuple[int, ...] | None = None
    check_alphas: tuple[float, ...] = (0.05, 0.2)
    rel_tol: float = 0.20
    seed: int = DEFAULT_SEED
    workers: int | None = None


@dataclass
class ValidationReport:
    regime: str
    closed_form_per_sensor: float
    tolerance: float
    passed: bool
    fitted_rate: float = math.nan
    fitted_rate_stderr: float = math.nan
    rel_deviation: float = math.nan
    rate_ok: bool | None = None
    alpha_rates: dict = field(default_factory=dict)
    alpha_independent: bool | None = None
    poly_slope: float = math.nan
    poly_slope_stderr: float = math.nan
    poly_ok: bool | None = None
    estimates: dict = field(default_factory=dict)


def polynomial_regime(k_per_sensor: float) -> bool:
    """Whether a closed-form exponent is (numerically) zero, so that the miss
    probability decays like a power of n rather than exponentially."""
    return k_per_sensor < _POLYNOMIAL_K


def _auto_n_values(k_per_sensor: float, block: int, trials: int):
    if polynomial_regime(k_per_sensor):
        ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        return sorted({max(block, block * round(n / block)) for n in ns})
    # Largest n still expected to leave ~50 misses out of `trials`, capped at 300.
    reach = int(math.log(trials / _MIN_FIT_MISSES) / k_per_sensor)
    n_max = max(4 * block, min(300, reach))
    step = block * max(1, math.ceil(n_max / (8 * block)))
    return [step * j for j in range(1, 9)]


def validate_exponent(params: FieldParams, pattern: Periodic, alpha: float, k_closed: float,
                      budget: ValidationBudget | None = None) -> ValidationReport:
    """Compare the closed-form per-sensor exponent ``k_closed`` against the
    Monte Carlo decay rate.

    A closed form that is (numerically) zero routes to the polynomial check:
    the miss probability then decays like a power of n and the log-log slope
    is compared to -1/2.  Otherwise the fitted exponential rate must match the
    closed form within the relative tolerance, and the fitted rates at the
    check sizes must have overlapping confidence intervals (the exponent does
    not depend on the test size).
    """
    budget = budget or ValidationBudget()
    polynomial = polynomial_regime(k_closed)
    n_values = list(budget.n_values) if budget.n_values else \
        _auto_n_values(k_closed, len(pattern.offsets), budget.trials)

    report = ValidationReport(
        regime="polynomial" if polynomial else "exponential",
        closed_form_per_sensor=k_closed,
        tolerance=POLY_TOL if polynomial else budget.rel_tol,
        passed=False,
    )
    main = estimate_miss_probability(
        params, pattern, alpha, n_values, budget.trials, budget.seed,
        budget.workers,
    )
    report.estimates[alpha] = main

    if polynomial:
        pts = [(n, p) for n, (p, _), c in zip(main.n_values, main.miss_prob,
                                              main.miss_counts)
               if c >= _MIN_FIT_MISSES]
        if len(pts) < 3:
            return report
        slope, _, stderr = _ols(np.log([n for n, _ in pts]), np.log([p for _, p in pts]))
        report.poly_slope = slope
        report.poly_slope_stderr = stderr
        report.poly_ok = abs(slope + 0.5) <= POLY_TOL
        report.passed = bool(report.poly_ok)
        return report

    report.fitted_rate = main.fitted_rate
    report.fitted_rate_stderr = main.fitted_rate_stderr
    if math.isnan(main.fitted_rate):
        return report
    report.rel_deviation = abs(main.fitted_rate - k_closed) / k_closed
    report.rate_ok = report.rel_deviation <= budget.rel_tol

    rates = {}
    if budget.check_alphas:
        rates[alpha] = (main.fitted_rate, main.fitted_rate_stderr)
        for j, a_chk in enumerate(budget.check_alphas):
            if a_chk == alpha:
                continue
            est = estimate_miss_probability(
                params, pattern, a_chk, n_values, budget.trials,
                budget.seed + 1 + j, budget.workers,
            )
            report.estimates[a_chk] = est
            rates[a_chk] = (est.fitted_rate, est.fitted_rate_stderr)
    report.alpha_rates = rates

    if len(rates) >= 2:
        report.alpha_independent = all(
            abs(r1 - r2) <= _Z95 * (s1 + s2)
            for (r1, s1), (r2, s2) in itertools.combinations(rates.values(), 2))
    report.passed = bool(report.rate_ok and report.alpha_independent is not False)
    return report


def uniform_family(spacing: float) -> Periodic:
    """The uniform pattern with the given spacing, ``Uniform(spacing, 1)``."""
    return Uniform(spacing, 1)
