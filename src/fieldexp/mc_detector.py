"""Monte Carlo oracle for the closed-form exponents.

Computes the exact Neyman-Pearson log-likelihood ratio through the
signal-hypothesis Kalman filter's innovations and uses it to estimate miss
probabilities at a fixed empirical size over a grid of sensor counts.  The decay rate fitted to those
estimates is the quantity the closed forms predict.

The estimator takes a layout's gap pattern (a
:class:`~fieldexp.field_model.Periodic`; the uniform and clustered kinds are
constructors of it) and builds the layout at each sensor count n by
repeating the pattern, so n must be a multiple of its sensors per period.
The filter's step correlations are those of the repeated gaps, the same
values the closed forms use.

Trials are partitioned into fixed blocks of :data:`TRIAL_BLOCK` and every
block draws from the stream ``(hypothesis, n, block_index)`` under the master
seed, so results do not depend on execution order or worker count; block size
is part of the stream layout and deliberately not configurable.

One :func:`estimate_miss_probability` call streams every ``(n, hypothesis,
block)`` of its grid in one order: sensor counts largest first, and within a
count its H0 blocks, then its H1 blocks.  The H0 blocks of a count fill one
array of ``trials`` floats, whose quantile is the count's threshold; each H1
block is then counted against that threshold as it arrives, and no H1 array
exists.  So an estimate holds one count's H0 array, whatever the grid length,
besides the blocks in flight.  The blocks run on ``workers`` plain threads
(the command line starts one per CPU the process may use), which take them in
order and keep at most ``2 * workers`` finished or running blocks ahead of
the estimator; the estimator reads them in order, so the result does not
depend on the worker count.  A failing block stops the threads from taking
more, and its error reaches the caller.  Every thread is joined before the
call returns or raises.  ``workers=None`` or 1 runs the same blocks, in the
same order, on the calling thread.

Each block runs the kernel :func:`~fieldexp.field_model._sample_columns`,
which draws the block and scores it in the same pass, in
O(``SENSOR_BLOCK * size``) floats whatever n is.  numpy releases the GIL
inside a call on a long array, but holds it for about half of a short call's
cost, so workers making short calls sensor by sensor queue on it.  The kernel
therefore makes one call per block of :data:`~fieldexp.field_model.SENSOR_BLOCK`
sensors wherever it can, and only its recursions run sensor by sensor: about
8 calls per sensor and 4096-trial block under H1 and 6 under H0.  On 2 CPUs,
``validate`` on the shipped configs runs 1.6-1.75x faster on 2 workers than
on 1.

:func:`validate_exponent` runs exactly the grid, trials, seed, check sizes
and tolerance it is given; the command line owns every default.  The
functions return results only; the command line writes them as JSON or CSV.
"""

from __future__ import annotations

import itertools
import math
import threading
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
    "ValidationReport",
    "auto_n_values",
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


def _in_order(run, keys, workers: int | None):
    """Yield ``run(key)`` for each of ``keys``, in key order.

    ``workers=None`` or 1 maps ``keys`` on the calling thread.  Otherwise
    ``workers`` threads take the keys in order, each only while fewer than
    ``2 * workers`` results are ahead of the caller.  A key whose run raises
    stops the threads from taking more, and its error is raised on the caller
    in its turn.  Every thread is joined before the generator returns or
    raises, also when the caller closes it early.
    """
    if not workers or workers <= 1:
        yield from map(run, keys)
        return
    window = 2 * workers
    done, ready = {}, threading.Condition()
    taken = consumed = 0
    stop = False

    def work():
        nonlocal taken, stop
        while True:
            with ready:
                while taken - consumed >= window and not stop:
                    ready.wait()
                if stop or taken == len(keys):
                    return
                i = taken
                taken += 1
            try:
                result = run(keys[i]), None
            except BaseException as err:  # noqa: BLE001 - raised on the caller
                result = None, err
            with ready:
                done[i] = result
                stop = stop or result[1] is not None
                ready.notify_all()

    threads = [threading.Thread(target=work, daemon=True)
               for _ in range(min(workers, len(keys)))]
    try:
        for thread in threads:
            thread.start()
        for i in range(len(keys)):
            with ready:
                while i not in done:
                    ready.wait()
                value, err = done.pop(i)
                consumed = i + 1
                ready.notify_all()
            if err is not None:
                raise err
            yield value
    finally:
        with ready:
            stop = True
            ready.notify_all()
        for thread in threads:
            if thread.ident is not None:
                thread.join()


def _llr_blocks(params, jobs, seed: int, trials: int, workers: int | None):
    """The LLR blocks of ``trials`` draws for each ``(layout, hypothesis)`` of
    ``jobs``, in job order and within a job in block order, run by
    :func:`_in_order` on ``workers`` threads.

    Block ``b`` of a job draws from the stream ``(hypothesis, n, b)``, so any
    worker count yields identical blocks.  Every filter schedule is built
    before the first draw, so one out of the float range refuses the run
    before any sampling.
    """
    for layout, _ in jobs:
        _filter_schedule(params, layout)

    def run(key):
        """LLRs of one trial block, drawn from the block's own stream."""
        layout, hypothesis, start = key
        rng = derive_rng(seed, 0 if hypothesis is Hypothesis.H0 else 1,
                         layout.total_sensors(), start // TRIAL_BLOCK)
        return _sample_columns(params, layout, hypothesis, rng, min(TRIAL_BLOCK, trials - start))

    keys = [(layout, hyp, start) for layout, hyp in jobs for start in range(0, trials, TRIAL_BLOCK)]
    return _in_order(run, keys, workers)


def _threshold(h0: np.ndarray, alpha: float) -> float:
    """The size-``alpha`` threshold of the H0 LLRs ``h0``: their ``higher``
    (1 - alpha) quantile.  Partially sorts ``h0`` in place."""
    return float(np.quantile(h0, 1.0 - alpha, method="higher", overwrite_input=True))


def _miss_fraction(misses: int, trials: int) -> tuple[float, float]:
    """The miss fraction and its 95% binomial half-width (one-sided rule of
    three for no miss)."""
    p_hat = misses / trials
    half = _Z95 * math.sqrt(p_hat * (1.0 - p_hat) / trials) if misses else 3.0 / trials
    return p_hat, half


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
    miss_counts: list[int]
    fitted_rate_stderr: float
    fitted_intercept: float
    fit_n_used: list[int]
    seed: int


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
    the fraction of signal-hypothesis LLRs below it, counted block by block.
    All trial blocks of the grid run on ``workers`` threads (serial for None
    or 1), so the estimate holds one n's ``trials`` noise-only LLRs whatever
    the grid length.  The result is deterministic in ``seed`` for any worker
    count.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if trials < 10_000:
        raise ValueError(f"at least 10000 trials required, got {trials}")
    n_values = list(n_values)
    # isfinite first: round() raises on inf and NaN
    if not n_values or not all(math.isfinite(n) and n == round(n) >= 1 for n in n_values):
        raise ValueError(f"n_values must be positive integers, got {n_values}")
    n_values = sorted({int(n) for n in n_values})
    per_period = len(pattern.offsets)
    if any(n % per_period for n in n_values):
        raise ValueError(f"n_values {n_values} must be multiples of "
                         f"{per_period} sensors/period")

    # Largest n first: its H0 blocks fill one array, whose quantile is the
    # threshold; its H1 blocks are counted against it as they arrive.
    jobs = [(Periodic(pattern.offsets, n // per_period), hypothesis)
            for n in reversed(n_values) for hypothesis in (Hypothesis.H0, Hypothesis.H1)]
    starts = range(0, trials, TRIAL_BLOCK)
    blocks = _llr_blocks(params, jobs, seed, trials, workers)
    thresholds, counts = [], []
    try:
        for _ in n_values:
            h0 = np.empty(trials)
            for start in starts:
                h0[start:start + TRIAL_BLOCK] = next(blocks)
            threshold = _threshold(h0, alpha)
            del h0
            thresholds.append(threshold)
            counts.append(sum(int(np.count_nonzero(next(blocks) < threshold)) for _ in starts))
    finally:
        blocks.close()  # joins its threads
    thresholds.reverse()
    counts.reverse()
    probs = [_miss_fraction(misses, trials) for misses in counts]

    fit_n_used, slope, intercept, stderr = [], math.nan, math.nan, math.nan
    eligible = [i for i, c in enumerate(counts) if c >= _MIN_FIT_MISSES]
    if len(eligible) >= 3:
        take = eligible[-max(3, len(eligible) // 2):]
        fit_n_used = [n_values[i] for i in take]
        ys = np.array([-math.log(probs[i][0]) for i in take])
        slope, intercept, stderr = _ols(fit_n_used, ys)
    return DetectionEstimate(
        alpha=alpha, n_values=n_values, threshold_per_n=thresholds, miss_prob=probs,
        fitted_rate=slope, trials=trials, miss_counts=counts, fitted_rate_stderr=stderr,
        fitted_intercept=intercept, fit_n_used=fit_n_used, seed=seed,
    )


# --- validation harness --------------------------------------------------

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


def auto_n_values(k_per_sensor: float, block: int, trials: int) -> list[int]:
    """Default sensor counts for the per-sensor closed form ``k_per_sensor``,
    in multiples of ``block``: log-spaced to 4096 in the polynomial regime,
    else eight equal steps to the last n expected to leave about 50 misses
    out of ``trials``, capped at 300.  Open limit (ROADMAP item 3): at 10000
    trials the ``configs/iid.json`` grid stops at n = 56, where the fit reads
    the finite-n slope 0.0742 against the exponent 0.0966, so ``validate``
    exits 1."""
    if polynomial_regime(k_per_sensor):
        ns = [16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
        return sorted({max(block, block * round(n / block)) for n in ns})
    reach = int(math.log(trials / _MIN_FIT_MISSES) / k_per_sensor)
    n_max = max(4 * block, min(300, reach))
    step = block * max(1, math.ceil(n_max / (8 * block)))
    return [step * j for j in range(1, 9)]


def validate_exponent(params: FieldParams, pattern: Periodic, alpha: float, k_closed: float,
                      n_values, trials: int, seed: int, check_alphas, rel_tol: float,
                      workers: int | None = None) -> ValidationReport:
    """Compare the closed-form per-sensor exponent ``k_closed`` against the
    Monte Carlo decay rate over exactly the sensor counts ``n_values``.

    A closed form that is (numerically) zero routes to the polynomial check:
    the miss probability then decays like a power of n and the log-log slope
    is compared to -1/2.  Otherwise the fitted exponential rate must be within
    ``rel_tol`` of the closed form, and the rates fitted at ``check_alphas``,
    the j-th at seed ``seed + 1 + j``, must have overlapping confidence
    intervals (the exponent does not depend on the test size).
    """
    polynomial = polynomial_regime(k_closed)
    report = ValidationReport(
        regime="polynomial" if polynomial else "exponential",
        closed_form_per_sensor=k_closed,
        tolerance=POLY_TOL if polynomial else rel_tol,
        passed=False,
    )
    main = estimate_miss_probability(params, pattern, alpha, n_values, trials, seed, workers)
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
    report.rate_ok = report.rel_deviation <= rel_tol

    rates = {}
    if check_alphas:
        rates[alpha] = (main.fitted_rate, main.fitted_rate_stderr)
        for j, a_chk in enumerate(check_alphas):
            if a_chk == alpha:
                continue
            est = estimate_miss_probability(params, pattern, a_chk, n_values, trials,
                                            seed + 1 + j, workers)
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
