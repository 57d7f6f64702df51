"""Stationary diffusion field, sensor layouts, and exact Gaussian sampling.

The signal is the stationary solution of a first-order stochastic diffusion
along a line: its spatial autocorrelation over a distance ``d`` is
``stationary_variance * exp(-diffusion_rate * d)``.  Sampled at ordered sensor
positions the field is a Gauss-Markov chain,

    s[i+1] = a[i] * s[i] + u[i],      a[i] = exp(-diffusion_rate * gap[i]),

with ``u[i] ~ N(0, stationary_variance * (1 - a[i]^2))`` so that every sample
keeps the stationary variance.  Each activated sensor observes the field value
at its position plus white Gaussian measurement noise; under the noise-only
hypothesis the observation is the measurement noise alone.

Every sensor layout is one type, :class:`Periodic`: a pattern of gaps between
consecutive sensors, repeated a number of times.  The JSON layout kinds are
constructors of that type: ``uniform`` spacing s is the pattern ``(s,)``
(:func:`Uniform`), ``clustered`` groups of m co-located sensors every T are
``(0, ..., 0, T)`` (:func:`Clustered`), and ``periodic`` gives the pattern
directly.  :func:`layout_to_dict` echoes the simplest kind that fits.
:func:`experiment_schema` is the JSON schema of configuration documents;
the command line checks files and flags against it with its own validator.

Random number streams are derived from one master seed with
``numpy.random.SeedSequence(entropy=seed, spawn_key=path)`` (see
:func:`derive_rng`), so independent trial blocks are reproducible regardless
of execution order.
"""

from __future__ import annotations

import functools
import json
import math
import threading
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .errors import NumericFailure

__all__ = [
    "Hypothesis",
    "FieldParams",
    "Uniform",
    "Clustered",
    "Periodic",
    "step_correlations",
    "derive_rng",
    "layout_to_dict",
    "layout_from_dict",
    "experiment_schema",
]


class Hypothesis(Enum):
    H0 = "H0"  # measurement noise only
    H1 = "H1"  # field plus measurement noise


@dataclass(frozen=True)
class FieldParams:
    """Physical model parameters.

    diffusion_rate : float, >= 0
        Spatial decay rate of the field correlation (1/length).  Zero means a
        perfectly correlated field; exponent code treats that regime specially.
    stationary_variance : float, > 0
        Stationary signal power at every point of the field.
    noise_variance : float, > 0
        Per-sensor measurement noise power.

    All three must be finite.
    """

    diffusion_rate: float
    stationary_variance: float
    noise_variance: float

    def __post_init__(self):
        for name in ("diffusion_rate", "stationary_variance", "noise_variance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.diffusion_rate >= 0):
            raise ValueError(f"diffusion_rate must be >= 0, got {self.diffusion_rate}")
        if not (self.stationary_variance > 0):
            raise ValueError(f"stationary_variance must be > 0, got {self.stationary_variance}")
        if not (self.noise_variance > 0):
            raise ValueError(f"noise_variance must be > 0, got {self.noise_variance}")

    def snr(self) -> float:
        return self.stationary_variance / self.noise_variance


@dataclass(frozen=True)
class Periodic:
    """A sensor layout: a pattern of gaps repeated ``period_count`` times.

    ``offsets[i]`` is the gap from sensor i to sensor i+1 inside a period; the
    last offset is the wrap-around gap to the first sensor of the next period,
    so the spatial period equals ``sum(offsets)``.  Zero gaps put sensors at
    the same position.
    """

    offsets: tuple[float, ...]
    period_count: int

    def __post_init__(self):
        object.__setattr__(self, "offsets", tuple(float(d) for d in self.offsets))
        if len(self.offsets) < 1:
            raise ValueError("offsets must contain at least one gap")
        if not all(math.isfinite(d) for d in self.offsets):
            raise ValueError(f"offsets must be finite, got {self.offsets}")
        if any(d < 0 for d in self.offsets):
            raise ValueError(f"offsets must be >= 0, got {self.offsets}")
        if not (self.period > 0):
            raise ValueError("at least one offset must be positive")
        if not math.isfinite(self.period):
            raise ValueError(f"the period sum(offsets) must be finite, got {self.offsets}")
        if self.period_count < 1:
            raise ValueError(f"period_count must be >= 1, got {self.period_count}")

    @property
    def period(self) -> float:
        return float(sum(self.offsets))

    def positions(self) -> np.ndarray:
        within = np.concatenate([[0.0], np.cumsum(self.offsets[:-1])])
        starts = self.period * np.arange(self.period_count, dtype=float)
        return (starts[:, None] + within[None, :]).ravel()

    def total_sensors(self) -> int:
        return len(self.offsets) * self.period_count


def Uniform(spacing: float, count: int) -> Periodic:
    """Equally spaced sensors: positions 0, spacing, ..., (count-1)*spacing."""
    if not (spacing > 0):
        raise ValueError(f"spacing must be > 0, got {spacing}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return Periodic((spacing,), count)


def Clustered(cluster_size: int, cluster_count: int, period: float) -> Periodic:
    """cluster_count groups of cluster_size co-located sensors, one group
    every ``period`` along the line."""
    if cluster_size < 1:
        raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
    if cluster_count < 1:
        raise ValueError(f"cluster_count must be >= 1, got {cluster_count}")
    if not (period > 0):
        raise ValueError(f"period must be > 0, got {period}")
    return Periodic((0.0,) * (cluster_size - 1) + (period,), cluster_count)


def step_correlations(params: FieldParams, layout: Periodic) -> np.ndarray:
    """Correlation between consecutive sensors, one value per gap (n-1 total)."""
    gaps = np.diff(layout.positions())
    return np.exp(-params.diffusion_rate * gaps)


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for the stream identified by ``path`` under a master seed.

    The scheme is ``SeedSequence(entropy=seed, spawn_key=path)``: streams with
    distinct paths are independent and do not depend on creation order, which
    is what makes parallel and serial Monte Carlo runs aggregate identically.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.default_rng(ss)


# Sensors the Monte Carlo kernel draws and scores at a time, with one numpy
# call per step for the whole block where it can, so a trial block holds
# O(SENSOR_BLOCK * trials) floats whatever n is.
SENSOR_BLOCK = 8

# The kernel's scratch rows, one set per thread, kept between calls (each call
# writes a row before reading it).  Freed after every trial block, their pages
# went back to the system and faulted in again: 10x the page faults and 0.2 s
# of system time in a 1-thread ``validate`` of configs/iid.json.
_scratch = threading.local()


def _scratch_rows(trials: int) -> np.ndarray:
    """This thread's scratch rows, shape (2 * SENSOR_BLOCK + 3, trials)."""
    rows = getattr(_scratch, "rows", None)
    if rows is None or rows.shape[1] < trials:
        rows = _scratch.rows = np.empty((2 * SENSOR_BLOCK + 3, trials))
    return rows[:, :trials]


@dataclass(frozen=True)
class _FilterSchedule:
    """Precomputed per-sensor filter quantities; they are data-independent.

    :func:`_filter_schedule` memoises them (at most 64), since the kernel's
    signature has no room for them.
    """

    step_corr: np.ndarray        # a_i between consecutive sensors, length n-1
    innovation_var: np.ndarray   # R_i = noise + P_i, length n
    filter_gain: np.ndarray      # P_i / R_i, length n
    log_norm: float              # -0.5 * sum log(R_i / noise)
    state_sd: np.ndarray         # sd of the initial state, then of each step


@functools.lru_cache(maxsize=64)
def _filter_schedule(params: FieldParams, layout: Periodic) -> _FilterSchedule:
    n = layout.total_sensors()
    sig2 = params.noise_variance
    pi0 = params.stationary_variance
    a = step_correlations(params, layout)
    pred_var = np.empty(n)
    pred_var[0] = pi0
    with np.errstate(all="ignore"):  # an out-of-range P * P is reported below
        for i in range(n - 1):
            filt = pred_var[i] - pred_var[i] ** 2 / (sig2 + pred_var[i])
            pred_var[i + 1] = a[i] ** 2 * filt + pi0 * (1.0 - a[i] ** 2)
        squares = pred_var[:-1] * pred_var[:-1]
    if not np.all(np.isfinite(squares) & (squares >= np.finfo(float).tiny)):
        raise NumericFailure("Monte Carlo filter: a prediction variance squared is not "
                             f"a finite normal float at noise variance {sig2!r}")
    innovation_var = sig2 + pred_var
    step_sd = np.sqrt(pi0 * np.maximum(0.0, 1.0 - a * a))
    sched = _FilterSchedule(
        step_corr=a,
        innovation_var=innovation_var,
        filter_gain=pred_var / innovation_var,
        log_norm=-0.5 * float(np.sum(np.log(innovation_var / sig2))),
        state_sd=np.concatenate(([np.sqrt(pi0)], step_sd)),
    )
    for arr in (sched.step_corr, sched.innovation_var, sched.filter_gain, sched.state_sd):
        arr.flags.writeable = False  # the cache hands the same arrays to every call
    return sched


def _sample_columns(
    params: FieldParams,
    layout: Periodic,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """Log-likelihood ratios, shape (trials,), of ``trials`` observation
    vectors drawn under ``hypothesis``: the Monte Carlo detector's kernel.
    Its name and five positional arguments are what ``bench/layers.py`` binds
    as the ``field_model.sample`` span, which therefore covers the LLR pass.

    Each block [lo, hi) of :data:`SENSOR_BLOCK` sensors makes one
    ``rng.standard_normal`` draw, which holds the same normals as its rows
    drawn one by one: under H0 ``hi - lo`` rows of noise, under H1
    ``2 * (hi - lo)`` rows alternating the state innovation (for sensor 0 the
    initial state) and the measurement noise.  Changing this order would
    silently change every seeded result.  Under H1 the state recursion runs
    in place on the innovation rows, which adding to the noise rows turns into
    observations; ``a * state`` of a block's last sensor goes to the next in
    a scratch row, so only one block's draw is alive at a time.  The block's
    rows then go into the LLR at once, and no (n, trials) matrix exists.

    The LLR per sensor: e = y - predicted, acc += h*y*y - hr_i*e*e and
    predicted = a_i * (predicted + g_i*e).  Only the recursions run sensor by
    sensor; each step of the terms h*y*y - hr_i*e*e is one call per block,
    and the terms go into acc row by row, in sensor order (``np.add.reduce``
    sums the rows pairwise once the trial axis has length 1).  Every in-place
    step is the same IEEE operation as in the sensor-by-sensor form
    ``state = a * state + sd * z``, ``y = state + sigma * z`` and the LLR
    above (reordered sums and products commute), so every LLR equals that
    form's bit for bit.
    """
    sched = _filter_schedule(params, layout)
    n = layout.total_sensors()
    sigma = np.sqrt(params.noise_variance)
    half_inv_noise = 0.5 / params.noise_variance
    half_inv_re = 0.5 / sched.innovation_var
    a = sched.step_corr
    work = _scratch_rows(trials)
    e_rows, u_rows = work[:SENSOR_BLOCK], work[SENSOR_BLOCK:2 * SENSOR_BLOCK]
    predicted, tmp, carry = work[2 * SENSOR_BLOCK:]
    predicted.fill(0.0)
    acc = np.zeros(trials)
    for lo in range(0, n, SENSOR_BLOCK):
        hi = min(lo + SENSOR_BLOCK, n)
        e, u = e_rows[:hi - lo], u_rows[:hi - lo]
        if hypothesis is Hypothesis.H1:
            z = rng.standard_normal((2 * (hi - lo), trials))
            proc, y = z[0::2], z[1::2]
            y *= sigma
            proc *= sched.state_sd[lo:hi, None]
            for k in range(hi - lo):
                if k:
                    np.multiply(proc[k - 1], a[lo + k - 1], out=tmp)
                    proc[k] += tmp
                elif lo:
                    proc[0] += carry  # a * the previous block's last state
            if hi < n:
                np.multiply(proc[-1], a[hi - 1], out=carry)
            np.add(proc, y, out=y)
        else:
            z = y = rng.standard_normal((hi - lo, trials))
            y *= sigma
        for k in range(hi - lo):
            np.subtract(y[k], predicted, out=e[k])
            if lo + k < n - 1:
                np.multiply(e[k], sched.filter_gain[lo + k], out=tmp)
                predicted += tmp
                predicted *= a[lo + k]
        np.multiply(half_inv_re[lo:hi, None], e, out=u)
        u *= e
        t = np.multiply(half_inv_noise, y, out=e)
        t *= y
        t -= u
        for row in t:
            acc += row
        z = proc = y = None  # free this block's draw before the next is made
    acc += sched.log_norm
    return acc


# --- JSON representation -----------------------------------------------

_SCHEMA = None


def experiment_schema() -> dict:
    """The shipped JSON schema of experiment configuration documents."""
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("fieldexp.schemas").joinpath("experiment.schema.json").read_text()
        _SCHEMA = json.loads(text)
    return _SCHEMA


def layout_to_dict(layout: Periodic) -> dict:
    """The simplest JSON kind describing ``layout``: one gap is ``uniform``,
    zero gaps closed by one positive gap are ``clustered``, anything else is
    ``periodic``."""
    *inner, last = layout.offsets
    if not inner:
        return {"kind": "uniform", "spacing": last, "count": layout.period_count}
    if not any(inner):
        return {
            "kind": "clustered",
            "cluster_size": len(layout.offsets),
            "cluster_count": layout.period_count,
            "period": last,
        }
    return {
        "kind": "periodic",
        "offsets": list(layout.offsets),
        "period_count": layout.period_count,
    }


def layout_from_dict(doc: dict) -> Periodic:
    kind = doc.get("kind")
    if kind == "uniform":
        return Uniform(spacing=float(doc["spacing"]), count=int(doc["count"]))
    if kind == "clustered":
        return Clustered(
            cluster_size=int(doc["cluster_size"]),
            cluster_count=int(doc["cluster_count"]),
            period=float(doc["period"]),
        )
    if kind == "periodic":
        return Periodic(
            offsets=tuple(float(d) for d in doc["offsets"]),
            period_count=int(doc["period_count"]),
        )
    raise ValueError(f"unknown layout kind: {kind!r}")
