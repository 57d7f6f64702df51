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

import json
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

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


# Sensors per block of the Monte Carlo kernels: the H1 sampler here and the
# LLR pass in mc_detector make one numpy call per block of this many sensors
# where they can, and only their recursions run sensor by sensor.
SENSOR_BLOCK = 8


def _sample_columns(
    params: FieldParams,
    layout: Periodic,
    hypothesis: Hypothesis,
    rng: np.random.Generator,
    trials: int,
) -> np.ndarray:
    """Observations with shape (n_sensors, trials); column t is one trial.

    Draw order is fixed: under H1 the initial state draw, then per sensor the
    process-noise draw followed by the measurement-noise draw.  Changing this
    order would silently change every seeded result.

    Under H1 the sensors go in blocks of :data:`SENSOR_BLOCK`.  Each block
    [lo, hi) makes one ``(2 * (hi - lo), trials)`` draw, which holds the same
    normals as 2 * (hi - lo) draws of ``trials`` in a row: its even rows are
    the state innovations (for sensor 0 the initial state) and its odd rows
    the measurement noise.  Scaling both and adding state to noise are one
    call each per block; only the state recursion runs per sensor, in place
    on the innovation rows, which then hold the states.  Every step is the
    same IEEE operation as in ``state = a * state + sd * z`` and
    ``y = state + sigma * z`` (the recursion adds ``sd * z + a * state``, and
    addition commutes), so every value equals the sensor-by-sensor form.
    """
    n = layout.total_sensors()
    sigma = np.sqrt(params.noise_variance)
    if hypothesis is Hypothesis.H0:
        out = rng.standard_normal((n, trials))
        out *= sigma
        return out

    pi0 = params.stationary_variance
    a = step_correlations(params, layout)
    step_sd = np.sqrt(pi0 * np.maximum(0.0, 1.0 - a * a))
    state_sd = np.concatenate(([np.sqrt(pi0)], step_sd))  # initial state, then steps
    out = np.empty((n, trials))
    tmp = np.empty(trials)
    for lo in range(0, n, SENSOR_BLOCK):
        hi = min(lo + SENSOR_BLOCK, n)
        z = rng.standard_normal((2 * (hi - lo), trials))
        proc, meas = z[0::2], z[1::2]
        meas *= sigma
        proc *= state_sd[lo:hi, None]
        for k in range(hi - lo):
            if lo + k:
                np.multiply(state, a[lo + k - 1], out=tmp)
                proc[k] += tmp
            state = proc[k]
        np.add(proc, meas, out=out[lo:hi])
    return out


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
