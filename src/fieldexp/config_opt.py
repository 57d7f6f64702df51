"""Configuration optimization: optimal spacing below unit SNR, cluster-size
sweeps, and exhaustive offset sweeps for two and three sensors per period.

The spacing optimum is closed form.  Take uniform spacing at correlation a,
u = a^2 and SNR G < 1.  In units of the noise variance the steady-state
innovations variance r = 1 + p solves

    r^2 - s r + u = 0,   s = 1 + u + G (1 - u),

and the exponent is stationary in a where

    s^2 = 2 (r + u^2 / r)                                  (optimality)

(:func:`_optimality` evaluates its left side minus its right).  Multiplying it
by r and eliminating r^2 with the first equation gives r s (2 - s) =
2 u (1 - u); as 2 - s = (1 - u)(1 - G), that is r = 2 u / (s (1 - G)).  Put
back into the first equation, it leaves (1 - G^2) s^2 = 4 u, a quadratic in u
whose roots multiply to ((1 + G) / (1 - G))^2 > 1; the smaller one is the
optimum.  With w = (1 - G)(1 + G), rho = sqrt(1 + w) = sqrt(2 - G^2) and
D = 2 - w^2 + 2 G rho,

    a*^2 = u = (1 + G)^2 w / D,   1 - u = 2 G (rho - 1 + G + G^2) / D,

the second form free of cancellation as G -> 0, and the optimal spacing is
delta* = -ln(a*) / A = -1/2 log1p(-(1 - u)) / A.  As G -> 0, delta* A / G
tends to sqrt(2) - 1; as G -> 1, a* tends to sqrt(2 (1 - G)).

Each function takes the SNR, and the diffusion rate where it turns distances
into step correlations (the cluster-size and offset sweeps build gap
patterns) or a correlation into a spacing (the optimum): the exponent of a
pattern of step correlations depends on the SNR alone.  Every sweep, and
the optimum at every SNR of a curve, is one call of the batched steady-state
engine (:func:`fieldexp.kalman_exponent._steady_state`), which solves each
row as it would alone.  A row is a grid point, except in the offset sweeps:
there a point's exponent depends only on its gap cycle, unchanged by a
rotation or a reversal, so each cycle is one row, solved in its canonical
order, and every point of the cycle reports that row's bits.  A sweep
returns its rows and, for each point, its row and its index into the axis
values, so the writers format each row and each axis value once and gather
the texts.  Callers pass every grid; the functions have no grid defaults.
They return exponents only: the command line owns the reference sensor
count and the ``approx_miss_prob`` column it derives from them, and writes
the results as JSON or CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import kalman_exponent
from .field_model import _correlations
from .kalman_exponent import SteadyStates

__all__ = [
    "OptimalSpacingResult",
    "SweepResult",
    "optimal_spacing_curve",
    "correlation_sweep",
    "snr_sweep",
    "cluster_size_sweep",
    "offset_sweep_m2",
    "offset_sweep_m3",
    "classify_m3_configuration",
]


@dataclass(frozen=True)
class OptimalSpacingResult:
    """Closed-form optimum of uniform spacing at one SNR in (0, 1).

    a_star is the optimal correlation and delta_star = -ln(a_star) / A the
    optimal spacing at diffusion rate A > 0.  exponent_at_optimum is the
    engine's per-sensor exponent at a_star, and residual the optimality
    equation there, evaluated with the engine's steady state: a check of the
    closed form, about 1e-16.
    """

    a_star: float
    delta_star: float
    residual: float
    exponent_at_optimum: float


@dataclass
class SweepResult:
    """Exponents over the grid a caller passed, in grid order, as solved.

    ``axis_values`` are the swept axis's float64 values and ``axis_index``
    each grid point's index into them: one per point, or a pair (x2, x3) per
    m3 point.  ``row_k_per_sensor`` and ``row_k_per_block`` are the exponents
    of the engine's rows and ``row`` the row each point reports.
    ``points``, ``k_per_sensor`` and ``k_per_block`` gather these into float64
    arrays with one row per grid point; an m3 point is the row of free
    positions (x2, x3).
    argmax is the first grid point of the largest per-sensor exponent; the
    points of one offset-sweep gap cycle carry the same bits, so they tie
    exactly.  The results carry exponents only: the command line writes the
    ``approx_miss_prob`` column, exp(-n_ref * k_per_sensor) at its reference
    sensor count n_ref.
    """

    axis: str
    axis_values: np.ndarray
    axis_index: np.ndarray
    row: np.ndarray
    row_k_per_sensor: np.ndarray
    row_k_per_block: np.ndarray
    argmax: float | tuple[float, ...]
    argmax_label: str | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def points(self) -> np.ndarray:
        return self.axis_values[self.axis_index]

    @property
    def k_per_sensor(self) -> np.ndarray:
        return self.row_k_per_sensor[self.row]

    @property
    def k_per_block(self) -> np.ndarray:
        return self.row_k_per_block[self.row]


def _optimality(snr, a, r_e):
    """Left side of the optimality equation at correlation ``a`` and SNR
    ``snr`` (floats or arrays), given the steady-state innovations variance
    ``r_e`` / sigma^2 at ``a``."""
    s, a2 = 1.0 + a * a + snr * (1.0 - a * a), a * a
    return s * s - 2.0 * (r_e + a2 * a2 / r_e)


def optimal_spacing_curve(diffusion_rate: float, snr_values) -> list[OptimalSpacingResult]:
    """Closed-form optimum of uniform spacing at every SNR of ``snr_values``
    (all in (0, 1)), with the exponent and the residual at each from one
    engine call.  Each point is the same whatever the other SNRs.

    The optimal correlation depends on the SNR alone, and the spacing scales
    as 1 / diffusion_rate (ValueError beyond the float range).  At SNR >= 1
    decreasing correlation is always better, and there is no optimum.
    """
    if not diffusion_rate > 0:
        raise ValueError("optimal spacing needs diffusion_rate > 0")
    snrs = [float(v) for v in snr_values]
    for snr in snrs:
        if not 0.0 < snr < 1.0:
            raise ValueError(f"optimal correlation is defined for 0 < SNR < 1, got {snr}")
    g = np.array(snrs)
    w = (1.0 - g) * (1.0 + g)  # 1 - G^2, accurate as G -> 1
    rho = np.sqrt(1.0 + w)
    d = 2.0 - w * w + 2.0 * g * rho
    a = np.sqrt((1.0 + g) * (1.0 + g) * w / d)
    with np.errstate(over="ignore"):
        delta = -0.5 * np.log1p(-2.0 * g * (rho - 1.0 + g + g * g) / d) / diffusion_rate
    deltas = delta.tolist()
    for snr, spacing in zip(snrs, deltas):
        if not math.isfinite(spacing):
            raise ValueError(f"optimal spacing -ln(a*)/A exceeds the float range at "
                             f"diffusion_rate {diffusion_rate!r} and SNR {snr!r}")
    states = kalman_exponent._steady_state(a[:, None], g)
    residual = _optimality(g, a, 1.0 + states.p[:, 0])
    return [
        OptimalSpacingResult(a_star=a_star, delta_star=d, residual=r, exponent_at_optimum=k)
        for a_star, d, r, k in zip(a.tolist(), deltas, residual.tolist(),
                                   states.exponent_per_block.tolist())
    ]


def correlation_sweep(snr: float, a_values) -> SweepResult:
    """Per-sensor exponent over the correlation grid ``a_values`` in [0, 1]."""
    a = np.array(a_values, dtype=float)
    bad = a[~((a >= 0.0) & (a <= 1.0))]
    if bad.size:
        raise ValueError(f"correlation must lie in [0, 1], got {float(bad[0])}")
    return _finish_each("a", a, kalman_exponent._steady_state(a[:, None], snr).exponent_per_block,
                        1, {"snr": snr})


def snr_sweep(a: float, snr_values) -> SweepResult:
    """Per-sensor exponent over the SNR grid ``snr_values`` at fixed correlation ``a``."""
    if not (0.0 <= a <= 1.0):
        raise ValueError(f"correlation must lie in [0, 1], got {a}")
    snr = np.array(snr_values, dtype=float)
    bad = snr[~(np.isfinite(snr) & (snr > 0.0))]
    if bad.size:
        raise ValueError(f"SNR must be finite and > 0, got {float(bad[0])}")
    states = kalman_exponent._steady_state(np.full((len(snr), 1), float(a)), snr)
    return _finish_each("snr", snr, states.exponent_per_block, 1, {"correlation": a})


def cluster_size_sweep(rate: float, snr: float, field_length: float, n_total: int,
                       sizes) -> SweepResult:
    """Per-sensor exponent of periodic clustering for each cluster size.

    Every size m must divide the sensor budget; the cluster period T is the
    field length over the n_total / m clusters.  m co-located sensors are one
    site at SNR m G, solved as the pair (0, T) at m G / 2, whose gap-0 step
    keeps the carry below 1 where (T,) at m G overflows past m G ~ 1.3e154.
    """
    _check_length("field_length", field_length)
    sizes = [int(m) for m in sizes]
    for size in sizes:
        if not (1 <= size <= n_total and n_total % size == 0):
            raise ValueError(f"cluster size {size} does not divide n_total={n_total}")
    m = np.array(sizes, dtype=float)
    pairs = [(0.0, field_length / (n_total // size)) for size in sizes]
    return _finish_each("cluster_size", m,
                        _gap_solve(rate, snr * (m / 2), pairs).exponent_per_block, m,
                        {"field_length": field_length, "n_total": n_total})


def offset_sweep_m2(rate: float, snr: float, period: float, grid_points: int) -> SweepResult:
    """Exponent of a two-sensor period versus the first intra-period gap.

    The sweep runs the first gap over [0, period] (the second gap is the
    remainder); zero gap is periodic clustering, half the period is uniform.
    Grid points i and G - 1 - i have the same gap cycle, the two gaps only
    relabelling the sensors, so only i <= G - 1 - i is solved, at gaps
    (d1_i, period - d1_i), and the curve is exactly symmetric.
    """
    _check_sweep_args(period, grid_points)
    d1 = np.linspace(0.0, period, grid_points)
    half = d1[:(grid_points + 1) // 2]
    k_half = _gap_solve(rate, snr, np.stack([half, period - half], axis=1)).exponent_per_block
    i = np.arange(grid_points)
    return _finish("delta1", d1, i, np.minimum(i, grid_points - 1 - i), k_half, 2,
                   {"period": period, "snr": snr})


def offset_sweep_m3(rate: float, snr: float, period: float, grid_points: int) -> SweepResult:
    """Exponent of a three-sensor period over both free positions.

    One sensor is pinned at the period start; the other two sweep [0, period]
    each.  The argmax is also classified as clustering, uniform, two_plus_one
    (a co-located pair plus one sensor at half the period), or other.
    In grid steps the point (x2, x3) has the gap cycle (lo, hi - lo,
    G - 1 - hi), lo and hi its smaller and larger index.  A rotation or a
    reversal of the cycle leaves the exponent as it is (the field is
    stationary and time-reversible), so each cycle is solved once, in its
    sorted order a <= b <= c at the positions (0, x_a, x_(a+b)), and every
    point reports the solve of its cycle.  The point at grid indices (i, j)
    is the axis values (x_i, x_j).
    """
    _check_sweep_args(period, grid_points)
    axis = np.linspace(0.0, period, grid_points)
    last = grid_points - 1
    i, j = np.indices((grid_points, grid_points))
    # row[a, b] numbers the sorted cycles (a, b, last - a - b) in order
    cycles = (i <= j) & (j <= last - i - j)
    row = np.zeros_like(i)
    row[cycles] = np.arange(np.count_nonzero(cycles))
    a, b = i[cycles], j[cycles]
    gaps = np.stack([axis[a], axis[a + b] - axis[a], period - axis[a + b]], axis=1)
    k_cycle = _gap_solve(rate, snr, gaps).exponent_per_block
    # the point (x_i, x_j) has the cycle (lo, hi - lo, last - hi)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    smallest = np.minimum(lo, np.minimum(hi - lo, last - hi))
    largest = np.maximum(lo, np.maximum(hi - lo, last - hi))
    res = _finish("m3", axis, np.stack([i.ravel(), j.ravel()], axis=1),
                  row[smallest, last - smallest - largest].ravel(), k_cycle, 3,
                  {"period": period, "snr": snr})
    tol = 0.6 * float(axis[1] - axis[0])
    res.argmax_label = classify_m3_configuration(*res.argmax, period=period, tol=tol)
    return res


def classify_m3_configuration(x2: float, x3: float, period: float, tol: float) -> str:
    """Name the shape of a three-sensor period given the two free positions."""
    first, second, third = sorted((0.0, x2, x3))
    small, middle, large = sorted((second - first, third - second, period - third))
    if middle <= tol:
        return "clustering"
    if all(abs(gap - period / 3.0) <= tol for gap in (small, middle, large)):
        return "uniform"
    if small <= tol and abs(middle - period / 2.0) <= tol and abs(large - period / 2.0) <= tol:
        return "two_plus_one"
    return "other"


def _check_length(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def _check_sweep_args(period: float, grid_points: int) -> None:
    _check_length("period", period)
    if grid_points < 3:
        raise ValueError(f"grid_points must be >= 3, got {grid_points}")


def _gap_solve(rate: float, snr, gaps) -> SteadyStates:
    """Steady states of the rows of gap patterns ``gaps``, shape (N, M), at
    diffusion rate ``rate`` and SNR ``snr`` (a scalar or one per row)."""
    return kalman_exponent._steady_state(_correlations(rate, gaps), snr)


def _finish(axis: str, axis_values: np.ndarray, axis_index: np.ndarray, row: np.ndarray,
            k_block: np.ndarray, sensors, metadata: dict) -> SweepResult:
    """The sweep whose points are ``axis_values[axis_index]``, each reporting
    its ``row`` of the exponents per period ``k_block``, with ``sensors``
    sensors per period: one count, or one per row."""
    k_per_sensor = k_block / sensors
    argmax = axis_values[axis_index[np.argmax(k_per_sensor[row])]].tolist()
    return SweepResult(axis, axis_values, axis_index, row, k_per_sensor, k_block,
                       tuple(argmax) if axis_index.ndim == 2 else argmax, metadata=metadata)


def _finish_each(axis: str, values: np.ndarray, k_block: np.ndarray, sensors,
                 metadata: dict) -> SweepResult:
    """The sweep whose point i is ``values[i]`` and reports row i."""
    i = np.arange(len(values))
    return _finish(axis, values, i, i, k_block, sensors, metadata)
