"""The layers of ``fieldexp`` as the traced run sees them, and their metrics.

A layer is a package module.  The traced run wraps the calls that cross from
one module into another, plus the internals that later work is expected to
move, so each module's self time and each named call's count and busy time
can be read from the spans.
"""

from __future__ import annotations

from collections import defaultdict

from .spans import Span, percentile, self_times

MODULES = ("cli", "config_opt", "kalman_exponent", "field_model", "mc_detector")

# (module the caller looks the name up in, attribute).  cli reaches
# config_opt, kalman_exponent and mc_detector through their module objects,
# so those names are replaced on the callee module; the names config_opt,
# mc_detector and cli imported from other modules are replaced where they
# were imported.  kalman_exponent's solver internals and config_opt's
# optimal_spacing are called from inside their own module.
BOUNDARIES = (
    ("cli", "experiment_schema"),
    ("cli", "layout_from_dict"),
    ("cli", "layout_to_dict"),
    ("cli", "params_to_dict"),
    ("config_opt", "optimal_spacing_curve"),
    ("config_opt", "optimal_spacing"),
    ("config_opt", "offset_sweep_m3"),
    ("config_opt", "sweep_to_json"),
    ("config_opt", "scalar_exponent_from_correlation"),
    ("config_opt", "scalar_riccati_fixed_point"),
    ("config_opt", "vector_exponent"),
    ("kalman_exponent", "scalar_exponent"),
    ("kalman_exponent", "clustering_exponent"),
    ("kalman_exponent", "scalar_exponent_from_correlation"),
    ("kalman_exponent", "scalar_riccati_fixed_point"),
    ("kalman_exponent", "vector_exponent"),
    ("kalman_exponent", "build_periodic_state_space"),
    ("kalman_exponent", "vector_riccati_solve"),
    ("kalman_exponent", "vector_lyapunov_solve"),
    ("mc_detector", "family_from_layout"),
    ("mc_detector", "validate_exponent"),
    ("mc_detector", "estimate_miss_probability"),
    ("mc_detector", "report_to_json"),
    ("mc_detector", "_sample_columns"),
    ("mc_detector", "derive_rng"),
    ("mc_detector", "step_correlations"),
)

# Span names that differ from "<defining module>.<function>".
_RENAMED = {
    "_sample_columns": "field_model.sample",
    "estimate_miss_probability": "mc_detector.estimate",
    "validate_exponent": "mc_detector.validate",
}


def normals(n: int, trials: int, h1: bool) -> int:
    """Standard normals one sampler call draws: n per trial under H0; under
    H1 the initial state, then a process and a measurement draw per sensor
    after the first measurement, 2n per trial."""
    return (2 * n if h1 else n) * trials


def sensor_trials(n_values, trials: int) -> int:
    """Sensor-trials of one estimate: every n, every trial, both hypotheses."""
    return 2 * trials * sum(n_values)


def _sample_counts(result, params, layout, hypothesis, rng, trials):
    return {"normals": normals(layout.total_sensors(), trials,
                               hypothesis.name == "H1")}


def _estimate_counts(est, *args, **kwargs):
    return {"sensor_trials": sensor_trials(est.n_values, est.trials),
            "useful_sensor_trials": sensor_trials(est.fit_n_used, est.trials)}


_COUNTS = {"field_model.sample": _sample_counts,
           "mc_detector.estimate": _estimate_counts}


def boundaries(modules: dict) -> list[tuple]:
    """``Tracer.patched`` entries for the program's ``modules`` by short name."""
    out = []
    for mod_name, attr in BOUNDARIES:
        module = modules[mod_name]
        fn = getattr(module, attr, None)
        if fn is None:
            continue
        name = _RENAMED.get(attr) or f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
        out.append((module, attr, name, _COUNTS.get(name)))
    return out


# name, unit, better.  A percentile reads 0 when fewer than ten samples lie
# beyond it; a ratio reads 0 when its base is 0 (the layer was not called).
PER_LAYER = (
    ("cli.main.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("config_opt.self_s", "s", "lower"),
    ("config_opt.optimal_spacing.calls", "count", "lower"),
    ("config_opt.optimal_spacing.p50_ms", "ms", "lower"),
    ("config_opt.offset_sweep_m3.busy_s", "s", "lower"),
    ("kalman_exponent.self_s", "s", "lower"),
    ("kalman_exponent.vector_exponent.calls", "count", "lower"),
    ("kalman_exponent.vector_exponent.busy_s", "s", "lower"),
    ("kalman_exponent.vector_exponent.self_s", "s", "lower"),
    ("kalman_exponent.vector_exponent.p50_ms", "ms", "lower"),
    ("kalman_exponent.vector_exponent.p99_ms", "ms", "lower"),
    ("kalman_exponent.build_periodic_state_space.busy_s", "s", "lower"),
    ("kalman_exponent.vector_riccati_solve.busy_s", "s", "lower"),
    ("kalman_exponent.vector_lyapunov_solve.busy_s", "s", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.calls", "count", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.busy_s", "s", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.p50_us", "us", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.p99_us", "us", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.failures", "count", "lower"),
    ("kalman_exponent.scalar_riccati_fixed_point.ok_share", "fraction", "higher"),
    ("field_model.self_s", "s", "lower"),
    ("field_model.sample.calls", "count", "lower"),
    ("field_model.sample.busy_s", "s", "lower"),
    ("field_model.sample.normals", "count", "lower"),
    ("field_model.sample.normals_per_s", "1/s", "higher"),
    ("mc_detector.self_s", "s", "lower"),
    ("mc_detector.estimate.calls", "count", "lower"),
    ("mc_detector.estimate.self_s", "s", "lower"),
    ("mc_detector.llr.sensor_trials", "count", "lower"),
    ("mc_detector.llr.sensor_trials_per_s", "1/s", "higher"),
    ("mc_detector.validate.self_s", "s", "lower"),
    ("mc_detector.fit.useful_share", "fraction", "higher"),
    ("run.cpu_s", "s", "lower"),
    ("run.cpu_util", "fraction", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_share", "fraction", "lower"),
)


_VEC = "kalman_exponent.vector_exponent"
_RIC = "kalman_exponent.scalar_riccati_fixed_point"

# metric -> (span name, percentile, scale).  Taken over the pooled span
# durations of every traced repetition of a run.
PERCENTILES = {
    "config_opt.optimal_spacing.p50_ms": ("config_opt.optimal_spacing", 50, 1e3),
    f"{_VEC}.p50_ms": (_VEC, 50, 1e3),
    f"{_VEC}.p99_ms": (_VEC, 99, 1e3),
    f"{_RIC}.p50_us": (_RIC, 50, 1e6),
    f"{_RIC}.p99_us": (_RIC, 99, 1e6),
}


def durations(spans: list[Span]) -> dict[str, list[float]]:
    """Span durations of the names the percentile metrics read."""
    names = {name for name, _, _ in PERCENTILES.values()}
    out = {name: [] for name in names}
    for sp in spans:
        if sp.name in names:
            out[sp.name].append(sp.duration)
    return out


def percentile_metrics(pooled: dict[str, list[float]]) -> dict[str, float]:
    """The percentile metrics of pooled durations; 0 where the rule in
    :func:`spans.percentile` declines to report one."""
    out = {}
    for metric, (name, q, scale) in PERCENTILES.items():
        value = percentile(pooled.get(name, []), q)
        out[metric] = 0.0 if value is None else value * scale
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, except the percentiles
    (pooled over repetitions) and ``run.*`` and ``trace.overhead_share``
    (which need the untraced repetitions)."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    module_self = dict.fromkeys(MODULES, 0.0)
    for sp in spans:
        by_name[sp.name].append(sp)
        module_self[sp.module] = module_self.get(sp.module, 0.0) + selfs[sp.span_id]

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(sp.duration for sp in by_name[name])

    def own(name):
        return sum(selfs[sp.span_id] for sp in by_name[name])

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in by_name[name])

    vec, ric = _VEC, _RIC
    failures = sum(1 for sp in by_name[ric] if sp.error == "NumericFailure")
    sample = "field_model.sample"
    llr_trials = count("mc_detector.estimate", "sensor_trials")
    return {
        "cli.main.self_s": own("cli.main"),
        "cli.output_bytes": count("cli.main", "output_bytes"),
        "config_opt.self_s": module_self["config_opt"],
        "config_opt.optimal_spacing.calls": calls("config_opt.optimal_spacing"),
        "config_opt.offset_sweep_m3.busy_s": busy("config_opt.offset_sweep_m3"),
        "kalman_exponent.self_s": module_self["kalman_exponent"],
        f"{vec}.calls": calls(vec),
        f"{vec}.busy_s": busy(vec),
        f"{vec}.self_s": own(vec),
        "kalman_exponent.build_periodic_state_space.busy_s":
            busy("kalman_exponent.build_periodic_state_space"),
        "kalman_exponent.vector_riccati_solve.busy_s":
            busy("kalman_exponent.vector_riccati_solve"),
        "kalman_exponent.vector_lyapunov_solve.busy_s":
            busy("kalman_exponent.vector_lyapunov_solve"),
        f"{ric}.calls": calls(ric),
        f"{ric}.busy_s": busy(ric),
        f"{ric}.failures": failures,
        f"{ric}.ok_share": _ratio(calls(ric) - failures, calls(ric)),
        "field_model.self_s": module_self["field_model"],
        f"{sample}.calls": calls(sample),
        f"{sample}.busy_s": busy(sample),
        f"{sample}.normals": count(sample, "normals"),
        f"{sample}.normals_per_s": _ratio(count(sample, "normals"), busy(sample)),
        "mc_detector.self_s": module_self["mc_detector"],
        "mc_detector.estimate.calls": calls("mc_detector.estimate"),
        "mc_detector.estimate.self_s": own("mc_detector.estimate"),
        "mc_detector.llr.sensor_trials": llr_trials,
        "mc_detector.llr.sensor_trials_per_s":
            _ratio(llr_trials, own("mc_detector.estimate")),
        "mc_detector.validate.self_s": own("mc_detector.validate"),
        "mc_detector.fit.useful_share":
            _ratio(count("mc_detector.estimate", "useful_sensor_trials"), llr_trials),
        "trace.wall_s": busy("cli.main"),
    }


def busy_shares(spans: list[Span], top: int = 5) -> dict[str, float]:
    """The ``top`` span names by busy time, as shares of the traced wall time."""
    wall = sum(sp.duration for sp in spans if sp.parent is None)
    totals = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            totals[sp.name] += sp.duration
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return {name: _ratio(t, wall) for name, t in ranked}
