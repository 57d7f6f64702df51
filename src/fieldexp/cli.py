"""Command-line front end.

Subcommands: ``exponent`` (closed forms per layout), ``optimize`` (optimal
spacing below unit SNR), ``sweep`` (figure-data generation), ``simulate``
(Monte Carlo miss probabilities), ``validate`` (closed form vs. Monte Carlo).

Exit codes: 0 success, 1 validation-check failure, 2 configuration error,
3 numeric failure.  Errors are emitted as JSON on stderr.  Outputs are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import NumericFailure
from .field_model import (
    Clustered,
    FieldParams,
    Periodic,
    Uniform,
    check_schema,
    experiment_schema,
    layout_from_dict,
    layout_to_dict,
    params_to_dict,
)
from . import config_opt, kalman_exponent, mc_detector

_THREADS_ENV = "FIELDEXP_THREADS"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldexp",
        description="Error exponents for detection of a correlated field "
                    "under sensor activation configurations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, layout=True):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--diffusion-rate", type=float, dest="diffusion_rate")
        p.add_argument("--stationary-variance", type=float, dest="stationary_variance")
        p.add_argument("--noise-variance", type=float, dest="noise_variance")
        g = p.add_mutually_exclusive_group()
        g.add_argument("--snr", type=float, help="linear SNR (sets noise variance)")
        g.add_argument("--snr-db", type=float, dest="snr_db", help="SNR in dB")
        if layout:
            p.add_argument("--layout", choices=["uniform", "clustered", "periodic"])
            p.add_argument("--spacing", type=float)
            p.add_argument("--count", type=int)
            p.add_argument("--cluster-size", type=int, dest="cluster_size")
            p.add_argument("--cluster-count", type=int, dest="cluster_count")
            p.add_argument("--period", type=float)
            p.add_argument("--offsets", help="comma-separated intra-period gaps")
            p.add_argument("--period-count", type=int, dest="period_count")
        p.add_argument("--out", help="output path, '-' for stdout (default: the "
                                     "config file's 'out', else '-')")
        p.add_argument("--format", choices=["json", "csv"], dest="fmt",
                       help="default: the config file's 'format', else json")
        p.add_argument("--threads", type=int,
                       help="worker threads for the Monte Carlo trial blocks "
                            "(simulate, validate); default: the config file's "
                            f"'threads', else ${_THREADS_ENV}, else the CPUs "
                            "this process may use. Outputs do not depend on it")

    p = sub.add_parser("exponent", help="closed-form exponent of one layout")
    common(p)

    p = sub.add_parser("optimize", help="optimal spacing for SNR < 1")
    common(p, layout=False)
    p.add_argument("--snr-db-grid", help="start:stop:num dB grid for a spacing curve")

    p = sub.add_parser("sweep", help="exponent over a parameter grid")
    common(p, layout=False)
    p.add_argument("--axis", choices=["a", "snr", "cluster", "delta1", "m3"],
                   help="default: the config file's 'axis'; one of the two is required")
    p.add_argument("--grid-points", type=int, dest="grid_points")
    p.add_argument("--period", type=float)
    p.add_argument("--field-length", type=float, dest="field_length")
    p.add_argument("--n-total", type=int, dest="n_total")
    p.add_argument("--sizes", help="comma-separated cluster sizes")
    p.add_argument("--n-ref", type=int, dest="n_ref",
                   help="reference sensor count for approx_miss_prob "
                        "(default: the config file's 'n_ref', else 1, or "
                        "n_total for --axis cluster)")
    p.add_argument("--correlation", type=float, help="fixed correlation for --axis snr")

    # Defaults stay None so values from a config file are not shadowed;
    # explicit flags win over the file.
    for name, descr in (("simulate", "Monte Carlo miss probabilities"),
                        ("validate", "closed form vs. Monte Carlo decay rate")):
        p = sub.add_parser(name, help=descr)
        common(p)
        p.add_argument("--alpha", type=float)
        p.add_argument("--trials", type=int)
        p.add_argument("--n-values", dest="n_values",
                       help="comma-separated sensor counts")
        p.add_argument("--seed", type=int)
        if name == "validate":
            p.add_argument("--tolerance", type=float)
            p.add_argument("--check-alphas", dest="check_alphas",
                           help="comma-separated sizes for the rate-independence "
                                "check; empty string disables it")
    return parser


def _load_config(args) -> dict:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as err:
                raise ValueError(f"config is not valid JSON: {err}") from err
        check_schema(doc, experiment_schema(), "configuration")
    return doc


def _pick(flag_value, doc: dict, key: str, default=None):
    if flag_value is not None:
        return flag_value
    return doc.get(key, default)


def _resolve_params(args, doc: dict) -> FieldParams:
    pi0 = args.stationary_variance
    if pi0 is None:
        pi0 = doc.get("stationary_variance", 1.0)
    # An SNR flag sets the noise variance and overrides the file's value; only
    # the explicit --noise-variance flag conflicts with it.
    snr = _resolve_snr(args)
    if snr is not None:
        if args.noise_variance is not None:
            raise ValueError("give either an SNR or a noise variance, not both")
        noise = pi0 / snr
    else:
        noise = _pick(args.noise_variance, doc, "noise_variance")
    if noise is None:
        raise ValueError("noise variance is required (directly or via --snr/--snr-db)")
    rate = args.diffusion_rate if args.diffusion_rate is not None \
        else doc.get("diffusion_rate")
    if rate is None:
        raise ValueError("diffusion_rate is required")
    return FieldParams(diffusion_rate=rate, stationary_variance=pi0,
                       noise_variance=noise)


def _resolve_snr(args) -> float | None:
    """Linear SNR from --snr or --snr-db; it must be finite and > 0, also
    after the dB conversion (which can overflow or underflow to 0)."""
    if args.snr_db is None:
        flag, value, snr = "--snr", args.snr, args.snr
        if snr is None:
            return None
    else:
        flag, value = "--snr-db", args.snr_db
        try:
            snr = 10.0 ** (value / 10.0)
        except OverflowError:
            snr = math.inf
    if not (math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"SNR must be finite and > 0, got {snr!r} from {flag} {value!r}")
    return snr


def _resolve_threads(args, doc: dict) -> int:
    """Monte Carlo worker count: the --threads flag, then the file's
    ``threads`` (the schema requires >= 1), then $FIELDEXP_THREADS, then the
    CPUs available to this process."""
    env = os.environ.get(_THREADS_ENV, "").strip()
    if args.threads is not None:
        source, text = "--threads", args.threads
    elif "threads" in doc:
        return doc["threads"]
    elif env:
        source, text = _THREADS_ENV, env
    elif hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    else:
        return os.cpu_count() or 1
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return value


def _resolve_layout(args, doc: dict):
    kind = getattr(args, "layout", None)
    if kind is None:
        if "layout" in doc:
            return layout_from_dict(doc["layout"])
        return None
    if kind == "uniform":
        return Uniform(spacing=_req(args.spacing, "--spacing"),
                       count=_req(args.count, "--count"))
    if kind == "clustered":
        return Clustered(cluster_size=_req(args.cluster_size, "--cluster-size"),
                         cluster_count=_req(args.cluster_count, "--cluster-count"),
                         period=_req(args.period, "--period"))
    return Periodic(offsets=_floats(_req(args.offsets, "--offsets")),
                    period_count=_req(args.period_count, "--period-count"))


def _req(value, flag):
    if value is None:
        raise ValueError(f"{flag} is required for this layout")
    return value


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in str(text).split(","))


def _ints(text: str) -> list[int]:
    return [int(x) for x in str(text).split(",")]


def _emit(args, text: str) -> None:
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


def _json_dump(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=True) + "\n"


def _meta(args, params, extra=None) -> dict:
    meta = {
        "version": __version__,
        "field": params_to_dict(params),
        "format": args.fmt,
    }
    if extra:
        meta.update(extra)
    return meta


def _cmd_exponent(args, doc) -> int:
    params = _resolve_params(args, doc)
    layout = _resolve_layout(args, doc)
    if layout is None:
        raise ValueError("a layout is required for the exponent command")
    res = kalman_exponent.vector_exponent(params, layout)
    payload = {
        "exponent_per_sensor": res.exponent_per_sensor,
        "exponent_per_block": res.exponent_per_block,
        "innovations": [dataclasses.asdict(inn) for inn in res.innovations],
        "layout": layout_to_dict(layout),
        "diagnostics": res.diagnostics,
        "metadata": _meta(args, params),
    }
    if args.fmt == "csv":
        text = ("exponent_per_sensor,exponent_per_block\n"
                f"{payload['exponent_per_sensor']!r},{payload['exponent_per_block']!r}\n")
    else:
        text = _json_dump(payload)
    _emit(args, text)
    return 0


def _cmd_optimize(args, doc) -> int:
    params = _resolve_params(args, doc)
    if args.snr_db_grid:
        start, stop, num = args.snr_db_grid.split(":")
        grid_db = np.linspace(float(start), float(stop), int(num))
        curve = config_opt.optimal_spacing_curve(
            params.diffusion_rate, params.noise_variance,
            [10.0 ** (db / 10.0) for db in grid_db],
        )
        if args.fmt == "csv":
            lines = ["snr,snr_db,a_star,delta_star,k_at_optimum"]
            for (snr, res), db in zip(curve, grid_db):
                lines.append(f"{snr!r},{db!r},{res.a_star!r},{res.delta_star!r},"
                             f"{res.exponent_at_optimum!r}")
            text = "\n".join(lines) + "\n"
        else:
            text = _json_dump({
                "curve": [{"snr": snr, **dataclasses.asdict(res)} for snr, res in curve],
                "metadata": _meta(args, params),
            })
    else:
        res = config_opt.optimal_spacing(params)
        text = _json_dump({**dataclasses.asdict(res), "metadata": _meta(args, params)})
    _emit(args, text)
    return 0


def _cmd_sweep(args, doc) -> int:
    params = _resolve_params(args, doc)
    axis = _pick(args.axis, doc, "axis")
    if axis is None:
        raise ValueError("--axis (or the config file's 'axis') is required for sweep")
    gp = args.grid_points or doc.get("grid_points")
    n_ref = _pick(args.n_ref, doc, "n_ref", 1)
    if axis == "a":
        grid = np.linspace(0.0, 1.0, gp or 201)
        result = config_opt.correlation_sweep(params, grid, n_ref=n_ref)
    elif axis == "snr":
        corr = args.correlation if args.correlation is not None \
            else doc.get("correlation")
        if corr is None:
            raise ValueError("--correlation is required for --axis snr")
        result = config_opt.snr_sweep(params, corr, doc.get("snr_values"), n_ref=n_ref)
    elif axis == "cluster":
        n_total = args.n_total or doc.get("n_total") or 100
        sizes = _ints(args.sizes) if args.sizes else doc.get("sizes") or [1, 2, 4, 5, 10]
        length = args.field_length or doc.get("field_length") or 1.0
        result = config_opt.cluster_size_sweep(
            params, length, n_total, sizes, n_ref=_pick(args.n_ref, doc, "n_ref", n_total))
    elif axis == "delta1":
        period = args.period or doc.get("period")
        if period is None:
            raise ValueError("--period is required for --axis delta1")
        result = config_opt.offset_sweep_m2(params, period, gp or 201, n_ref=n_ref)
    else:  # m3
        period = args.period or doc.get("period")
        if period is None:
            raise ValueError("--period is required for --axis m3")
        result = config_opt.offset_sweep_m3(params, period, gp or 61, n_ref=n_ref)
    if args.fmt == "csv":
        text = config_opt.sweep_to_csv(result)
    else:
        text = _json_dump({**config_opt.sweep_to_json(result),
                           "metadata": _meta(args, params)})
    _emit(args, text)
    return 0


def _cmd_simulate(args, doc) -> int:
    params = _resolve_params(args, doc)
    layout = _resolve_layout(args, doc)
    if layout is None:
        raise ValueError("a layout is required for the simulate command")
    alpha = _pick(args.alpha, doc, "alpha", 0.1)
    trials = _pick(args.trials, doc, "trials", 100_000)
    seed = _pick(args.seed, doc, "seed", mc_detector.DEFAULT_SEED)
    n_values = _pick(_ints(args.n_values) if args.n_values else None, doc, "n_values")
    if not n_values:
        k = kalman_exponent.vector_exponent(params, layout).exponent_per_sensor
        n_values = mc_detector._auto_n_values(k, len(layout.offsets), trials, k < 1e-9)
    est = mc_detector.estimate_miss_probability(
        params, layout, alpha, n_values, trials, seed,
        workers=_resolve_threads(args, doc))
    if args.fmt == "csv":
        text = mc_detector.estimate_counts_csv(est)
    else:
        text = _json_dump({**mc_detector.estimate_to_json(est),
                           "metadata": _meta(args, params,
                                             {"layout": layout_to_dict(layout)})})
    _emit(args, text)
    return 0


def _cmd_validate(args, doc) -> int:
    params = _resolve_params(args, doc)
    layout = _resolve_layout(args, doc)
    if layout is None:
        raise ValueError("a layout is required for the validate command")
    closed = kalman_exponent.vector_exponent(params, layout)
    alpha = _pick(args.alpha, doc, "alpha", 0.1)
    if args.check_alphas is not None:
        check = tuple(float(a) for a in args.check_alphas.split(",") if a.strip())
    else:
        check = tuple(doc.get("check_alphas", (0.05, 0.2)))
    n_values = _pick(_ints(args.n_values) if args.n_values else None, doc, "n_values")
    budget = mc_detector.ValidationBudget(
        trials=_pick(args.trials, doc, "trials", 100_000),
        n_values=tuple(n_values) if n_values else None,
        check_alphas=check,
        rel_tol=_pick(args.tolerance, doc, "tolerance", 0.20),
        seed=_pick(args.seed, doc, "seed", mc_detector.DEFAULT_SEED),
        workers=_resolve_threads(args, doc),
    )
    report = mc_detector.validate_exponent(params, layout, alpha, closed, budget)
    if args.fmt == "csv":
        text = mc_detector.estimate_counts_csv(report.estimates[alpha])
    else:
        text = _json_dump({**mc_detector.report_to_json(report),
                           "metadata": _meta(args, params,
                                             {"layout": layout_to_dict(layout)})})
    _emit(args, text)
    return 0 if report.passed else 1


_COMMANDS = {
    "exponent": _cmd_exponent,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def classify_exit(err: BaseException) -> int:
    """Exit code for an exception: 2 for configuration errors, 3 numeric."""
    if isinstance(err, NumericFailure):
        return 3
    if isinstance(err, (ValueError, KeyError, TypeError, OSError)):
        return 2
    raise err


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc = _load_config(args)
        args.fmt = _pick(args.fmt, doc, "format", "json")
        args.out = _pick(args.out, doc, "out", "-")
        return _COMMANDS[args.command](args, doc)
    except Exception as err:  # noqa: BLE001 - mapped to exit codes below
        code = classify_exit(err)
        payload = {"error": {"type": type(err).__name__, "message": str(err),
                             "exit_code": code}}
        if isinstance(err, NumericFailure) and err.residual is not None:
            payload["error"]["residual"] = err.residual
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
