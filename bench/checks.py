"""Output checks for every benchmark command.

At the default seed each command's output must match the reference captured
from the seed code (``reference.json``): closed-form values within a tight
relative tolerance, Monte Carlo counts, thresholds, regime and verdict
exactly.  At every seed the output must satisfy invariants that do not depend
on the seed.  A command whose checks report a problem counts as failed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from fieldexp.errors import NumericFailure
from fieldexp.field_model import FieldParams
from fieldexp.kalman_exponent import scalar_exponent_from_correlation

from .layers import sensor_trials

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REL_TOL = 1e-9
# Only the argmax labels classify_m3_configuration can return.
_M3_LABELS = {"clustering", "uniform", "two_plus_one", "other"}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def digest(kind: str, payload: dict) -> dict:
    """The part of a command's JSON output the checks compare."""
    if kind == "validate":
        return {
            "regime": payload["regime"],
            "passed": payload["passed"],
            "closed_form_per_sensor": payload["closed_form_per_sensor"],
            "estimates": {
                alpha: {
                    "n_values": est["n_values"],
                    "threshold_per_n": est["threshold_per_n"],
                    "misses": [p["misses"] for p in est["miss_prob"]],
                }
                for alpha, est in payload["estimates"].items()
            },
        }
    if kind == "sweep-m3":
        return {
            "k_per_sensor": [p["k_per_sensor"] for p in payload["values"]],
            "argmax": payload["argmax"],
            "argmax_label": payload["argmax_label"],
        }
    if kind == "optimize":
        return {"curve": [[p["snr"], p["a_star"], p["delta_star"],
                           p["exponent_at_optimum"]] for p in payload["curve"]]}
    raise ValueError(f"unknown command kind {kind!r}")


def summarize(kind: str, payload: dict) -> dict:
    """Work done by one command and the figures reported per command."""
    if kind == "validate":
        summary = {
            "work": sum(sensor_trials(e["n_values"], e["trials"])
                        for e in payload["estimates"].values()),
            "regime": payload["regime"],
            "passed": payload["passed"],
        }
        if payload["regime"] == "exponential":
            summary["rel_deviation"] = payload["rel_deviation"]
        return summary
    if kind == "sweep-m3":
        return {"work": len(payload["values"])}
    return {"work": len(payload["curve"])}


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


def _close_lists(a, b) -> bool:
    return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))


def compare(kind: str, got: dict, ref: dict) -> list[str]:
    """Mismatches between a digest and its reference."""
    if kind == "validate":
        problems = []
        for key in ("regime", "passed", "estimates"):
            if got[key] != ref[key]:
                problems.append(f"{key} differs from the reference")
        if not _close(got["closed_form_per_sensor"], ref["closed_form_per_sensor"]):
            problems.append("closed-form exponent differs from the reference")
        return problems
    if kind == "sweep-m3":
        problems = []
        if not _close_lists(got["k_per_sensor"], ref["k_per_sensor"]):
            problems.append("m3 exponents differ from the reference")
        if not _close_lists(got["argmax"], ref["argmax"]):
            problems.append("m3 argmax differs from the reference")
        if got["argmax_label"] != ref["argmax_label"]:
            problems.append("m3 argmax label differs from the reference")
        return problems
    if len(got["curve"]) != len(ref["curve"]) or not all(
            _close_lists(g, r) for g, r in zip(got["curve"], ref["curve"])):
        return ["optimal spacing curve differs from the reference"]
    return []


def _validate_invariants(rc: int, payload: dict, ref: dict) -> list[str]:
    # Regime, closed form and n-grid do not depend on the seed.
    problems = []
    if (rc == 0) != bool(payload["passed"]):
        problems.append(f"exit code {rc} disagrees with passed={payload['passed']}")
    if payload["regime"] != ref["regime"]:
        problems.append(f"regime {payload['regime']} != {ref['regime']}")
    if not _close(payload["closed_form_per_sensor"], ref["closed_form_per_sensor"]):
        problems.append("closed-form exponent depends on the seed")
    for alpha, est in payload["estimates"].items():
        if alpha in ref["estimates"] and \
                est["n_values"] != ref["estimates"][alpha]["n_values"]:
            problems.append(f"n-grid for alpha {alpha} depends on the seed")
        if not all(0 <= p["misses"] <= est["trials"] for p in est["miss_prob"]):
            problems.append(f"miss count out of range for alpha {alpha}")
    return problems


def _m3_invariants(payload: dict, ref: dict) -> list[str]:
    problems = []
    k = {tuple(p["grid"]): p["k_per_sensor"] for p in payload["values"]}
    if len(k) != len(ref["k_per_sensor"]):
        problems.append(f"{len(k)} grid points, expected {len(ref['k_per_sensor'])}")
    if not all(math.isfinite(v) and v >= 0.0 for v in k.values()):
        problems.append("an m3 exponent is negative or not finite")
    if not all(_close(v, k.get((x3, x2), math.nan)) for (x2, x3), v in k.items()):
        problems.append("k(x2, x3) != k(x3, x2)")
    if payload["argmax_label"] not in _M3_LABELS:
        problems.append(f"unknown argmax label {payload['argmax_label']!r}")
    return problems


def _optimize_invariants(payload: dict) -> list[str]:
    field = payload["metadata"]["field"]
    problems = []
    for point in payload["curve"]:
        a, snr = point["a_star"], point["snr"]
        if not 0.0 < a < 1.0:
            problems.append(f"a* = {a} outside (0, 1) at SNR {snr}")
            continue
        params = FieldParams(diffusion_rate=field["diffusion_rate"],
                             stationary_variance=snr * field["noise_variance"],
                             noise_variance=field["noise_variance"])
        # Neighbours on the root search's 1e-3 grid, kept inside (0, 1).
        step = min(1e-3, a / 2.0, (1.0 - a) / 2.0)
        k_star = point["exponent_at_optimum"]
        for neighbour in (a - step, a + step):
            try:
                k = scalar_exponent_from_correlation(params, neighbour).exponent_per_sensor
            except NumericFailure as err:
                problems.append(f"neighbour a={neighbour} of a* fails: {err}")
                continue
            if k > k_star * (1.0 + REL_TOL):
                problems.append(f"exponent at a*={a} is below its neighbour a={neighbour}")
    return problems


def check(kind: str, key: str, rc: int, stdout: str, default_seed: bool,
          reference: dict) -> tuple[list[str], dict]:
    """Problems found in one command's output, and its summary."""
    if rc not in ((0, 1) if kind == "validate" else (0,)):
        return [f"exit code {rc}"], {}
    try:
        payload = json.loads(stdout)
        got = digest(kind, payload)
        summary = summarize(kind, payload)
    except (ValueError, KeyError, TypeError) as err:
        return [f"malformed output: {type(err).__name__}: {err}"], {}
    ref = reference[key]
    if kind == "validate":
        problems = _validate_invariants(rc, payload, ref)
    elif kind == "sweep-m3":
        problems = _m3_invariants(payload, ref)
    else:
        problems = _optimize_invariants(payload)
    if default_seed:
        problems += compare(kind, got, ref)
    return problems, summary
