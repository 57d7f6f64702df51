"""Command-line front end.

Subcommands: ``exponent`` (closed forms per layout), ``optimize`` (optimal
spacing below unit SNR), ``sweep`` (figure-data generation), ``simulate``
(Monte Carlo miss probabilities), ``validate`` (closed form vs. Monte Carlo).
Each command's flags are declared once, as data: its row of schema keys in
``_SUBCOMMANDS``, each flag named after its key, and ``_HELP``.
:func:`_flags` reads every flag's type and choices from the config schema;
only ``--config`` and the SNR flags set no schema key.  :func:`_parse_args`
reads every argv that runs a command from that table, and a parse error is a
configuration error like any other.  argparse, built from the same table,
only prints ``--help`` and ``--version``.  The reader knows flags only: a
rule between keys is checked once, after parsing, by :func:`_resolve`.

Every value a command uses is resolved once, by :func:`_resolve`, into one
mapping keyed by schema key: the flag, then the ``--config`` file, then the
default.  ``--snr``/``--snr-db`` set the noise variance as its flag would.
Layout flags, one period's gaps and no sensor count, overlay the file's layout
when ``--layout`` is absent or names the file's kind, and replace it when
``--layout`` names another kind.  One validator, :func:`_check`, holds the
file and the flags to the schema; a file may omit what flags supply, and a
value found nowhere is an error naming its flag.  Each command and sweep axis
requires only the keys it reads; a sweep axis is one row of ``_AXES``, its
sweep keys, its field flags and its solve, and ``sweep`` rejects a sweep or
field flag its axis does not read.  The SNR flags conflict with each other,
with ``--noise-variance`` and with ``--snr-db-grid``.

The library modules return results only.  Each command returns its exit
code, its JSON document and its CSV columns, and formats nothing; ``main``
writes the one ``--format`` names, to stdout or ``--out``.
:func:`_json_dump` writes the document: the bytes of
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=True)`` and a newline,
without json's pure-Python encoder, as one join of a list of pieces.  It
raises TypeError for a dict key that is not a str or a value outside str,
int, float, bool, None, list, tuple and dict (subclasses included).  A
sweep's value rows are a private :class:`_Table` of float64 columns, which
json itself refuses.  :func:`_csv` writes the columns.  Both format each
distinct float of a float64 column once.  The error line on stderr is
``json.dumps`` in its compact form.

Every default lives here alone, the Monte Carlo ones included: the library
takes every grid, trial count, seed, check size and tolerance it runs.
``simulate`` and ``validate`` run one Monte Carlo worker per CPU the process
may use (``taskset``, a cpuset); their outputs do not depend on that count.
``approx_miss_prob`` = exp(-n_ref k) is a column of ``sweep``, at the
reference sensor count ``--n-ref``.

Importing this module loads numpy, ``errors``, ``field_model``,
``kalman_exponent`` and ``config_opt``; ``import fieldexp`` loads none of
them.  ``simulate`` and ``validate`` import ``mc_detector``, and with it
``numpy.random``, when they run, so ``exponent``, ``optimize`` and ``sweep``
never compile or load the Monte Carlo.  The closed-form modules stay imported
here: imported inside a command, their compile lands in its run.

Exit codes: 0 success, 1 validation-check failure, 2 configuration error,
3 numeric failure.  Errors are emitted as JSON on stderr.  Outputs are
byte-identical for identical configuration and seed.
"""

from __future__ import annotations

import json
import math
import operator
import os
import sys
from types import MappingProxyType

import numpy as np

from . import __version__
from .errors import NumericFailure
from .field_model import FieldParams, Periodic, experiment_schema, layout_from_dict, layout_to_dict
from . import config_opt, kalman_exponent


# The dests of each command's flags, in help order.
_SNR_FLAGS = ("stationary_variance", "noise_variance", "snr", "snr_db")
_FIELD_FLAGS = ("diffusion_rate", *_SNR_FLAGS)
_FIELD = ("config", *_FIELD_FLAGS)
_LAYOUT = ("layout", "spacing", "cluster_size", "period", "offsets")
_OUTPUT = ("out", "format")
_MONTE_CARLO = ("alpha", "trials", "n_values", "seed")


def _rate_snr(cfg) -> tuple[float, float]:
    """The diffusion rate and the SNR, which a layout sweep reads."""
    return float(cfg["diffusion_rate"]), _field_snr(cfg)


# Each sweep axis, in the schema's order: the sweep keys it reads besides
# n_ref, the field flags it reads, and its solve, which reads their keys only
# and looks its sweep up on config_opt when called, so a patched sweep runs.
_AXES = {
    "a": (("grid_points",), _SNR_FLAGS, lambda cfg: config_opt.correlation_sweep(
        _field_snr(cfg), np.linspace(0.0, 1.0, cfg["grid_points"]))),
    "snr": (("correlation", "grid_points"), (), lambda cfg: config_opt.snr_sweep(
        cfg["correlation"], cfg.get("snr_values", np.logspace(-2, 2, cfg["grid_points"])))),
    "cluster": (("field_length", "n_total", "sizes"), _FIELD_FLAGS, lambda cfg: (
        config_opt.cluster_size_sweep(*_rate_snr(cfg), cfg["field_length"], cfg["n_total"],
                                      cfg["sizes"]))),
    "delta1": (("period", "grid_points"), _FIELD_FLAGS, lambda cfg: config_opt.offset_sweep_m2(
        *_rate_snr(cfg), cfg["period"], cfg["grid_points"])),
    "m3": (("period", "grid_points"), _FIELD_FLAGS, lambda cfg: config_opt.offset_sweep_m3(
        *_rate_snr(cfg), cfg["period"], cfg["grid_points"])),
}
# Every axis's keys, in order of first appearance.
_AXIS_KEYS = dict.fromkeys(key for keys, *_ in _AXES.values() for key in keys)

# Each subcommand's help text and its flags.
_SUBCOMMANDS = {
    "exponent": ("closed-form exponent of one layout", (*_FIELD, *_LAYOUT, *_OUTPUT)),
    "optimize": ("optimal spacing for 0 < SNR < 1", (*_FIELD, *_OUTPUT, "snr_db_grid")),
    "sweep": ("exponent over a parameter grid",
              (*_FIELD, *_OUTPUT, "axis", *_AXIS_KEYS, "n_ref")),
    "simulate": ("Monte Carlo miss probabilities", (*_FIELD, *_LAYOUT, *_OUTPUT, *_MONTE_CARLO)),
    "validate": ("closed form vs. Monte Carlo decay rate",
                 (*_FIELD, *_LAYOUT, *_OUTPUT, *_MONTE_CARLO, "tolerance", "check_alphas")),
}

# The help text of each flag that has one.
_HELP = {
    "config": "JSON configuration file",
    "snr": "linear SNR (sets noise variance)",
    "snr_db": "SNR in dB",
    "offsets": "comma-separated intra-period gaps",
    "out": "output path, '-' for stdout",
    "snr_db_grid": "start:stop:num dB grid for a spacing curve",
    "grid_points": "default: 201, or 61 for --axis m3",
    "sizes": "comma-separated cluster sizes",
    "n_ref": "reference sensor count for approx_miss_prob "
             "(default: 1, or n_total for --axis cluster)",
    "correlation": "fixed correlation for --axis snr",
    "n_values": "comma-separated sensor counts",
    "check_alphas": "comma-separated sizes for the rate-independence "
                    "check; empty string disables it",
}

# The flags that set no schema key, by the schema type of their value.
_OTHER_FLAGS = {"config": {}, "snr": {"type": "number"}, "snr_db": {"type": "number"},
                "snr_db_grid": {}}
# The type a flag's text converts to, by its schema type; any other is a str.
_PYTHON_TYPES = {"integer": int, "number": float}


def _key_specs(schema: dict) -> dict:
    """The schema of every key, the top level's first, then the layout's."""
    specs = dict(schema["properties"])
    for branch in schema["$defs"]["layout"]["oneOf"]:
        for key, spec in branch["properties"].items():
            specs.setdefault(key, spec)
    return specs


def _flags(command: str) -> dict:
    """``{option: (dest, type, choices)}`` of ``command``'s flags, in help
    order; a flag's value converts by ``type`` and is one of ``choices``.
    The schema gives both: a number is a float, an integer an int, a list one
    comma-separated str; the choices are an ``enum``, or the layout kinds.  A
    rule between flags is :func:`_resolve`'s, not the parser's."""
    schema = experiment_schema()
    specs = {**_key_specs(schema), **_OTHER_FLAGS}
    kinds = [b["properties"]["kind"]["const"] for b in schema["$defs"]["layout"]["oneOf"]]
    flags = {}
    for dest in _SUBCOMMANDS[command][1]:
        if dest not in specs:
            raise LookupError(f"flag dest {dest!r} of {command!r} is no schema key "
                              f"and not one of {list(_OTHER_FLAGS)}")
        spec = specs[dest]
        choices = kinds if "$ref" in spec else spec.get("enum")
        flags[_flag(dest)] = (dest, _PYTHON_TYPES.get(spec.get("type"), str), choices)
    return flags


def _build_parser():
    """The argparse parser of every command and flag; it only prints
    ``--help`` and ``--version``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fieldexp",
        description="Error exponents for detection of a correlated field "
                    "under sensor activation configurations",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (descr, _) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=descr)
        for option, (dest, typ, choices) in _flags(name).items():
            p.add_argument(option, type=typ, choices=choices, help=_HELP.get(dest))
    return parser


def _parse_args(argv) -> dict:
    """``{"command": ..., dest: value or None}`` of a command and its
    ``--flag=VALUE`` or ``--flag VALUE`` words: a flag may be a prefix of one
    flag only, and a value has its flag's type and choices and, as a word of
    its own, does not start with "--".  ValueError for any other argv."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        got = repr(argv[0]) if argv else "nothing"
        raise ValueError(f"expected a command ({', '.join(_SUBCOMMANDS)}), got {got}")
    flags = _flags(argv[0])
    args = {"command": argv[0], **{dest: None for dest, *_ in flags.values()}}
    words = iter(argv[1:])
    for word in words:
        name, eq, value = word.partition("=")
        if not name.startswith("--") or name == "--":
            raise ValueError(f"expected a --flag, got {word!r}")
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        if len(matches) != 1:
            raise ValueError(f"{name} is ambiguous: one of {', '.join(matches)}" if matches
                             else f"{argv[0]} has no flag {name}")
        dest, convert, choices = flags[matches[0]]
        if not eq:
            value = next(words, None)
        if value is None or value == "--" or not eq and value.startswith("--"):
            raise ValueError(f"{_flag(dest)} needs a value" + (f", got {value!r}" if value else ""))
        try:
            value = convert(value)
        except ValueError:
            raise ValueError(f"{_flag(dest)} must be of type {convert.__name__}, "
                             f"got {value!r}") from None
        if choices is not None and value not in choices:
            raise ValueError(f"{_flag(dest)} must be one of {choices}, got {value!r}")
        args[dest] = value
    return args


def _load_config(args: dict) -> dict:
    """The --config document; an invalid key is named with its flag, if any."""
    if args["config"] is None:
        return {}
    with open(args["config"]) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config is not valid JSON: {err}") from err
    try:
        _check(doc, experiment_schema(), lambda key: f"{key!r} ({_flag(key)})"
               if key in args else repr(key), args["config"])
    except ValueError as err:
        raise ValueError(f"invalid configuration: {err}") from None
    return doc


# Defaults of the keys the command has a flag for; a callable computes one
# from the values resolved before it, in this order.
_DEFAULTS = {
    "stationary_variance": 1.0,
    "format": "json",
    "out": "-",
    "alpha": 0.1,
    "trials": 100_000,
    "seed": 20260810,
    "field_length": 1.0,
    "sizes": (1, 2, 4, 5, 10),
    "n_total": 100,
    "n_ref": lambda cfg: cfg["n_total"] if cfg.get("axis") == "cluster" else 1,
    "grid_points": lambda cfg: 61 if cfg.get("axis") == "m3" else 201,
}

# The exponential regime's rate checks and their defaults; the polynomial
# regime rejects these keys.
_RATE_CHECKS = {"tolerance": 0.2, "check_alphas": (0.05, 0.2)}

# The FieldParams keys, in its order.
_FIELD_KEYS = ("diffusion_rate", "stationary_variance", "noise_variance")

_BOUNDS = (("minimum", operator.ge, ">="), ("exclusiveMinimum", operator.gt, ">"),
           ("maximum", operator.le, "<="), ("exclusiveMaximum", operator.lt, "<"))
_TYPES = {"object": dict, "array": list, "string": str, "integer": int, "number": (int, float)}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Values(dict):
    """Resolved values by schema key; reading a missing one names its flag."""

    def __missing__(self, key):
        raise ValueError(f"{_flag(key)} (or the config file's {key!r}) is required")


def _check(value, spec: dict, name, key=None) -> None:
    """Raise ValueError, naming a failing value ``name(key)``, unless ``value``
    meets the schema ``spec``, in the keywords experiment.schema.json uses:
    ``$ref``; ``type`` (a bool is no number, an integer is an int as its flag
    reads it); ``enum``; bounds, which NaN fails, then the float range;
    ``minItems``; ``items``; ``uniqueItems`` (of numbers); ``properties``
    with no other keys; and the layout ``oneOf``, whose branch the string
    ``kind`` picks by its ``const``."""
    if "$ref" in spec:
        spec = experiment_schema()["$defs"][spec["$ref"].rpartition("/")[2]]
    typ, where = spec.get("type"), None
    if typ and (isinstance(value, bool) or not isinstance(value, _TYPES[typ])):
        raise ValueError(f"{name(key)} must be of type {typ}, got {value!r}")
    if "oneOf" in spec:
        branches = {b["properties"]["kind"]["const"]: b for b in spec["oneOf"]}
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in branches:
            raise ValueError(f"layout kind must be one of {list(branches)}, got {kind!r}")
        spec, where = branches[kind], f"layout kind {kind!r}"
    if typ == "object":
        for k, v in value.items():
            if k not in spec["properties"]:
                raise ValueError(f"{name(k)} is not a key of {where or name(key)}")
            _check(v, spec["properties"][k], name, k)
    elif typ == "array":
        if len(value) < spec.get("minItems", 0):
            raise ValueError(f"{name(key)} needs at least {spec['minItems']} value(s)")
        for item in value:
            _check(item, spec["items"], name, key)
        if spec.get("uniqueItems") and len(set(value)) < len(value):
            raise ValueError(f"{name(key)} must not repeat a value, got {value!r}")
    bounds = [(ok, sign, spec[word]) for word, ok, sign in _BOUNDS if word in spec]
    if "enum" in spec:
        wanted, met = f"one of {spec['enum']}", value in spec["enum"]
    else:
        wanted = "a positive integer" if spec == {"type": "integer", "minimum": 1} \
            else " and ".join(f"{sign} {limit}" for _, sign, limit in bounds)
        met = all(ok(value, limit) for ok, _, limit in bounds)
    if not met:
        raise ValueError(f"{name(key)} must be {wanted}, got {value!r}")
    if typ in ("number", "integer") and not abs(value) <= sys.float_info.max:
        wanted = "finite" if typ == "number" else f"at most {sys.float_info.max!r} in magnitude"
        raise ValueError(f"{name(key)} must be {wanted}, got {value!r}")


def _snr(key: str, value: float) -> float:
    """Linear SNR from a value of --snr, or in dB of --snr-db or --snr-db-grid;
    it must be finite and > 0, also after the dB conversion (which can
    overflow or underflow to 0)."""
    snr = value
    if key != "snr":
        try:
            snr = 10.0 ** (value / 10.0)
        except OverflowError:
            snr = math.inf
    if not (math.isfinite(snr) and snr > 0.0):
        raise ValueError(f"SNR must be finite and > 0, got {snr!r} from {_flag(key)} {value!r}")
    return snr


def _parse_grid(text: str) -> list[tuple[float, float]]:
    """``start:stop:num`` of --snr-db-grid as (dB, linear SNR) pairs.  The dB
    values are ``np.linspace(start, stop, num)``'s, by its own arithmetic in
    Python floats: i * (delta / div) + start, or (i / div) * delta + start
    where that step underflows to 0, and the last point is ``stop``."""
    try:
        start, stop, num = text.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError:
        num = 0
    if num < 1:
        raise ValueError(f"--snr-db-grid must be start:stop:num with num >= 1, got {text!r}")
    for db in (start, stop):
        _snr("snr_db_grid", db)
    delta, div = stop - start, max(num - 1, 1)
    step = delta / div
    dbs = [(i / div) * delta + start if step == 0.0 else i * step + start for i in range(num)]
    if num > 1:
        dbs[-1] = stop
    return [(db, _snr("snr_db_grid", db)) for db in dbs]


def _resolve(args: dict, doc: dict) -> MappingProxyType:
    """Every value the command reads, keyed by schema key (the parsed
    --snr-db-grid by its dest): the flag in ``args``, then the config file
    ``doc``, then the default.  The flags, with the layout they complete,
    meet the schema."""
    schema = experiment_schema()
    flags = {k: v for k, v in args.items()
             if v is not None and k not in ("command", "config")}
    for key, spec in _key_specs(schema).items():
        if key in flags and spec.get("type") == "array":
            parse = _PYTHON_TYPES[spec["items"]["type"]]
            try:
                flags[key] = [parse(x) for x in flags[key].split(",") if x.strip()]
            except ValueError:
                raise ValueError(f"{_flag(key)} must be comma-separated {parse.__name__} "
                                 f"values, got {flags[key]!r}") from None
    grid = flags.pop("snr_db_grid", None)
    given = [k for k in ("snr", "snr_db") if k in flags]
    if len(given) == 2:
        raise ValueError("give either --snr or --snr-db, not both")
    if grid is not None and given:
        raise ValueError(f"give either {_flag(given[0])} or --snr-db-grid, not both")
    snr = next((_snr(k, flags.pop(k)) for k in ("snr", "snr_db") if k in flags), None)
    if snr is not None and "noise_variance" in flags:
        raise ValueError("give either an SNR or a noise variance, not both")

    cfg = _Values(doc)
    if "layout" in args:
        layout = doc.get("layout", {})
        kind = flags.pop("layout", layout.get("kind"))
        if kind != layout.get("kind"):
            layout = {"kind": kind}
        overlay = {k: flags.pop(k) for k in _LAYOUT[1:] if k in flags}
        if layout or overlay:
            flags["layout"] = _Values(layout, **overlay)
    _check(flags, schema, _flag)
    cfg.update(flags)
    if "grid_points" in flags:  # the flag's SNR grid replaces the file's
        cfg.pop("snr_values", None)
    if args["command"] == "sweep" and "axis" in cfg:
        keys, field, _ = _AXES[cfg["axis"]]
        unread = sorted(k for k in {*_AXIS_KEYS, *_FIELD_FLAGS} - {*keys, *field}
                        if args[k] is not None)
        if unread:
            raise ValueError(f"--axis {cfg['axis']} does not read "
                             f"{', '.join(map(_flag, unread))}")
    if grid is not None:
        cfg["snr_db_grid"] = _parse_grid(grid)
    for key, default in _DEFAULTS.items():
        if key in args and key not in cfg:
            cfg[key] = default(cfg) if callable(default) else default
    if snr is not None:  # may overflow or underflow to 0
        cfg["noise_variance"] = variance = cfg["stationary_variance"] / snr
        if not (math.isfinite(variance) and variance > 0.0):
            raise ValueError(f"noise variance must be finite and > 0, got {variance!r} from "
                             f"--stationary-variance {cfg['stationary_variance']!r} and "
                             f"{_flag(given[0])} {args[given[0]]!r}")
    ratio = _field_snr(cfg) if "noise_variance" in cfg else 1.0  # may overflow or underflow
    if not (math.isfinite(ratio) and ratio > 0.0):
        raise ValueError(f"SNR must be finite and > 0, got {ratio!r} from --stationary-variance "
                         f"{cfg['stationary_variance']!r} / --noise-variance "
                         f"{cfg['noise_variance']!r}")
    return MappingProxyType(cfg)


class _Table:
    """A list of dicts held by column: ``columns`` maps each key to a float64
    array (2-D for a list per row) with one entry per row, which
    :func:`_json_dump` writes as the list ``[dict(zip(columns, row)) for row
    in zip(*(c.tolist() for c in columns.values()))]`` would be."""

    def __init__(self, columns: dict):
        self.columns = columns


# The types json writes, in the order its encoder tests them: an instance of
# a subclass, such as np.float64, is written as its first base here.
_JSON_TYPES = (str, int, float, list, tuple, dict)
_EXACT_TYPES = {*_JSON_TYPES, bool, type(None), _Table}
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_texts(values: np.ndarray, nonfinite: dict) -> np.ndarray:
    """The repr of each float of ``values``, or its ``nonfinite`` entry (nan,
    +-inf), as an object array of its shape, made once per bit pattern."""
    bits, inverse = np.unique(np.asarray(values, float).view(np.uint64),
                              return_inverse=True)
    texts = [nonfinite.get(t, t) for t in map(float.__repr__, bits.view(float).tolist())]
    return np.array(texts, object)[inverse].reshape(values.shape)


def _json_dump(payload: dict) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True, allow_nan=True)`` and a
    newline, byte for byte; before Python 3.13 json encodes in pure Python
    whenever ``indent`` is set.  Every piece goes into one list that is
    joined once, so no large text is copied by a concatenation.  A
    :class:`_Table`'s float64 array columns take their texts from one
    :func:`_float_texts` call.  Raises TypeError as the module docstring
    says."""
    string = json.encoder.encode_basestring_ascii
    parts = []
    put = parts.append

    def table(columns, pad):
        rows = len(next(iter(columns.values()), ()))
        if not rows:
            return put("[]")
        inner, cell, item = pad + "  ", pad + "    ", pad + "      "
        keys = sorted(columns)
        slots = []
        for key in keys:  # "\0" marks a text: json escapes a NUL
            values, slot = columns[key], "\0"
            if values.ndim == 2:
                slot = "[" + item + ("," + item).join("\0" * values.shape[1]) + cell + "]" \
                    if values.shape[1] else "[]"
            slots.append(string(key) + ": " + slot)
        literals = ("{" + cell + ("," + cell).join(slots) + inner + "}").split("\0")
        out = np.empty((rows, 2 * len(literals) - 1), object)
        out[:, 0::2] = literals
        out[:, 1::2] = _float_texts(np.hstack([columns[k].reshape(rows, -1) for k in keys]),
                                    _NONFINITE)
        out[:-1, -1] = literals[-1] + "," + inner
        put("[" + inner)
        parts.extend(out.ravel().tolist())
        put(pad + "]")

    def write(o, pad):
        kind = type(o)
        if kind not in _EXACT_TYPES:
            kind = next((base for base in _JSON_TYPES if isinstance(o, base)), None)
        if kind is float:
            text = float.__repr__(o)
            return put(_NONFINITE.get(text, text))
        inner = pad + "  "
        if kind is dict:
            if not o:
                return put("{}")
            sep = "{" + inner
            for key, value in sorted(o.items()):
                put(sep + string(key) + ": ")
                write(value, inner)
                sep = "," + inner
            return put(pad + "}")
        if kind is list or kind is tuple:
            if not o:
                return put("[]")
            sep = "[" + inner
            for value in o:
                put(sep)
                write(value, inner)
                sep = "," + inner
            return put(pad + "]")
        if kind is _Table:
            return table(o.columns, pad)
        if kind is str:
            return put(string(o))
        if kind is int:
            return put(int.__repr__(o))
        if kind is bool:
            return put("true" if o else "false")
        if o is None:
            return put("null")
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    write(payload, "\n")
    put("\n")
    return "".join(parts)


def _csv(columns: dict) -> str:
    """The header line of ``columns``' keys, then one line per row: a float64
    array column's fields from :func:`_float_texts`, any other column's from
    str(), which is repr for a float.  No field the commands write needs
    quoting."""
    fields = [_float_texts(c, {}) if isinstance(c, np.ndarray) and c.dtype == np.float64
              else map(str, c) for c in columns.values()]
    return "".join(",".join(line) + "\n" for line in (columns, *zip(*fields)))


def _meta(cfg, keys=_FIELD_KEYS, **extra) -> dict:
    """The document's metadata, with the field ``keys`` the command read;
    only ``--format json`` writes the document."""
    field = {k: float(cfg[k]) for k in keys if k in cfg}
    return {"version": __version__, "field": field, "format": "json", **extra}


def _model(cfg) -> tuple[FieldParams, Periodic]:
    """The field parameters and the layout of ``cfg``."""
    return FieldParams(*(float(cfg[k]) for k in _FIELD_KEYS)), layout_from_dict(cfg["layout"])


def _field_snr(cfg) -> float:
    """The SNR by the division FieldParams.snr() makes."""
    return float(cfg["stationary_variance"]) / float(cfg["noise_variance"])


def _cmd_exponent(cfg) -> tuple[int, dict, dict]:
    params, layout = _model(cfg)
    res = kalman_exponent.vector_exponent(params, layout)
    doc = {
        "exponent_per_sensor": res.exponent_per_sensor,
        "exponent_per_block": res.exponent_per_block,
        "innovations": [dict(vars(inn)) for inn in res.innovations],
        "layout": layout_to_dict(layout),
        "diagnostics": {**res.diagnostics, "sensors_per_period": len(layout.offsets),
                        "period": layout.period},
        "metadata": _meta(cfg),
    }
    return 0, doc, {key: [doc[key]] for key in ("exponent_per_sensor", "exponent_per_block")}


def _cmd_optimize(cfg) -> tuple[int, dict, dict]:
    rate, grid = float(cfg["diffusion_rate"]), cfg.get("snr_db_grid")
    snrs = [_field_snr(cfg)] if grid is None else [snr for _, snr in grid]
    curve = config_opt.optimal_spacing_curve(rate, snrs)
    if grid is None:
        doc, columns = vars(curve[0]), {"snr": snrs}
    else:
        doc = {"curve": [{"snr": snr, **vars(res)}
                         for snr, res in zip(snrs, curve)]}
        columns = {"snr": snrs, "snr_db": [db for db, _ in grid]}
    columns.update(a_star=[res.a_star for res in curve],
                   delta_star=[res.delta_star for res in curve],
                   k_at_optimum=[res.exponent_at_optimum for res in curve])
    return 0, {**doc, "metadata": _meta(cfg)}, columns


def _cmd_sweep(cfg) -> tuple[int, dict, dict]:
    _, field, solve = _AXES[cfg["axis"]]
    result, n_ref = solve(cfg), cfg["n_ref"]
    values = {"k_per_sensor": result.k_per_sensor, "k_per_block": result.k_per_block,
              "approx_miss_prob": np.exp(-n_ref * result.k_per_sensor)}
    doc = {
        "axis": result.axis,
        "n_ref": n_ref,
        "values": _Table({"grid": result.points, **values}),
        "argmax": result.argmax,
        "argmax_label": result.argmax_label,
        "metadata": {**result.metadata,
                     **_meta(cfg, [k for k in _FIELD_KEYS if k in field])},
    }
    grid = result.points.reshape(len(result.k_per_sensor), -1)
    columns = dict(zip(("x2", "x3") if result.axis == "m3" else (result.axis,), grid.T))
    return 0, doc, {**columns, **values,
                    "is_argmax": np.all(grid == result.argmax, axis=1).astype(int)}


def _counts_columns(est) -> dict:
    """Raw per-n counts of one estimate, for external re-analysis."""
    return {"n": est.n_values, "trials": [est.trials] * len(est.n_values),
            "threshold": est.threshold_per_n, "misses": est.miss_counts,
            "miss_prob": [p for p, _ in est.miss_prob],
            "ci95_half": [h for _, h in est.miss_prob]}


def _estimate_doc(est) -> dict:
    return {
        "alpha": est.alpha,
        "trials": est.trials,
        "seed": est.seed,
        "n_values": est.n_values,
        "threshold_per_n": est.threshold_per_n,
        "miss_prob": [{"n": n, "estimate": p, "ci95_half": h, "misses": c}
                      for n, (p, h), c in zip(est.n_values, est.miss_prob, est.miss_counts)],
        "fitted_rate": est.fitted_rate,
        "fitted_rate_stderr": est.fitted_rate_stderr,
        "fitted_intercept": est.fitted_intercept,
        "fit_n_used": est.fit_n_used,
    }


def _sensor_counts(cfg, params, layout, k_closed=None) -> list[int]:
    """The --n-values sensor counts, else the auto grid of the per-sensor
    closed form, solved here unless ``k_closed`` gives it."""
    from . import mc_detector

    if "n_values" in cfg:
        return cfg["n_values"]
    if k_closed is None:
        k_closed = kalman_exponent.vector_exponent(params, layout).exponent_per_sensor
    return mc_detector.auto_n_values(k_closed, len(layout.offsets), cfg["trials"])


def _cpus() -> int:
    """The CPUs this process may use: the Monte Carlo's worker count."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _cmd_simulate(cfg) -> tuple[int, dict, dict]:
    from . import mc_detector

    params, layout = _model(cfg)
    est = mc_detector.estimate_miss_probability(
        params, layout, cfg["alpha"], _sensor_counts(cfg, params, layout), cfg["trials"],
        cfg["seed"], workers=_cpus())
    doc = {**_estimate_doc(est), "metadata": _meta(cfg, layout=layout_to_dict(layout))}
    return 0, doc, _counts_columns(est)


def _cmd_validate(cfg) -> tuple[int, dict, dict]:
    from . import mc_detector

    params, layout = _model(cfg)
    k_closed = kalman_exponent.vector_exponent(params, layout).exponent_per_sensor
    if mc_detector.polynomial_regime(k_closed):
        for key in _RATE_CHECKS:
            if key in cfg:
                raise ValueError(
                    f"{_flag(key)} (or the config file's {key!r}) does not apply: the "
                    f"closed-form exponent {k_closed!r} is in the "
                    "polynomial regime, which checks the decay's log-log slope instead")
    alpha = cfg["alpha"]
    checks = {key: cfg.get(key, default) for key, default in _RATE_CHECKS.items()}
    report = mc_detector.validate_exponent(
        params, layout, alpha, k_closed, _sensor_counts(cfg, params, layout, k_closed),
        cfg["trials"], cfg["seed"], checks["check_alphas"], checks["tolerance"],
        _cpus())
    doc = {
        **vars(report),
        "alpha_rates": {repr(a): {"rate": r, "stderr": s}
                        for a, (r, s) in report.alpha_rates.items()},
        "estimates": {repr(a): _estimate_doc(e) for a, e in report.estimates.items()},
        "budget": {"trials": cfg["trials"], "n_values": cfg.get("n_values"),
                   "check_alphas": checks["check_alphas"], "rel_tol": checks["tolerance"],
                   "poly_tol": mc_detector.POLY_TOL, "seed": cfg["seed"]},
        "metadata": _meta(cfg, layout=layout_to_dict(layout)),
    }
    return 0 if report.passed else 1, doc, _counts_columns(report.estimates[alpha])


_COMMANDS = {
    "exponent": _cmd_exponent,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "validate": _cmd_validate,
}


def classify_exit(err: BaseException) -> int:
    """Exit code for an exception: 2 for configuration errors, a grid too
    large for memory included, 3 numeric."""
    if isinstance(err, NumericFailure):
        return 3
    if isinstance(err, (ValueError, KeyError, TypeError, OSError, MemoryError)):
        return 2
    raise err


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if {"-h", "--help"} & {*argv} or argv[:1] == ["--version"]:  # argparse prints, exits
        words = argv[:1] if argv[0] in (*_SUBCOMMANDS, "--version") else []
        _build_parser().parse_args([*words, "--help"])
    try:
        args = _parse_args(argv)
        cfg = _resolve(args, _load_config(args))
        code, doc, columns = _COMMANDS[args["command"]](cfg)
        text = _csv(columns) if cfg["format"] == "csv" else _json_dump(doc)
        if cfg["out"] == "-":
            sys.stdout.write(text)
        else:
            with open(cfg["out"], "w") as fh:
                fh.write(text)
        return code
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
