"""The command line's schema validator against jsonschema.

Mutated copies of the shipped configs go through ``cli._check`` and through
``jsonschema.Draft202012Validator`` on the same schema.  The validator must
accept exactly what jsonschema accepts, except two classes it rejects on
purpose: a non-finite number (jsonschema's bounds let NaN through, and
infinity where there is no upper bound) and an integral float such as
``1e5`` for an integer key (jsonschema counts it as an integer; the integer
flags read ints only).
"""

import copy
import json
import math
import random
from pathlib import Path

import pytest
from jsonschema import Draft202012Validator, validators

from fieldexp.cli import _check
from fieldexp.field_model import experiment_schema

CONFIGS = [json.loads(p.read_text()) for p in
           sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))]
SCHEMA = experiment_schema()
TOP_KEYS = sorted(SCHEMA["properties"])
LAYOUT_KEYS = sorted({k for b in SCHEMA["$defs"]["layout"]["oneOf"] for k in b["properties"]})
LAYOUTS = [
    {"kind": "uniform", "spacing": 0.5},
    {"kind": "clustered", "cluster_size": 2, "period": 1.0},
    {"kind": "periodic", "offsets": [0.0, 0.5]},
]
# Keys no layout kind has: a layout is its gap pattern, with no repeat count.
COUNT_KEYS = ["count", "cluster_count", "period_count"]
# Valid and invalid values for every key: wrong types, booleans, lists (one
# repeating a value), objects, out-of-range and non-finite numbers, integral
# floats, and trial counts on either side of the estimator's floor.
VALUES = [True, False, None, "x", "json", "csv", "m3", "uniform", [], [1, 2], [0.5, 0.1],
          [0.5, 0.5], [0], [True], [1.0], ["a"], {}, {"kind": "uniform"}, 0, 1, 3, 7, -1,
          0.0, 0.5, 1.0, 2.0, 1e5, -0.5, 1e400, math.nan, 100_000, 9999, 10_000]

STRICT = validators.extend(
    Draft202012Validator,
    type_checker=Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool)),
)(SCHEMA)
PLAIN = Draft202012Validator(SCHEMA)


def has_non_finite(doc) -> bool:
    if isinstance(doc, dict):
        return any(has_non_finite(v) for v in doc.values())
    if isinstance(doc, list):
        return any(has_non_finite(v) for v in doc)
    return isinstance(doc, float) and not math.isfinite(doc)


def accepts(doc) -> bool:
    try:
        _check(doc, SCHEMA, repr, "config")
    except ValueError:
        return False
    return True


def mutate(doc: dict, rng: random.Random):
    """One random edit of ``doc`` in place; returns the document."""
    layout = doc.get("layout")
    move = rng.randrange(11)
    if move == 0:
        doc[rng.choice(TOP_KEYS)] = copy.deepcopy(rng.choice(VALUES))
    elif move == 1:
        doc.pop(rng.choice(sorted(doc) or ["layout"]), None)
    elif move == 2:
        doc[rng.choice(["bogus", "wavelength", "kind", "spacing", "snr"])] = 1.0
    elif move == 3:
        doc["layout"] = copy.deepcopy(rng.choice(LAYOUTS))
    elif move == 9:
        return copy.deepcopy(rng.choice(VALUES + [[doc]]))
    elif move == 10:  # the two classes: non-finite, and an integral float
        doc[rng.choice(TOP_KEYS)] = rng.choice([math.nan, math.inf, 2.0, 1e5])
    elif not isinstance(layout, dict):
        doc["layout"] = copy.deepcopy(rng.choice(LAYOUTS + VALUES))
    elif move in (4, 5):
        layout[rng.choice(LAYOUT_KEYS)] = copy.deepcopy(rng.choice(VALUES))
    elif move == 6:
        layout.pop(rng.choice(sorted(layout) or ["kind"]), None)
    elif move == 7:
        layout[rng.choice(["bogus", "radius", "alpha", *COUNT_KEYS])] = 1
    else:
        layout["kind"] = rng.choice([None, 1, True, ["uniform"], {"const": "uniform"},
                                     "ring", "Uniform", "uniform", "clustered", "periodic"])
    return doc


def mutants(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        doc = copy.deepcopy(rng.choice(CONFIGS))
        for _ in range(rng.randint(1, 3)):
            if not isinstance(doc, dict):
                break
            doc = mutate(doc, rng)
        yield doc


class TestAgainstJsonschema:
    def test_shipped_configs_pass(self):
        assert all(accepts(doc) and PLAIN.is_valid(doc) for doc in CONFIGS)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_mutated_configs(self, seed):
        seen = {"accepted": 0, "rejected": 0, "non-finite": 0, "integral float": 0}
        for doc in mutants(2000, seed):
            ours, plain = accepts(doc), PLAIN.is_valid(doc)
            expected = STRICT.is_valid(doc) and not has_non_finite(doc)
            assert ours == expected, doc
            assert plain or not ours, doc
            seen["accepted" if ours else "rejected"] += 1
            if plain and not ours:
                seen["non-finite" if has_non_finite(doc) else "integral float"] += 1
        # every class occurs, so neither side of the comparison is vacuous
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("doc, message", [
        ({"trials": 1e5}, "'trials' must be of type integer, got 100000.0"),
        ({"alpha": math.nan}, "'alpha' must be > 0 and < 1, got nan"),
        ({"alpha": math.inf}, "'alpha' must be > 0 and < 1, got inf"),
        ({"tolerance": math.inf}, "'tolerance' must be finite, got inf"),
        ({"tolerance": 10 ** 400}, f"'tolerance' must be finite, got {10 ** 400}"),
        ({"snr_values": [1.0, 1e400]}, "'snr_values' must be finite, got inf"),
        ({"seed": True}, "'seed' must be of type integer, got True"),
        ({"wavelength": 3.0}, "'wavelength' is not a key of 'config'"),
        ({"layout": {"spacing": 1.0}},
         "layout kind must be one of ['uniform', 'clustered', 'periodic'], got None"),
        ({"layout": {"kind": "uniform", "radius": 1.0}},
         "'radius' is not a key of layout kind 'uniform'"),
        ({"layout": {"kind": "periodic", "offsets": []}}, "'offsets' needs at least 1 value(s)"),
        ({"format": "xml"}, "'format' must be one of ['json', 'csv'], got 'xml'"),
        ({"check_alphas": {}}, "'check_alphas' must be of type array, got {}"),
        ({"check_alphas": [0.1, 0.2, 0.1]},
         "'check_alphas' must not repeat a value, got [0.1, 0.2, 0.1]"),
        ({"n_values": [20, 10, 10]}, "'n_values' must not repeat a value, got [20, 10, 10]"),
        ({"trials": 0}, "'trials' must be >= 10000, got 0"),
        ({"trials": 9999}, "'trials' must be >= 10000, got 9999"),
        ({"layout": {"kind": "uniform", "spacing": 1.0, "count": 80}},
         "'count' is not a key of layout kind 'uniform'"),
        ({"layout": {"kind": "clustered", "cluster_count": 50}},
         "'cluster_count' is not a key of layout kind 'clustered'"),
        ({"layout": {"kind": "periodic", "offsets": [1.0], "period_count": 2}},
         "'period_count' is not a key of layout kind 'periodic'"),
        ([], "'config' must be of type object, got []"),
    ])
    def test_messages(self, doc, message):
        with pytest.raises(ValueError) as err:
            _check(doc, SCHEMA, repr, "config")
        assert str(err.value) == message
