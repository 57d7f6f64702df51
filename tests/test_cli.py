import argparse
import collections
import contextlib
import enum
import io
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import fieldexp
from fieldexp import cli, config_opt, mc_detector
from fieldexp.field_model import experiment_schema

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def exponent(capsys, *argv):
    code, out, err = run(capsys, "exponent", *argv)
    assert code == 0, err
    return json.loads(out)


class TestParamsPrecedence:
    def test_snr_flag_overrides_config_noise_variance(self, capsys):
        doc = exponent(capsys, "--config", str(CONFIGS / "iid.json"), "--snr", "2")
        assert doc["metadata"]["field"]["noise_variance"] == 0.5

    def test_snr_db_flag_overrides_config_noise_variance(self, capsys):
        doc = exponent(capsys, "--config", str(CONFIGS / "iid.json"), "--snr-db", "10")
        assert doc["metadata"]["field"]["noise_variance"] == pytest.approx(0.1)

    def test_config_noise_variance_used_without_flags(self, capsys):
        doc = exponent(capsys, "--config", str(CONFIGS / "iid.json"))
        assert doc["metadata"]["field"]["noise_variance"] == 1.0

    def test_explicit_noise_variance_and_snr_conflict(self, capsys):
        code, out, err = run(capsys, "exponent", "--config", str(CONFIGS / "iid.json"),
                             "--noise-variance", "2", "--snr", "2")
        assert code == 2
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        assert "not both" in error["message"]


FIELD = ("--diffusion-rate", "1", "--stationary-variance", "1", "--snr", "2")
SNR_FIELD = FIELD[2:]  # the field flags of a sweep over the correlation a
LAYOUTS = {
    "uniform": (("--layout", "uniform", "--spacing", "0.5"), 1),
    "clustered": (("--layout", "clustered", "--cluster-size", "3", "--period", "1.0"), 3),
    "periodic": (("--layout", "periodic", "--offsets", "0.1,0.0,0.4"), 3),
}


class TestExponent:
    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    def test_one_innovations_entry_per_sensor(self, capsys, kind):
        layout, per_period = LAYOUTS[kind]
        doc = exponent(capsys, *FIELD, *layout)
        assert len(doc["innovations"]) == per_period
        assert set(doc["innovations"][0]) == {"p", "r_e", "r_e_tilde", "gain"}
        assert doc["exponent_per_block"] == pytest.approx(
            per_period * doc["exponent_per_sensor"])
        assert doc["exponent_per_sensor"] > 0.0
        assert "block_model_per_sensor" not in doc
        assert "closed_form_difference" not in doc

    def test_periodic_layout_at_zero_diffusion_rate(self, capsys):
        doc = exponent(capsys, "--diffusion-rate", "0", "--stationary-variance", "1",
                       "--noise-variance", "1", *LAYOUTS["periodic"][0])
        assert doc["exponent_per_sensor"] == 0.0
        assert doc["exponent_per_block"] == 0.0

    def test_missing_layout_is_a_configuration_error(self, capsys):
        code, _, err = run(capsys, "exponent", *FIELD)
        assert code == 2
        assert json.loads(err)["error"]["exit_code"] == 2

    def test_csv_matches_json(self, capsys):
        layout = LAYOUTS["periodic"][0]
        doc = exponent(capsys, *FIELD, *layout)
        code, out, _ = run(capsys, "exponent", *FIELD, *layout, "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header == "exponent_per_sensor,exponent_per_block"
        assert [float(x) for x in row.split(",")] == \
            [doc["exponent_per_sensor"], doc["exponent_per_block"]]


    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_layout_echoed_unchanged(self, capsys, path):
        doc = exponent(capsys, "--config", str(path))
        assert doc["layout"] == json.loads(path.read_text())["layout"]

    @pytest.mark.parametrize("kind", sorted(LAYOUTS))
    def test_diagnostics_keys_do_not_depend_on_the_kind(self, capsys, kind):
        doc = exponent(capsys, *FIELD, *LAYOUTS[kind][0])
        assert set(doc["diagnostics"]) == {"residual", "sensors_per_period", "period"}
        assert doc["diagnostics"]["sensors_per_period"] == LAYOUTS[kind][1]
        assert doc["diagnostics"]["period"] == pytest.approx(
            {"uniform": 0.5, "clustered": 1.0, "periodic": 0.5}[kind], abs=1e-15)
        assert doc["diagnostics"]["residual"] < 1e-12

    @pytest.mark.parametrize("kind, key", [
        (branch["properties"]["kind"]["const"], key)
        for branch in experiment_schema()["$defs"]["layout"]["oneOf"]
        for key in branch["properties"] if key != "kind"])
    def test_every_layout_key_changes_a_computed_field(self, capsys, tmp_path, kind, key):
        # a key that only the layout echo reads is neither used nor rejected
        (branch,) = (b for b in experiment_schema()["$defs"]["layout"]["oneOf"]
                     if b["properties"]["kind"]["const"] == kind)
        start = {"integer": 2, "number": 0.5, "array": [0.2, 0.5]}
        layout = {k: start[spec["type"]] for k, spec in branch["properties"].items()
                  if k != "kind"}
        old = layout[key]
        new = [*old[:-1], old[-1] + 0.2] if isinstance(old, list) else old + 1
        path = tmp_path / "config.json"
        computed = []
        for value in (old, new):
            path.write_text(json.dumps({**PARAMS_DOC, "layout": {**layout, "kind": kind,
                                                                 key: value}}))
            doc = exponent(capsys, "--config", str(path))
            computed.append([doc[k] for k in ("exponent_per_block", "innovations",
                                              "diagnostics")])
        assert computed[0] != computed[1]


UNIFORM = ("--layout", "uniform", "--spacing", "1")


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, name", [
        (("--diffusion-rate", "inf", "--snr", "1", "--layout", "periodic",
          "--offsets", "0,1"), "--diffusion-rate"),
        (("--diffusion-rate", "inf", "--snr", "1", "--layout", "clustered",
          "--cluster-size", "2", "--period", "1"),
         "--diffusion-rate"),
        (("--diffusion-rate", "1", "--stationary-variance", "inf",
          "--noise-variance", "1", *UNIFORM), "--stationary-variance"),
        (("--diffusion-rate", "1", "--noise-variance", "inf", *UNIFORM),
         "--noise-variance"),
        (("--diffusion-rate", "1", "--snr", "1", "--layout", "periodic",
          "--offsets", "1,inf"), "--offsets"),
    ], ids=["rate-periodic", "rate-clustered", "signal", "noise", "offsets"])
    def test_configuration_error(self, capsys, argv, name):
        code, out, err = run(capsys, "exponent", *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        assert error["message"].startswith(f"{name} must be finite")

    @pytest.mark.parametrize("pi0, sig2, snr", [("1e300", "1e-300", "inf"),
                                                ("1e-300", "1e300", "0.0")],
                             ids=["overflow", "underflow"])
    def test_snr_of_finite_variances_out_of_range(self, capsys, pi0, sig2, snr):
        # the ratio the closed forms read leaves the float range: a
        # configuration error, not a numeric failure of the engine
        code, out, err = run(capsys, "exponent", "--diffusion-rate", "1",
                             "--stationary-variance", pi0, "--noise-variance", sig2, *UNIFORM)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"] == (f"SNR must be finite and > 0, got {snr} from "
                                    f"--stationary-variance {float(pi0)!r} / "
                                    f"--noise-variance {float(sig2)!r}")

    # Every number key of the schema, a layout key as layout.<key>: a config
    # document holding it as infinity, and a command line giving it so, or
    # None where it has no flag.
    NUMBERS = {
        "diffusion_rate": ({"diffusion_rate": math.inf},
                           ("exponent", "--diffusion-rate", "inf")),
        "stationary_variance": ({"stationary_variance": math.inf},
                                ("exponent", "--stationary-variance", "inf")),
        "noise_variance": ({"noise_variance": math.inf},
                           ("exponent", "--noise-variance", "inf")),
        "alpha": ({"alpha": math.inf}, ("simulate", "--alpha", "inf")),
        "period": ({"period": math.inf}, ("sweep", "--axis", "m3", "--period", "inf")),
        "field_length": ({"field_length": math.inf},
                         ("sweep", "--axis", "cluster", "--field-length", "inf")),
        "snr_values": ({"snr_values": [1.0, math.inf]}, None),
        "correlation": ({"correlation": math.inf},
                        ("sweep", "--axis", "snr", "--correlation", "inf")),
        "tolerance": ({"tolerance": math.inf}, ("validate", "--tolerance", "inf")),
        "check_alphas": ({"check_alphas": [0.1, math.inf]},
                         ("validate", "--check-alphas", "0.1,inf")),
        "layout.spacing": ({"layout": {"kind": "uniform", "spacing": math.inf}},
                           ("exponent", "--layout", "uniform", "--spacing", "inf")),
        "layout.period": ({"layout": {"kind": "clustered", "period": math.inf}},
                          ("exponent", "--layout", "clustered", "--period", "inf")),
        "layout.offsets": ({"layout": {"kind": "periodic", "offsets": [1.0, math.inf]}},
                           ("exponent", "--layout", "periodic", "--offsets", "1,inf")),
    }

    def test_every_number_key_is_covered(self):
        schema = experiment_schema()
        props = [("", schema["properties"])] + [
            ("layout.", branch["properties"]) for branch in schema["$defs"]["layout"]["oneOf"]]
        keys = {prefix + key for prefix, p in props for key, spec in p.items()
                if "number" in (spec.get("type"), spec.get("items", {}).get("type"))}
        assert keys == self.NUMBERS.keys()

    @staticmethod
    def one_json_line(code, out, err) -> dict:
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.endswith("\n")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"].endswith("got inf")
        return error

    @pytest.mark.parametrize("key", sorted(k for k, (_, argv) in NUMBERS.items() if argv))
    def test_infinity_from_a_flag(self, capsys, key):
        command, *argv = self.NUMBERS[key][1]
        error = self.one_json_line(*run(capsys, command, *argv))
        assert error["message"].startswith(f"{argv[-2]} must be ")

    @pytest.mark.parametrize("key", sorted(NUMBERS))
    def test_infinity_in_a_config_file(self, capsys, tmp_path, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.NUMBERS[key][0]))
        assert "Infinity" in path.read_text()
        error = self.one_json_line(*run(capsys, "exponent", "--config", str(path)))
        assert error["message"].startswith(
            f"invalid configuration: {key.rpartition('.')[2]!r}")

    # an SNR near 1e308 overflows the composed period's scale sum, on a
    # zero-correlation row, and on the pair, also dividing by zero
    @pytest.mark.parametrize("argv", [
        ("exponent", "--diffusion-rate", "1e308", "--snr", "1e308", "--layout", "uniform",
         "--spacing", "1e308"),
        ("sweep", "--axis", "a", "--snr", "1e308", "--grid-points", "5"),
        ("exponent", "--diffusion-rate", "1", "--snr", "1.3593493684416066e308", "--layout",
         "periodic", "--offsets", "1.4589,0.34333"),
    ], ids=["exponent", "sweep", "exponent-pair"])
    def test_numeric_failure_prints_only_its_json(self, argv):
        # numpy warns on stderr unless the engine silences it; pytest would
        # capture the warning, so the command runs in a fresh interpreter
        src = str(Path(fieldexp.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "fieldexp.cli", *argv],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.count("\n") == 1
        error = json.loads(proc.stderr)["error"]
        assert (error["type"], error["exit_code"]) == ("NumericFailure", 3)


class TestSnrInput:
    @pytest.mark.parametrize("flag, value, snr", [
        ("--snr", "0", "0.0"),
        ("--snr", "-1", "-1.0"),
        ("--snr", "nan", "nan"),
        ("--snr", "inf", "inf"),
        ("--snr-db", "-10000", "0.0"),
        ("--snr-db", "10000", "inf"),
        ("--snr-db", "inf", "inf"),
    ])
    def test_configuration_error(self, capsys, flag, value, snr):
        code, out, err = run(capsys, "exponent", "--diffusion-rate", "1", flag, value,
                             *UNIFORM)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        assert error["message"] == \
            f"SNR must be finite and > 0, got {snr} from {flag} {float(value)!r}"

    @pytest.mark.parametrize("grid, message", [
        ("-20:-2:0", "--snr-db-grid must be start:stop:num with num >= 1, got '-20:-2:0'"),
        ("-20:-2:-3", "--snr-db-grid must be start:stop:num with num >= 1, got '-20:-2:-3'"),
        ("-20:-2", "--snr-db-grid must be start:stop:num with num >= 1, got '-20:-2'"),
        ("-20:-2:2.5", "--snr-db-grid must be start:stop:num with num >= 1, got '-20:-2:2.5'"),
        ("low:-2:3", "--snr-db-grid must be start:stop:num with num >= 1, got 'low:-2:3'"),
        ("-20:5000:2", "SNR must be finite and > 0, got inf from --snr-db-grid 5000.0"),
        ("-5000:-2:2", "SNR must be finite and > 0, got 0.0 from --snr-db-grid -5000.0"),
        ("-20:inf:2", "SNR must be finite and > 0, got inf from --snr-db-grid inf"),
        ("nan:-2:2", "SNR must be finite and > 0, got nan from --snr-db-grid nan"),
    ])
    def test_db_grid(self, capsys, grid, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "optimize", "--diffusion-rate", "1",
                                 "--noise-variance", "1", f"--snr-db-grid={grid}")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"] == message


    @pytest.mark.parametrize("flag, value", [("--snr", "0.5"), ("--snr-db", "-3")])
    def test_db_grid_with_an_snr_flag(self, capsys, flag, value, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before rejecting the configuration")

        monkeypatch.setattr(config_opt, "optimal_spacing_curve", no_solve)
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1", flag, value,
                             "--snr-db-grid=-20:-2:2")
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"] == f"give either {flag} or --snr-db-grid, not both"


class TestExitCodes:
    @pytest.mark.parametrize("snr", ["0.99999999", "1e-12"])
    def test_optimize_solves_near_zero_and_unit_snr(self, capsys, snr):
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1", "--snr", snr)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert 0.0 < doc["delta_star"] < math.inf
        assert 0.0 < doc["a_star"] < 1.0

    @pytest.mark.parametrize("variance", ["1e200", "1e-200"])
    def test_monte_carlo_filter_out_of_range(self, capsys, monkeypatch, variance):
        # P * P overflows at 1e200 and underflows at 1e-200: refused before
        # any sampling, instead of NaN or collapsed thresholds
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the filter schedule was refused")

        monkeypatch.setattr(mc_detector, "_sample_columns", no_sampling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "simulate", "--diffusion-rate", "1",
                                 "--stationary-variance", variance,
                                 "--noise-variance", variance, "--layout", "uniform",
                                 "--spacing", "0.3", "--n-values", "4,8,16,32",
                                 "--trials", "10000")
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("NumericFailure", 3)
        assert "is not a finite normal float" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("validate", "--config", str(CONFIGS / "iid.json"), "--n-values=--"),
        ("validate", "--config", str(CONFIGS / "iid.json"), "--check-alphas=--"),
        ("sweep", "--axis", "cluster", "--diffusion-rate", "1", "--snr", "10", "--sizes=--"),
        ("exponent", "--diffusion-rate", "1", "--snr", "1", "--layout", "periodic",
         "--offsets=--"),
        ("optimize", "--diffusion-rate", "1", "--snr-db-grid=--"),
        ("exponent", "--config=--", "--diffusion-rate", "1", "--snr", "1", "--layout",
         "uniform", "--spacing", "1"),
    ], ids=["n-values", "check-alphas", "sizes", "offsets", "snr-db-grid", "config"])
    @pytest.mark.parametrize("form", ["equals", "word"])
    def test_flag_given_as_double_dash_is_refused(self, capsys, monkeypatch, argv, form):
        # "--" is no value of any flag, after "=" or as a word of its own:
        # refused before the config file is read or the command runs
        def no_reading(*args):
            raise AssertionError("read the configuration")

        monkeypatch.setattr(cli, "_load_config", no_reading)
        monkeypatch.setattr(cli, "_resolve", no_reading)
        flag = next(word for word in argv if word.endswith("=--"))[:-3]
        if form == "word":
            argv = [w for word in argv for w in ((flag, "--") if word == flag + "=--" else (word,))]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"] == f"{flag} needs a value, got '--'"

    def test_grid_too_large_for_memory(self, capsys, monkeypatch):
        # a stub stands in for the grid: a real one might be OOM-killed on a
        # host that overcommits memory instead of being refused
        def too_large(*args):
            raise MemoryError("Unable to allocate 74.5 GiB for an array")

        monkeypatch.setattr(config_opt, "offset_sweep_m3", too_large)
        code, out, err = run(capsys, "sweep", "--axis", "m3", "--diffusion-rate", "1",
                             "--snr", "0.1", "--period", "1", "--grid-points", "100000")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "type": "MemoryError", "message": "Unable to allocate 74.5 GiB for an array",
            "exit_code": 2}}

    def test_failed_validation_check(self, capsys):
        code, out, err = run(capsys, "validate", "--config", str(CONFIGS / "iid.json"),
                             "--tolerance", "0.001", "--trials", "10000")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["passed"] is False
        assert report["budget"]["rel_tol"] == 0.001

    @pytest.mark.parametrize("key, flag", [
        ("tolerance", ("--tolerance", "0.001")),
        ("check_alphas", ("--check-alphas", "0.3")),
        ("check_alphas", ("--check-alphas", "")),
        ("tolerance", ()),
        ("check_alphas", ()),
    ], ids=["tolerance-flag", "check-alphas-flag", "empty-check-alphas-flag",
            "tolerance-file", "check-alphas-file"])
    def test_polynomial_regime_rejects_rate_check_keys(self, capsys, monkeypatch,
                                                       tmp_path, key, flag):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting the configuration")

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", no_sampling)
        doc = json.loads((CONFIGS / "perfect-correlation.json").read_text())
        if not flag:
            doc[key] = 0.5 if key == "tolerance" else [0.3]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--config", str(path), *flag)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(
            f"{cli._flag(key)} (or the config file's {key!r}) does not apply: ")
        assert "polynomial regime" in error["message"]

    @pytest.mark.parametrize("flag, doc_alphas, named", [
        (("--check-alphas", "0.05,0.05"), None, "--check-alphas"),
        ((), [0.05, 0.2, 0.05], "'check_alphas' (--check-alphas)"),
    ], ids=["flag", "file"])
    def test_repeated_check_alpha_rejected(self, capsys, monkeypatch, tmp_path,
                                           flag, doc_alphas, named):
        # a repeated alpha would rerun the same estimate at another seed and
        # report only the last
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting the configuration")

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", no_sampling)
        doc = json.loads((CONFIGS / "iid.json").read_text())
        if doc_alphas is not None:
            doc["check_alphas"] = doc_alphas
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "validate", "--config", str(path), "--trials", "10000",
                             "--n-values", "10,20,30,40", *flag)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert f"{named} must not repeat a value, got " in error["message"]

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize("flag, doc_counts, named", [
        (("--n-values", "20,10,10"), None, "--n-values"),
        ((), [40, 10, 20, 30, 10], "'n_values' (--n-values)"),
    ], ids=["flag", "file"])
    def test_repeated_sensor_count_rejected(self, capsys, monkeypatch, tmp_path, command,
                                            flag, doc_counts, named):
        # the estimates run each count once, so a repeat would be echoed in
        # the output's budget and dropped from its estimates
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting the configuration")

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", no_sampling)
        doc = json.loads((CONFIGS / "iid.json").read_text())
        if doc_counts is not None:
            doc["n_values"] = doc_counts
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--config", str(path), "--trials", "10000", *flag)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert f"{named} must not repeat a value, got " in error["message"]


class TestVarianceScale:
    """Closed forms depend on the SNR alone, whatever the variances' scale."""

    def test_exponent_at_tiny_variances(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            doc = exponent(capsys, "--diffusion-rate", "1",
                           "--stationary-variance", "1.551104137711336e-163",
                           "--noise-variance", "7.924482533039767e-154",
                           "--layout", "uniform", "--spacing", "0.891")
        assert doc["exponent_per_sensor"] == pytest.approx(1.3455e-20, rel=1e-4)
        inn = doc["innovations"][0]
        assert inn["r_e"] == 7.924482533039767e-154 + inn["p"]

    def test_optimize_curve_does_not_depend_on_the_noise_variance(self, capsys):
        curves = []
        for noise_variance in ("1", "3.7", "1e-200"):
            code, out, err = run(capsys, "optimize", "--diffusion-rate", "1",
                                 "--noise-variance", noise_variance,
                                 "--snr-db-grid=-20:-2:10")
            assert code == 0, err
            curves.append(json.loads(out)["curve"])
        assert curves[0] == curves[1] == curves[2]

    def test_optimize_curve_needs_no_noise_variance(self, capsys):
        docs = []
        for extra in ((), ("--noise-variance", "1")):
            code, out, err = run(capsys, "optimize", "--diffusion-rate", "1",
                                 *extra, "--snr-db-grid=-20:-2:3")
            assert (code, err) == (0, "")
            docs.append(json.loads(out))
        without, given = docs
        assert without["curve"] == given["curve"]
        assert without["metadata"]["field"] == {"diffusion_rate": 1.0,
                                                "stationary_variance": 1.0}
        assert given["metadata"]["field"] == {"diffusion_rate": 1.0,
                                              "stationary_variance": 1.0,
                                              "noise_variance": 1.0}

    def test_optimize_curve_still_checks_a_given_noise_variance(self, capsys):
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1",
                             "--noise-variance", "inf", "--snr-db-grid=-20:-2:3")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == "--noise-variance must be finite, got inf"


def sweep(capsys, tmp_path, *argv, **config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"diffusion_rate": 1.0, "stationary_variance": 1.0,
                                "noise_variance": 1.0, **config}))
    code, out, err = run(capsys, "sweep", "--config", str(path), *argv)
    assert code == 0, err
    return json.loads(out)


class TestSweepConfig:
    def test_file_n_ref_and_snr_values(self, capsys, tmp_path):
        doc = sweep(capsys, tmp_path, "--axis", "snr", "--correlation", "0.5",
                    n_ref=50, snr_values=[0.5, 1])
        assert doc["n_ref"] == 50
        assert [p["grid"] for p in doc["values"]] == [0.5, 1.0]
        for p in doc["values"]:
            assert p["approx_miss_prob"] == np.exp(-50 * p["k_per_sensor"])

    # the flag's grid wins over the file's snr_values, as every flag wins over
    # its file key; without the flag the file's grid is used (test above)
    @pytest.mark.parametrize("config", [{}, {"snr_values": [0.5, 1]}],
                             ids=["grid-points", "flag-over-file-snr-values"])
    def test_snr_axis_grid_points(self, capsys, tmp_path, config):
        doc = sweep(capsys, tmp_path, "--axis", "snr", "--correlation", "0.5",
                    "--grid-points", "5", **config)
        assert [p["grid"] for p in doc["values"]] == \
            pytest.approx([0.01, 0.1, 1.0, 10.0, 100.0], rel=1e-15)

    def test_file_n_ref_on_the_correlation_axis(self, capsys, tmp_path):
        doc = sweep(capsys, tmp_path, "--axis", "a", "--grid-points", "5", n_ref=7)
        assert doc["n_ref"] == 7

    @pytest.mark.parametrize("flag, config, expected", [
        (("--n-ref", "3"), {"n_ref": 50}, 3),
        ((), {}, 1),
    ])
    def test_n_ref_precedence(self, capsys, tmp_path, flag, config, expected):
        doc = sweep(capsys, tmp_path, "--axis", "delta1", "--period", "0.5",
                    "--grid-points", "5", *flag, **config)
        assert doc["n_ref"] == expected
        assert len(doc["values"]) == 5


    @pytest.mark.parametrize("flag, config, expected", [
        (("--n-ref", "7"), {"n_ref": 50}, 7),
        ((), {"n_ref": 50}, 50),
        ((), {}, 8),
    ], ids=["flag", "file", "n_total"])
    def test_cluster_n_ref(self, capsys, tmp_path, flag, config, expected):
        doc = sweep(capsys, tmp_path, "--axis", "cluster", "--n-total", "8",
                    "--sizes", "1,2,4", *flag, **config)
        assert doc["n_ref"] == expected
        for p in doc["values"]:
            assert p["approx_miss_prob"] == np.exp(-expected * p["k_per_sensor"])


class TestFileKeys:
    """``axis``, ``format`` and ``out``: the flag, then the file, then the
    default."""

    @pytest.mark.parametrize("flag, config, expected", [
        (("--axis", "delta1"), {"axis": "a"}, "delta1"),
        ((), {"axis": "delta1"}, "delta1"),
    ])
    def test_axis(self, capsys, tmp_path, flag, config, expected):
        doc = sweep(capsys, tmp_path, "--period", "0.5", "--grid-points", "5",
                    *flag, **config)
        assert doc["axis"] == expected

    def test_missing_axis_is_a_configuration_error(self, capsys):
        code, out, err = run(capsys, "sweep", *FIELD)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        assert "--axis" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("exponent", *FIELD, "--layout", "uniform", "--spacing", "1"),
        ("sweep", *SNR_FIELD, "--axis", "a", "--grid-points", "3"),
    ], ids=["exponent", "sweep"])
    @pytest.mark.parametrize("config", [("--config", ""), ("--config=",)],
                             ids=["word", "equals"])
    def test_empty_config_path_is_refused(self, capsys, argv, config):
        code, out, err = run(capsys, *argv, *config)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "type": "FileNotFoundError", "exit_code": 2,
            "message": "[Errno 2] No such file or directory: ''"}}

    def config_file(self, tmp_path, **keys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**json.loads((CONFIGS / "iid.json").read_text()),
                                    **keys}))
        return str(path)

    @pytest.mark.parametrize("flag, config, expected", [
        (("--format", "json"), {"format": "csv"}, "json"),
        ((), {"format": "csv"}, "csv"),
        ((), {}, "json"),
    ])
    def test_format(self, capsys, tmp_path, flag, config, expected):
        code, out, err = run(capsys, "exponent", "--config",
                             self.config_file(tmp_path, **config), *flag)
        assert code == 0, err
        if expected == "csv":
            assert out.startswith("exponent_per_sensor,exponent_per_block\n")
        else:
            assert json.loads(out)["metadata"]["format"] == "json"

    @pytest.mark.parametrize("flag, config, target", [
        (("--out", "-"), {"out": "file"}, None),
        ((), {"out": "file"}, "file"),
        (("--out", "flag"), {"out": "file"}, "flag"),
        ((), {}, None),
    ])
    def test_out(self, capsys, tmp_path, flag, config, target):
        config = {k: str(tmp_path / v) for k, v in config.items()}
        flag = [str(tmp_path / a) if a == "flag" else a for a in flag]
        code, out, err = run(capsys, "exponent", "--config",
                             self.config_file(tmp_path, **config), *flag)
        assert (code, err) == (0, "")
        expected = exponent(capsys, "--config", str(CONFIGS / "iid.json"))
        written = out if target is None else (tmp_path / target).read_text()
        assert json.loads(written) == expected
        if target is not None:
            assert out == ""


# The field flags each axis reads, and the field keys its metadata echoes.
AXIS_FIELD = {"a": SNR_FIELD, "snr": (), "cluster": FIELD, "delta1": FIELD, "m3": FIELD}
SNR_ECHO = {"stationary_variance": 1.0, "noise_variance": 0.5}
FIELD_ECHO = {"diffusion_rate": 1.0, **SNR_ECHO}
SWEEPS = {
    "a": (("--axis", "a", *SNR_FIELD, "--grid-points", "5"), {"field": SNR_ECHO, "snr": 2.0}),
    "snr": (("--axis", "snr", "--correlation", "0.5"),
            {"field": {}, "correlation": 0.5}),
    "cluster": (("--axis", "cluster", *FIELD, "--n-total", "8", "--sizes", "1,2,4"),
                {"field": FIELD_ECHO, "field_length": 1.0, "n_total": 8}),
    "delta1": (("--axis", "delta1", *FIELD, "--period", "0.5", "--grid-points", "5"),
               {"field": FIELD_ECHO, "period": 0.5, "snr": 2.0}),
    "m3": (("--axis", "m3", *FIELD, "--period", "0.1", "--grid-points", "4"),
           {"field": FIELD_ECHO, "period": 0.1, "snr": 2.0}),
}


class TestSweepOutput:
    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    def test_metadata_keeps_the_sweep_parameters(self, capsys, axis):
        argv, extra = SWEEPS[axis]
        code, out, err = run(capsys, "sweep", *argv)
        assert code == 0, err
        assert json.loads(out)["metadata"] == {
            "version": fieldexp.__version__, "format": "json", **extra}

    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    def test_csv_matches_json(self, capsys, axis):
        argv = ("sweep", *SWEEPS[axis][0])
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        header, *rows = [line.split(",") for line in out.strip().split("\n")]
        coords = len(header) - 4
        assert header[coords:] == ["k_per_sensor", "k_per_block", "approx_miss_prob",
                                   "is_argmax"]
        assert len(rows) == len(doc["values"])
        argmax = []
        for row, point in zip(rows, doc["values"]):
            grid = [float(x) for x in row[:coords]]
            assert grid == (point["grid"] if coords > 1 else [point["grid"]])
            assert [float(x) for x in row[coords:-1]] == \
                [point["k_per_sensor"], point["k_per_block"], point["approx_miss_prob"]]
            if row[-1] == "1":
                argmax.append(grid)
        assert argmax == [doc["argmax"] if coords > 1 else [doc["argmax"]]]

    @pytest.mark.parametrize("argv", [
        ("--axis", "a", *SNR_FIELD, "--grid-points", "3"),
        ("--axis", "a", *SNR_FIELD, "--grid-points", "8"),
        ("--axis", "snr", "--correlation", "0.5", "--grid-points", "3"),
        ("--axis", "snr", "--correlation", "0.5", "--grid-points", "8"),
        ("--axis", "cluster", *FIELD, "--n-total", "8", "--sizes", "1,2,4"),
        ("--axis", "cluster", *FIELD, "--n-total", "30", "--sizes", "15,1,3,5,10,2"),
        ("--axis", "delta1", *FIELD, "--period", "0.5", "--grid-points", "4"),
        ("--axis", "delta1", *FIELD, "--period", "0.5", "--grid-points", "9"),
        ("--axis", "m3", *FIELD, "--period", "0.1", "--grid-points", "5"),
        ("--axis", "m3", "--diffusion-rate", "5", "--snr", "10", "--period", "0.03",
         "--grid-points", "8"),
        # subnormal periods: the axis repeats values, and is_argmax marks every
        # point at the argmax's coordinates, not only the argmax's index
        ("--axis", "delta1", *FIELD, "--period", "2e-323", "--grid-points", "9"),
        ("--axis", "m3", *FIELD, "--period", "2e-323", "--grid-points", "9"),
    ])
    def test_both_writers_gather_each_point_from_its_row(self, capsys, argv):
        # each writer gathers every point's texts by its row and axis index;
        # a slip in either shows as a CSV row unlike the JSON row, or unlike
        # the point the library reports
        argv = ("sweep", *argv, "--n-ref", "3")
        solve = cli._AXES[argv[2]][2]
        res = solve(cli._resolve(cli._parse_args(list(argv)), {}))
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        _, *rows = [line.split(",") for line in out.strip().split("\n")]
        points = res.points.tolist()
        assert [p["grid"] for p in doc["values"]] == points
        assert [p["k_per_sensor"] for p in doc["values"]] == res.k_per_sensor.tolist()
        assert [p["k_per_block"] for p in doc["values"]] == res.k_per_block.tolist()
        assert [p["approx_miss_prob"] for p in doc["values"]] == \
            np.exp(-3 * res.k_per_sensor).tolist()
        assert len(rows) == len(doc["values"])
        for row, point in zip(rows, doc["values"]):
            grid = point["grid"] if isinstance(point["grid"], list) else [point["grid"]]
            assert [float(x) for x in row[:-1]] == \
                [*grid, point["k_per_sensor"], point["k_per_block"], point["approx_miss_prob"]]
        assert [row[-1] for row in rows] == \
            ["1" if point == doc["argmax"] else "0" for point in points]
        assert doc["argmax"] in points

    # SWEEPS' cluster axis has --n-total 8, the default n_ref there
    @pytest.mark.parametrize("n_ref", [None, 3], ids=["default-n-ref", "given-n-ref"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("axis", sorted(SWEEPS))
    def test_approx_miss_prob_column(self, capsys, axis, fmt, n_ref):
        argv = ("sweep", *SWEEPS[axis][0],
                *(("--n-ref", str(n_ref)) if n_ref else ()))
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        expected = n_ref or (8 if axis == "cluster" else 1)
        assert doc["n_ref"] == expected
        ks = [p["k_per_sensor"] for p in doc["values"]]
        misses = [p["approx_miss_prob"] for p in doc["values"]]
        argmax = [p["grid"] for p in doc["values"]].index(doc["argmax"])
        if fmt == "csv":
            code, out, err = run(capsys, *argv, "--format", "csv")
            assert code == 0, err
            header, *rows = [line.split(",") for line in out.strip().split("\n")]
            ks = [float(row[header.index("k_per_sensor")]) for row in rows]
            misses = [float(row[header.index("approx_miss_prob")]) for row in rows]
            assert [i for i, row in enumerate(rows) if row[-1] == "1"] == [argmax]
        assert len(misses) == len(doc["values"])
        assert misses == np.exp(-expected * np.array(ks)).tolist()

    def test_miss_prob_is_monotone_transform(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis", "cluster", "--diffusion-rate", "1",
                             "--stationary-variance", "1", "--noise-variance", "0.1",
                             "--field-length", "1", "--n-total", "100",
                             "--sizes", "1,2,4,5,10")
        assert code == 0, err
        doc = json.loads(out)
        by_k = max(doc["values"], key=lambda p: p["k_per_sensor"])
        by_miss = min(doc["values"], key=lambda p: p["approx_miss_prob"])
        assert by_k["grid"] == by_miss["grid"]
        assert doc["n_ref"] == 100

    def test_csv_columns_and_argmax_flag(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis", "cluster", "--diffusion-rate", "1",
                             "--stationary-variance", "1", "--noise-variance", "0.1",
                             "--field-length", "1", "--n-total", "20", "--sizes", "1,2,4",
                             "--format", "csv")
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == "cluster_size,k_per_sensor,k_per_block,approx_miss_prob,is_argmax"
        flags = [int(line.split(",")[-1]) for line in lines[1:]]
        assert sum(flags) == 1

    def test_csv_m3_has_two_coordinates(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis", "m3", "--diffusion-rate", "5",
                             "--stationary-variance", "1", "--noise-variance", "0.1",
                             "--period", "0.03", "--grid-points", "4", "--format", "csv")
        assert code == 0, err
        assert out.split("\n")[0].startswith("x2,x3,")

    def test_json_round_trip_values(self, capsys):
        res = config_opt.offset_sweep_m2(1.0, 1.0 / 0.1, 0.02, 11)
        code, out, err = run(capsys, "sweep", "--axis", "delta1", "--diffusion-rate", "1",
                             "--stationary-variance", "1", "--noise-variance", "0.1",
                             "--period", "0.02", "--grid-points", "11")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["axis"] == "delta1"
        assert len(doc["values"]) == 11
        assert doc["argmax"] == res.argmax
        assert doc["values"][0]["k_per_block"] == res.k_per_block[0]

    def test_deterministic_output(self, capsys):
        argv = ("sweep", "--axis", "delta1", "--diffusion-rate", "8",
                "--stationary-variance", "1", "--noise-variance", "0.1",
                "--period", "0.02", "--grid-points", "31", "--format", "csv")
        first = run(capsys, *argv)
        assert first[0] == 0, first[2]
        assert run(capsys, *argv) == first


# The sweep flags each axis reads (every axis also reads --n-ref), and a
# value for each.
AXIS_READS = {
    "a": {"grid_points"},
    "snr": {"grid_points", "correlation"},
    "cluster": {"field_length", "n_total", "sizes"},
    "delta1": {"period", "grid_points"},
    "m3": {"period", "grid_points"},
}
SWEEP_FLAGS = {
    "grid_points": ("--grid-points", "5"),
    "period": ("--period", "0.5"),
    "field_length": ("--field-length", "2"),
    "n_total": ("--n-total", "8"),
    "sizes": ("--sizes", "1,2"),
    "correlation": ("--correlation", "0.5"),
}
# Each field flag and a value for it, and the field flags each axis reads.
FIELD_FLAGS = {
    "diffusion_rate": ("--diffusion-rate", "1"),
    "stationary_variance": ("--stationary-variance", "1"),
    "noise_variance": ("--noise-variance", "1"),
    "snr": ("--snr", "2"),
    "snr_db": ("--snr-db", "3"),
}
FIELD_READS = {"a": set(FIELD_FLAGS) - {"diffusion_rate"}, "snr": set(),
               **dict.fromkeys(("cluster", "delta1", "m3"), set(FIELD_FLAGS))}
UNREAD = [(axis, key) for axis in sorted(AXIS_READS)
          for key in sorted({**SWEEP_FLAGS, **FIELD_FLAGS})
          if key not in AXIS_READS[axis] | FIELD_READS[axis]]


@pytest.fixture
def no_sweeps(monkeypatch):
    def no_solve(name):
        def solve(*args, **kwargs):
            raise AssertionError(f"{name} solved before rejecting the configuration")
        return solve

    for name in ("correlation_sweep", "snr_sweep", "cluster_size_sweep",
                 "offset_sweep_m2", "offset_sweep_m3"):
        monkeypatch.setattr(config_opt, name, no_solve(name))


class TestSweepAxisFlags:
    """A flag the chosen axis does not read is a configuration error."""

    @pytest.mark.parametrize("axis, key", UNREAD, ids=[f"{a}-{k}" for a, k in UNREAD])
    def test_flag_of_another_axis(self, capsys, no_sweeps, axis, key):
        flag = {**SWEEP_FLAGS, **FIELD_FLAGS}[key]
        code, out, err = run(capsys, "sweep", *SWEEPS[axis][0], *flag)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["message"]) == \
            ("ValueError", f"--axis {axis} does not read {flag[0]}")

    @pytest.mark.parametrize("argv, message", [
        (("--axis", "cluster", *FIELD, "--grid-points", "5", "--correlation", "0.3",
          "--period", "7"),
         "--axis cluster does not read --correlation, --grid-points, --period"),
        (("--axis", "a", *FIELD, "--sizes", "1,2"),
         "--axis a does not read --diffusion-rate, --sizes"),
        (("--axis", "snr", "--correlation", "0.5", "--grid-points", "3", "--snr", "7",
          "--diffusion-rate", "3"), "--axis snr does not read --diffusion-rate, --snr"),
    ], ids=["cluster", "a", "snr"])
    def test_every_unread_flag_is_named(self, capsys, no_sweeps, argv, message):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == message

    @pytest.mark.parametrize("axis", sorted(AXIS_READS))
    def test_every_axis_reads_its_flags_and_n_ref(self, capsys, axis):
        argv = [word for key in sorted(AXIS_READS[axis]) for word in SWEEP_FLAGS[key]]
        if axis == "cluster":
            argv += ["--sizes", "1,2,4"]
        code, out, err = run(capsys, "sweep", *AXIS_FIELD[axis], "--axis", axis, *argv,
                             "--n-ref", "3")
        assert code == 0, err
        assert json.loads(out)["n_ref"] == 3

    def test_axis_table_is_the_schemas(self):
        assert list(cli._AXES) == experiment_schema()["properties"]["axis"]["enum"]
        assert {axis: set(keys) for axis, (keys, _, _) in cli._AXES.items()} == AXIS_READS
        assert {axis: set(field) for axis, (_, field, _) in cli._AXES.items()} == FIELD_READS

    @pytest.mark.parametrize("axis, name", [
        ("a", "correlation_sweep"), ("snr", "snr_sweep"), ("cluster", "cluster_size_sweep"),
        ("delta1", "offset_sweep_m2"), ("m3", "offset_sweep_m3")])
    def test_each_axis_runs_its_sweep_as_patched(self, no_sweeps, axis, name):
        # an axis looks its sweep up on config_opt when it runs
        argv = [word for key in sorted(AXIS_READS[axis]) for word in SWEEP_FLAGS[key]]
        with pytest.raises(AssertionError, match=f"^{name} solved"):
            cli.main(["sweep", *AXIS_FIELD[axis], "--axis", axis, *argv])

    def test_file_keys_of_other_axes_stay_accepted(self, capsys, tmp_path):
        doc = sweep(capsys, tmp_path, "--axis", "a", "--grid-points", "5",
                    sizes=[1, 2], correlation=0.3, period=7.0, field_length=2.0)
        assert len(doc["values"]) == 5


class TestSweepFieldKeys:
    """A sweep axis requires only the field keys it reads: none for snr, the
    SNR (or both variances) for a, and the diffusion rate too for the rest."""

    @pytest.mark.parametrize("argv, given, field", [
        (("--axis", "snr", "--correlation", "0.5", "--grid-points", "3"), (), {}),
        (("--axis", "a", "--grid-points", "3"), ("--snr", "0.1"),
         {"stationary_variance": 1.0, "noise_variance": 10.0}),
    ], ids=["snr", "a"])
    def test_unread_keys_are_not_required(self, capsys, tmp_path, argv, given, field):
        code, out, err = run(capsys, "sweep", *argv, *given)
        assert (code, err) == (0, "")
        short = json.loads(out)
        # a file's field keys stay allowed, also those the axis does not read
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"diffusion_rate": 1, "stationary_variance": 1,
                                    "noise_variance": 10}))
        code, out, err = run(capsys, "sweep", *argv, "--config", str(path))
        assert (code, err) == (0, "")
        full = json.loads(out)
        assert (short["values"], short["argmax"]) == (full["values"], full["argmax"])
        assert short["metadata"]["field"] == field

    @pytest.mark.parametrize("argv, flag", [
        (("--axis", "m3", "--period", "0.1"), "--diffusion-rate"),
        (("--axis", "delta1", "--period", "0.1", "--snr", "0.1"), "--diffusion-rate"),
        (("--axis", "cluster", "--snr", "0.1"), "--diffusion-rate"),
        (("--axis", "a", "--stationary-variance", "1"), "--noise-variance"),
        (("--diffusion-rate", "1", "--snr", "0.1"), "--axis"),
        ((), "--axis"),
    ], ids=["m3", "delta1", "cluster", "a", "no-axis", "nothing"])
    def test_a_read_key_is_still_required(self, capsys, no_sweeps, argv, flag):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == \
            f"{flag} (or the config file's {flag[2:].replace('-', '_')!r}) is required"

    @pytest.mark.parametrize("variance, snr, message", [
        ("1e-300", ("--snr", "1e100"), "got 0.0 from --stationary-variance 1e-300 and "
                                       "--snr 1e+100"),
        ("1e300", ("--snr", "1e-10"), "got inf from --stationary-variance 1e+300 and "
                                      "--snr 1e-10"),
        ("1", ("--snr", "1e-320"), "got inf from --stationary-variance 1.0 and "
                                   "--snr 1e-320"),
        ("1", ("--snr-db=-3200",), "got inf from --stationary-variance 1.0 and "
                                   "--snr-db -3200.0"),
    ], ids=["underflow", "overflow", "subnormal-snr", "subnormal-snr-db"])
    def test_noise_variance_from_an_snr_out_of_range(self, capsys, variance, snr, message):
        # the message names the flags the noise variance came from
        for argv in (("sweep", "--axis", "a"),
                     ("exponent", "--diffusion-rate", "1", *UNIFORM)):
            code, out, err = run(capsys, *argv, "--stationary-variance", variance, *snr)
            assert (code, out) == (2, ""), argv
            assert json.loads(err)["error"]["message"] == \
                "noise variance must be finite and > 0, " + message

    def test_metadata_echoes_the_field_keys_as_floats(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"diffusion_rate": 3, "stationary_variance": 2,
                                    "noise_variance": 0.7}))
        for argv in (("exponent", *UNIFORM),
                     ("sweep", "--axis", "m3", "--period", "0.1", "--grid-points", "3")):
            code, out, err = run(capsys, *argv, "--config", str(path))
            assert (code, err) == (0, "")
            field = json.loads(out)["metadata"]["field"]
            assert field == {"diffusion_rate": 3.0, "stationary_variance": 2.0,
                             "noise_variance": 0.7}
            assert all(type(value) is float for value in field.values())

    @pytest.mark.parametrize("argv, keys", [
        (("--axis", "snr", "--correlation", "0.5"), ()),
        (("--axis", "a"), ("stationary_variance", "noise_variance")),
        (("--axis", "delta1", "--period", "0.1"),
         ("diffusion_rate", "stationary_variance", "noise_variance")),
    ], ids=["snr", "a", "delta1"])
    def test_sweep_echoes_only_the_field_keys_its_axis_reads(self, capsys, tmp_path, argv,
                                                             keys):
        path = tmp_path / "config.json"
        doc = {"diffusion_rate": 3, "stationary_variance": 1,
               "noise_variance": 0.14285714285714285}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "sweep", *argv, "--grid-points", "3", "--config",
                             str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["metadata"]["field"] == {k: float(doc[k]) for k in keys}


class TestOutOfFloatRange:
    @pytest.mark.parametrize("argv", [
        ("exponent", "--layout", "uniform", "--spacing", "1e308"),
        ("simulate", "--layout", "uniform", "--spacing", "1e308", "--n-values", "2",
         "--trials", "10000"),
        ("sweep", "--axis", "delta1", "--period", "1e308", "--grid-points", "5"),
    ], ids=["exponent", "simulate", "sweep-delta1"])
    def test_rate_times_gap_overflows_to_correlation_zero(self, capsys, argv):
        # exp(-inf) = 0 is the limit, so the command succeeds and writes no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv, "--diffusion-rate", "1e308", "--snr", "1")
        assert (code, err) == (0, "")
        if argv[0] == "exponent":
            uncorrelated = config_opt.correlation_sweep(1.0, [0.0]).k_per_sensor[0]
            assert json.loads(out)["exponent_per_sensor"] == uncorrelated

    @pytest.mark.parametrize("snr", [("--snr", "0.5"), ("--snr-db-grid=-10:-1:3",)],
                             ids=["snr", "snr-db-grid"])
    def test_optimal_spacing_beyond_the_float_range(self, capsys, snr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "optimize", "--diffusion-rate", "1e-320", *snr)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert (error["type"], error["exit_code"]) == ("ValueError", 2)
        assert error["message"].startswith("optimal spacing -ln(a*)/A exceeds the float range "
                                           "at diffusion_rate 1e-320 and SNR ")

    @pytest.mark.parametrize("argv", [
        ("exponent", "--diffusion-rate", "1", "--layout", "uniform", "--spacing", "1"),
        ("sweep", "--axis", "a", "--grid-points", "5"),
    ], ids=["exponent", "sweep-a"])
    def test_subnormal_snr_solves(self, capsys, argv):
        # 1e-12 G underflows to 0 at G = 1e-315; the fixed point is held to 16
        # subnormal steps instead, and the exponent, O(G^2), underflows to 0
        code, out, err = run(capsys, *argv, "--stationary-variance", "1e-315",
                             "--noise-variance", "1")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        if argv[0] == "exponent":
            assert doc["exponent_per_sensor"] == 0.0
            assert 0.0 < doc["innovations"][0]["p"] < 1e-314
        else:
            assert [row["k_per_sensor"] for row in doc["values"]] == [0.0] * 5


class TestLowSnrArgmax:
    """At an SNR of 1e-6 a sweep's exponents all lie within 1e-9 of each
    other; its argmax is still the point of the largest."""

    @pytest.mark.parametrize("argv, argmax", [
        (("--axis", "cluster", "--diffusion-rate", "100", "--snr", "1e-6", "--n-total", "100",
          "--sizes", "1,2,4,5,10"), 10.0),
        (("--axis", "a", "--snr", "1e-6", "--grid-points", "11"), 0.9),
    ], ids=["cluster", "a"])
    def test_argmax_is_the_largest_exponent(self, capsys, argv, argmax):
        code, out, err = run(capsys, "sweep", *argv)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        ks = [row["k_per_sensor"] for row in doc["values"]]
        assert max(ks) - min(ks) < 1e-9 and ks.count(max(ks)) == 1
        assert doc["argmax"] == argmax == doc["values"][ks.index(max(ks))]["grid"]


class TestOptimizeCsv:
    def test_csv_matches_json(self, capsys):
        argv = ("optimize", "--diffusion-rate", "1", "--noise-variance", "1",
                "--snr-db-grid=-20:-2:4")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        curve = json.loads(out)["curve"]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        header, *rows = out.strip().split("\n")
        assert header == "snr,snr_db,a_star,delta_star,k_at_optimum"
        assert [[float(x) for x in row.split(",")] for row in rows] == [
            [p["snr"], db, p["a_star"], p["delta_star"], p["exponent_at_optimum"]]
            for p, db in zip(curve, [-20.0, -14.0, -8.0, -2.0])]

    def test_single_snr_csv_matches_json(self, capsys):
        argv = ("optimize", "--diffusion-rate", "1", "--snr", "0.5")
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        assert out == ("snr,a_star,delta_star,k_at_optimum\n"
                       f"{0.5!r},{doc['a_star']!r},{doc['delta_star']!r},"
                       f"{doc['exponent_at_optimum']!r}\n")


def linspace_hex(start: float, stop: float, num: int) -> list:
    return [x.hex() for x in np.linspace(start, stop, num).tolist()]


class TestSnrDbGrid:
    """--snr-db-grid's dB values are np.linspace's, bit for bit, and each SNR
    is 10 ** (dB / 10) of its dB value."""

    def check(self, start: float, stop: float, num: int) -> None:
        grid = cli._parse_grid(f"{start!r}:{stop!r}:{num}")
        assert [db.hex() for db, _ in grid] == linspace_hex(start, stop, num)
        assert [snr for _, snr in grid] == [10.0 ** (db / 10.0) for db, _ in grid]

    @pytest.mark.parametrize("start, stop, num", [
        (-20.0, -2.0, 10), (-20.0, -2.0, 1), (-3.0, -3.0, 1), (-3.0, -3.0, 4),
        (-2.0, -20.0, 7), (-0.0, -1.0, 3), (0.0, -0.0, 1), (-0.0, 0.0, 2), (-1.0, 0.0, 1),
        # (stop - start) / (num - 1) underflows to 0: numpy scales by i / (num - 1)
        (-5e-324, 0.0, 3), (0.0, 1e-322, 100), (1e-322, 0.0, 1000),
        (-3.0, -2.9999999999999996, 5), (-40.0, -39.99999999, 1000), (-30.0, -0.01, 50),
    ], ids=["benchmark", "one-point", "one-point-flat", "flat", "descending", "from-minus-zero",
            "one-point-zeros", "zeros", "one-point-descending", "step-underflows",
            "step-underflows-long", "step-underflows-descending", "one-ulp", "narrow", "wide"])
    def test_matches_linspace(self, start, stop, num):
        self.check(start, stop, num)

    def test_random_grids_match_linspace(self):
        rng = np.random.default_rng(34)
        for _ in range(3000):
            start = float(rng.choice([rng.uniform(-60.0, 20.0), np.round(rng.uniform(-60, 20)),
                                      rng.uniform(-1e-300, 1e-300) * rng.uniform()]))
            width = float(rng.choice([rng.uniform(-60.0, 60.0), rng.normal() * 1e-13,
                                      rng.normal() * 1e-321, 0.0]))
            num = int(rng.choice([1, 2, 3, rng.integers(1, 50), rng.integers(1, 2000)]))
            self.check(start, start + width, num)

    def test_one_point_grid_is_its_snr(self, capsys):
        # the one-point grid start:start:1 is the SNR of start dB
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1", "--snr-db-grid=-3:-3:1")
        assert (code, err) == (0, "")
        point = json.loads(out)["curve"][0]
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1", "--snr-db", "-3")
        assert (code, err) == (0, "")
        assert point == {"snr": 10.0 ** -0.3, **{k: v for k, v in json.loads(out).items()
                                                  if k != "metadata"}}


GOLDEN = Path(__file__).resolve().parent / "golden"
M3_SWEEP = ("sweep", "--axis", "m3", "--diffusion-rate", "1", "--snr", "0.1", "--period", "0.1")
M3_SUBNORMAL = ("sweep", "--axis", "m3", "--diffusion-rate", "1", "--snr", "0.1",
                "--period", "2e-323", "--grid-points", "9")


@pytest.mark.parametrize("name, argv", [
    ("optimize-snr.json", ("optimize", "--diffusion-rate", "1", "--snr", "0.5")),
    ("optimize-grid.json", ("optimize", "--diffusion-rate", "1", "--noise-variance", "1",
                            "--snr-db-grid=-20:-2:10")),
    ("optimize-grid.csv", ("optimize", "--diffusion-rate", "1", "--noise-variance", "1",
                           "--snr-db-grid=-20:-2:10", "--format", "csv")),
    ("optimize-grid-descending.json", ("optimize", "--diffusion-rate", "2.5",
                                       "--snr-db-grid=-2:-20.25:7")),
    ("exponent-clustered.json", ("exponent", "--config", str(CONFIGS / "clustered-low-snr.json"))),
    ("exponent-periodic.json", ("exponent", "--diffusion-rate", "1.3", "--snr", "2", "--layout",
                                "periodic", "--offsets", "0.2,0.0,0.45")),
    ("sweep-m3.json", (*M3_SWEEP, "--grid-points", "7")),
    ("sweep-m3.csv", (*M3_SWEEP, "--grid-points", "7", "--format", "csv")),
    ("sweep-delta1.json", ("sweep", "--axis", "delta1", "--diffusion-rate", "1", "--snr", "0.1",
                           "--period", "0.1", "--grid-points", "6", "--n-ref", "7")),
    ("sweep-a.csv", ("sweep", "--axis", "a", "--snr", "0.1", "--grid-points", "5",
                     "--format", "csv")),
    ("sweep-cluster.json", ("sweep", "--axis", "cluster", "--diffusion-rate", "1",
                            "--snr", "0.1")),
    # the axis of a subnormal period repeats values, and is_argmax marks every
    # point at the argmax's coordinates: 4 rows
    ("sweep-m3-subnormal.json", (*M3_SUBNORMAL,)),
    ("sweep-m3-subnormal.csv", (*M3_SUBNORMAL, "--format", "csv")),
])
def test_document_bytes_are_pinned(capsys, name, argv):
    # every byte is pinned: the dB grid's arithmetic, the copies of the result
    # fields, the closed form and the sweep writers' texts all show here
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


MC_FIELD = ("--diffusion-rate", "1", "--stationary-variance", "1", "--noise-variance", "1")
SMALL_ESTIMATE = ("simulate", *MC_FIELD, "--layout", "uniform", "--spacing", "2",
                  "--alpha", "0.2", "--n-values", "5,10,15,20", "--trials", "10000",
                  "--seed", "1")
SMALL_REPORT = ("validate", *MC_FIELD, "--layout", "uniform", "--spacing", "50",
                "--alpha", "0.2", "--trials", "10000", "--n-values", "10,20,30",
                "--check-alphas", "", "--seed", "1")
COUNTS_HEADER = "n,trials,threshold,misses,miss_prob,ci95_half"


def counts_match(out: str, est: dict) -> None:
    """The per-n counts of CSV ``out`` are those of the JSON estimate ``est``."""
    header, *rows = out.strip().split("\n")
    assert header == COUNTS_HEADER
    assert [row.split(",") for row in rows] == [
        [str(p["n"]), str(est["trials"]), repr(t), str(p["misses"]), repr(p["estimate"]),
         repr(p["ci95_half"])]
        for p, t in zip(est["miss_prob"], est["threshold_per_n"])]


class TestMonteCarloOutput:
    def test_json_shape(self, capsys):
        code, out, err = run(capsys, *SMALL_ESTIMATE)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["alpha"] == 0.2
        assert len(doc["miss_prob"]) == 4
        assert {"n", "estimate", "ci95_half", "misses"} <= set(doc["miss_prob"][0])

    def test_counts_csv(self, capsys):
        code, out, err = run(capsys, *SMALL_ESTIMATE, "--format", "csv")
        assert code == 0, err
        lines = out.strip().split("\n")
        assert lines[0] == COUNTS_HEADER
        assert len(lines) == 5

    def test_report_json(self, capsys):
        code, out, err = run(capsys, *SMALL_REPORT)
        doc = json.loads(out)
        assert code == (0 if doc["passed"] else 1), err
        assert doc["regime"] == "exponential"
        assert doc["budget"]["trials"] == 10_000
        assert doc["budget"]["poly_tol"] == mc_detector.POLY_TOL

    def test_simulate_and_validate_share_the_auto_grid(self, capsys):
        iid = ("--config", str(CONFIGS / "iid.json"), "--trials", "10000")
        code, out, err = run(capsys, "simulate", *iid)
        assert (code, err) == (0, "")
        simulated = json.loads(out)["n_values"]
        assert simulated == [7 * j for j in range(1, 9)]
        code, out, err = run(capsys, "validate", *iid)
        doc = json.loads(out)
        assert (code, err) == (0 if doc["passed"] else 1, "")
        assert [est["n_values"] for est in doc["estimates"].values()] == [simulated]
        assert doc["budget"]["n_values"] is None

    def test_budget_echoes_the_given_n_values(self, capsys):
        code, out, err = run(capsys, *SMALL_REPORT)
        doc = json.loads(out)
        assert (code, err) == (0 if doc["passed"] else 1, "")
        assert doc["budget"]["n_values"] == doc["estimates"]["0.2"]["n_values"] == [10, 20, 30]

    def test_simulate_csv_matches_json(self, capsys):
        code, out, err = run(capsys, *SMALL_ESTIMATE)
        assert code == 0, err
        doc = json.loads(out)
        code, out, err = run(capsys, *SMALL_ESTIMATE, "--format", "csv")
        assert (code, err) == (0, "")
        counts_match(out, doc)

    @pytest.mark.parametrize("argv", [
        SMALL_REPORT,
        ("validate", *MC_FIELD, "--layout", "uniform", "--spacing", "50",
         "--trials", "10000", "--n-values", "10,20,30,40", "--check-alphas", "0.05,0.3"),
    ], ids=["one-alpha", "check-alphas"])
    def test_validate_csv_matches_json(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        doc = json.loads(out)
        alpha = repr(0.2 if "--alpha" in argv else 0.1)
        assert set(doc["estimates"]) >= {alpha}
        code_csv, out, err = run(capsys, *argv, "--format", "csv")
        assert (code_csv, err) == (code, "")
        counts_match(out, doc["estimates"][alpha])


PARAMS_DOC = {"diffusion_rate": 1.0, "stationary_variance": 1.0, "noise_variance": 1.0}
ABSENT = "absent"

# Every schema key that has a flag: a command that reads it, the flag, the
# value the flag gives, a value in the file, and the default (ABSENT: none).
PRECEDENCE = [
    ("diffusion_rate", ("exponent",), ("--diffusion-rate", "2"), 2.0, 3.0, ABSENT),
    ("stationary_variance", ("exponent",), ("--stationary-variance", "2"), 2.0, 3.0, 1.0),
    ("noise_variance", ("exponent",), ("--noise-variance", "2"), 2.0, 3.0, ABSENT),
    ("layout", ("exponent",), ("--layout", "uniform", "--spacing", "2"),
     {"kind": "uniform", "spacing": 2.0},
     {"kind": "clustered", "cluster_size": 2, "period": 1.0}, ABSENT),
    ("format", ("exponent",), ("--format", "json"), "json", "csv", "json"),
    ("out", ("exponent",), ("--out", "flag.json"), "flag.json", "file.json", "-"),
    ("alpha", ("simulate",), ("--alpha", "0.3"), 0.3, 0.2, 0.1),
    ("trials", ("simulate",), ("--trials", "20000"), 20000, 30000, 100_000),
    ("seed", ("simulate",), ("--seed", "5"), 5, 6, 20260810),
    ("n_values", ("simulate",), ("--n-values", "2,4"), [2, 4], [6], ABSENT),
    ("tolerance", ("validate",), ("--tolerance", "0.5"), 0.5, 0.3, ABSENT),
    ("check_alphas", ("validate",), ("--check-alphas", "0.1,0.3"), [0.1, 0.3], [0.4],
     ABSENT),
    ("axis", ("sweep",), ("--axis", "delta1"), "delta1", "a", ABSENT),
    ("grid_points", ("sweep", "--axis", "a"), ("--grid-points", "5"), 5, 7, 201),
    ("grid_points", ("sweep", "--axis", "m3"), ("--grid-points", "5"), 5, 7, 61),
    ("period", ("sweep", "--axis", "delta1"), ("--period", "0.5"), 0.5, 0.25, ABSENT),
    ("field_length", ("sweep", "--axis", "cluster"), ("--field-length", "2"), 2.0, 3.0, 1.0),
    ("n_total", ("sweep", "--axis", "cluster"), ("--n-total", "8"), 8, 10, 100),
    ("sizes", ("sweep", "--axis", "cluster"), ("--sizes", "1,2"), [1, 2], [4],
     (1, 2, 4, 5, 10)),
    ("n_ref", ("sweep", "--axis", "a"), ("--n-ref", "3"), 3, 4, 1),
    ("n_ref", ("sweep", "--axis", "cluster"), ("--n-ref", "3"), 3, 4, 100),
    ("correlation", ("sweep", "--axis", "snr"), ("--correlation", "0.5"), 0.5, 0.25,
     ABSENT),
]

EXPONENT = ("exponent", *FIELD, *UNIFORM)
BEYOND_FLOATS = 10 ** 310  # an integer no float holds
SIMULATE_ONE = ("simulate", *FIELD, *UNIFORM, "--trials", "10000", "--n-values", "1")
VALIDATE_ONE = ("validate", *FIELD, *UNIFORM, "--trials", "10000", "--n-values", "1,2",
                "--check-alphas", "")
DELTA1 = ("sweep", *FIELD, "--axis", "delta1", "--period", "0.5", "--grid-points", "5")
CLUSTER = ("sweep", *FIELD, "--axis", "cluster", "--n-total", "4", "--sizes", "1,2")
SNR_AXIS = ("sweep", "--axis", "snr", "--correlation", "0.5")

# A command that succeeds as given, a flag that puts the key out of the
# schema's bounds (None where the flag's choices already reject it), and an
# out-of-range value for the file.
OUT_OF_RANGE = [
    ("diffusion_rate", EXPONENT, ("--diffusion-rate", "-1"), -1),
    ("stationary_variance", EXPONENT, ("--stationary-variance", "0"), 0),
    ("noise_variance", ("exponent", "--diffusion-rate", "1", "--noise-variance", "1",
                        *UNIFORM), ("--noise-variance", "-2"), 0),
    ("layout", EXPONENT, ("--spacing", "0"), {"kind": "uniform", "spacing": 0}),
    ("format", EXPONENT, None, "xml"),
    ("alpha", SIMULATE_ONE, ("--alpha", "1"), 1),
    ("trials", SIMULATE_ONE, ("--trials", "0"), 0),
    ("seed", SIMULATE_ONE, ("--seed", "-1"), -1),
    ("n_values", SIMULATE_ONE, ("--n-values", "0"), [0]),
    ("tolerance", VALIDATE_ONE, ("--tolerance", "-1"), -1),
    ("check_alphas", VALIDATE_ONE, ("--check-alphas", "2"), [2]),
    ("axis", DELTA1, None, "z"),
    ("grid_points", DELTA1, ("--grid-points", "0"), 0),
    ("period", DELTA1, ("--period", "0"), 0),
    ("n_ref", DELTA1, ("--n-ref", "0"), 0),
    ("field_length", CLUSTER, ("--field-length", "0"), 0),
    ("n_total", CLUSTER, ("--n-total", "0"), 0),
    ("sizes", CLUSTER, ("--sizes", "0"), [0]),
    ("correlation", SNR_AXIS, ("--correlation", "2"), 2),
]


@pytest.fixture
def resolved(monkeypatch):
    """Runs ``main`` up to the command and returns the mapping it reads."""
    seen = []
    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, seen.append)

    def resolve(*argv):
        seen.clear()
        code = cli.main(list(argv))
        assert len(seen) == 1, f"exit {code}"
        return seen[0]
    return resolve


class TestResolution:
    @pytest.mark.parametrize("key, command, flag, from_flag, in_file, default",
                             PRECEDENCE, ids=[row[0] + "".join(f"-{word}" for word in row[1][2:])
                                              for row in PRECEDENCE])
    def test_flag_over_file_over_default(self, resolved, tmp_path, key, command, flag,
                                         from_flag, in_file, default):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PARAMS_DOC, key: in_file}))
        assert resolved(*command, *flag, "--config", str(path))[key] == from_flag
        assert resolved(*command, "--config", str(path))[key] == in_file
        assert resolved(*command).get(key, ABSENT) == default

    def test_mapping_is_read_only(self, resolved):
        cfg = resolved(*EXPONENT)
        with pytest.raises(TypeError):
            cfg["seed"] = 1

    @pytest.mark.parametrize("key, argv, flag, in_file", OUT_OF_RANGE,
                             ids=[row[0] for row in OUT_OF_RANGE])
    def test_out_of_range_is_a_configuration_error(self, capsys, tmp_path, key, argv,
                                                   flag, in_file):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PARAMS_DOC, key: in_file}))
        runs = [((*argv, "--config", str(path)), "invalid configuration: ")]
        if flag is not None:
            runs.append(((*argv, *flag), f"{flag[0]} must be "))
        for run_argv, message in runs:
            code, out, err = run(capsys, *run_argv)
            assert (code, out) == (2, ""), run_argv
            error = json.loads(err)["error"]
            assert (error["type"], error["exit_code"]) == ("ValueError", 2)
            assert error["message"].startswith(message), error["message"]

    @pytest.mark.parametrize("argv, message", [
        ((*SIMULATE_ONE, "--n-values", "2,x"),
         "--n-values must be comma-separated int values, got '2,x'"),
        ((*SIMULATE_ONE, "--n-values", ""), "--n-values needs at least 1 value(s)"),
        (("exponent", *FIELD, "--layout", "periodic", "--offsets", "0.5,-1"),
         "--offsets must be >= 0, got -1.0"),
    ], ids=["not-int", "empty", "item-bound"])
    def test_list_flags(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == message

    @pytest.mark.parametrize("key, argv, flag, in_file", [
        ("n_ref", ("sweep", *FIELD, "--axis", "m3", "--period", "0.1", "--grid-points", "5"),
         "--n-ref", BEYOND_FLOATS),
        ("n_total", ("sweep", *FIELD, "--axis", "cluster", "--sizes", "1"), "--n-total",
         BEYOND_FLOATS),
        ("n_values", ("simulate", *FIELD, *UNIFORM, "--trials", "10000"), "--n-values",
         [BEYOND_FLOATS]),
    ], ids=["n_ref", "n_total", "n_values"])
    def test_integer_beyond_the_float_range(self, capsys, tmp_path, key, argv, flag, in_file):
        # such an integer overflowed where the command turns it into a float
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**PARAMS_DOC, key: in_file}))
        wanted = f"must be at most {sys.float_info.max!r} in magnitude, got {BEYOND_FLOATS}"
        for run_argv, message in [((*argv, flag, str(BEYOND_FLOATS)), f"{flag} {wanted}"),
                                  ((*argv, "--config", str(path)),
                                   f"invalid configuration: {key!r} ({flag}) {wanted}")]:
            code, out, err = run(capsys, *run_argv)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["message"] == message

    def test_missing_value_names_its_flag(self, capsys):
        code, out, err = run(capsys, "sweep", *FIELD, "--axis", "delta1")
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == \
            "--period (or the config file's 'period') is required"

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_trials_below_the_estimators_floor_name_the_flag(self, capsys, tmp_path, command):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**json.loads((CONFIGS / "iid.json").read_text()),
                                    "trials": 5000}))
        for argv, message in [
                (("--config", str(CONFIGS / "iid.json"), "--trials", "5000"),
                 "--trials must be >= 10000, got 5000"),
                (("--config", str(path)),
                 "invalid configuration: 'trials' (--trials) must be >= 10000, got 5000")]:
            code, out, err = run(capsys, command, *argv)
            assert (code, out) == (2, "")
            assert json.loads(err)["error"]["message"] == message


class TestPartialFile:
    """A file may leave out what flags supply; the one validator checks the
    file's own values, and the merged mapping asks for what is missing."""

    def config_file(self, tmp_path, drop=(), **keys):
        doc = {**json.loads((CONFIGS / "iid.json").read_text()), **keys}
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({k: v for k, v in doc.items() if k not in drop}))
        return str(path)

    def test_flags_complete_the_file(self, capsys, tmp_path):
        path = self.config_file(tmp_path, drop=("diffusion_rate", "stationary_variance"))
        code, out, err = run(capsys, "exponent", "--config", path, "--diffusion-rate", "1",
                             "--stationary-variance", "1")
        assert (code, err) == (0, "")
        assert out == run(capsys, "exponent", "--diffusion-rate", "1", "--stationary-variance",
                          "1", "--noise-variance", "1", "--layout", "uniform", "--spacing",
                          "50")[1]

    @pytest.mark.parametrize("drop, flag", [
        (("diffusion_rate",), "--diffusion-rate"),
        (("noise_variance",), "--noise-variance"),
        (("layout",), "--layout"),
    ])
    def test_missing_from_both_names_its_flag(self, capsys, tmp_path, drop, flag):
        code, out, err = run(capsys, "exponent", "--config", self.config_file(tmp_path, drop))
        assert (code, out) == (2, "")
        key = drop[0]
        assert json.loads(err)["error"]["message"] == \
            f"{flag} (or the config file's {key!r}) is required"

    def test_file_layout_completed_by_a_flag(self, capsys, tmp_path):
        path = self.config_file(tmp_path, layout={"kind": "uniform"})
        code, out, err = run(capsys, "exponent", "--config", path)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == \
            "--spacing (or the config file's 'spacing') is required"
        assert exponent(capsys, "--config", path, "--spacing", "2")["layout"] == \
            {"kind": "uniform", "spacing": 2.0}

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_integral_float_for_an_integer_key(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--config", self.config_file(tmp_path, trials=1e5))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == \
            "invalid configuration: 'trials' (--trials) must be of type integer, got 100000.0"


IID = str(CONFIGS / "iid.json")


class TestLayoutFlags:
    @pytest.mark.parametrize("flags, echo", [
        (("--spacing", "2"), {"kind": "uniform", "spacing": 2.0}),
        (("--layout", "uniform"), {"kind": "uniform", "spacing": 50.0}),
        (("--layout", "clustered", "--cluster-size", "2", "--period", "1"),
         {"kind": "clustered", "cluster_size": 2, "period": 1.0}),
    ], ids=["overlay", "same-kind", "other-kind"])
    def test_flags_over_the_file_layout(self, capsys, flags, echo):
        assert exponent(capsys, "--config", IID, *flags)["layout"] == echo

    @pytest.mark.parametrize("argv, message", [
        (("--config", IID, "--cluster-size", "2"),
         "--cluster-size is not a key of layout kind 'uniform'"),
        ((*FIELD, "--spacing", "1"),
         "layout kind must be one of ['uniform', 'clustered', 'periodic'], got None"),
        (("--config", IID, "--layout", "clustered", "--cluster-size", "2"),
         "--period (or the config file's 'period') is required"),
    ], ids=["foreign-key", "no-kind", "other-kind-incomplete"])
    def test_configuration_error(self, capsys, argv, message):
        code, out, err = run(capsys, "exponent", *argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"]["message"] == message


def error_line(message: str) -> str:
    """The stderr of a configuration error with ``message``."""
    return ('{"error": {"exit_code": 2, "message": ' + json.dumps(message)
            + ', "type": "ValueError"}}\n')


COMMANDS = "expected a command (exponent, optimize, sweep, simulate, validate), got "
# Exit code, stdout and stderr of each argv at COLUMNS=80: the help and version
# texts as argparse printed them when its parser held every subcommand's
# flags, and each parse error as its JSON line.
HELP_AND_ERRORS = {
    ("--help",): (0, """\
usage: fieldexp [-h] [--version]
                {exponent,optimize,sweep,simulate,validate} ...

Error exponents for detection of a correlated field under sensor activation
configurations

positional arguments:
  {exponent,optimize,sweep,simulate,validate}
    exponent            closed-form exponent of one layout
    optimize            optimal spacing for 0 < SNR < 1
    sweep               exponent over a parameter grid
    simulate            Monte Carlo miss probabilities
    validate            closed form vs. Monte Carlo decay rate

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
""", ""),
    ("exponent", "--help"): (0, """\
usage: fieldexp exponent [-h] [--config CONFIG]
                         [--diffusion-rate DIFFUSION_RATE]
                         [--stationary-variance STATIONARY_VARIANCE]
                         [--noise-variance NOISE_VARIANCE] [--snr SNR]
                         [--snr-db SNR_DB]
                         [--layout {uniform,clustered,periodic}]
                         [--spacing SPACING] [--cluster-size CLUSTER_SIZE]
                         [--period PERIOD] [--offsets OFFSETS] [--out OUT]
                         [--format {json,csv}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON configuration file
  --diffusion-rate DIFFUSION_RATE
  --stationary-variance STATIONARY_VARIANCE
  --noise-variance NOISE_VARIANCE
  --snr SNR             linear SNR (sets noise variance)
  --snr-db SNR_DB       SNR in dB
  --layout {uniform,clustered,periodic}
  --spacing SPACING
  --cluster-size CLUSTER_SIZE
  --period PERIOD
  --offsets OFFSETS     comma-separated intra-period gaps
  --out OUT             output path, '-' for stdout
  --format {json,csv}
""", ""),
    ("optimize", "--help"): (0, """\
usage: fieldexp optimize [-h] [--config CONFIG]
                         [--diffusion-rate DIFFUSION_RATE]
                         [--stationary-variance STATIONARY_VARIANCE]
                         [--noise-variance NOISE_VARIANCE] [--snr SNR]
                         [--snr-db SNR_DB] [--out OUT] [--format {json,csv}]
                         [--snr-db-grid SNR_DB_GRID]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON configuration file
  --diffusion-rate DIFFUSION_RATE
  --stationary-variance STATIONARY_VARIANCE
  --noise-variance NOISE_VARIANCE
  --snr SNR             linear SNR (sets noise variance)
  --snr-db SNR_DB       SNR in dB
  --out OUT             output path, '-' for stdout
  --format {json,csv}
  --snr-db-grid SNR_DB_GRID
                        start:stop:num dB grid for a spacing curve
""", ""),
    ("sweep", "--help"): (0, """\
usage: fieldexp sweep [-h] [--config CONFIG] [--diffusion-rate DIFFUSION_RATE]
                      [--stationary-variance STATIONARY_VARIANCE]
                      [--noise-variance NOISE_VARIANCE] [--snr SNR]
                      [--snr-db SNR_DB] [--out OUT] [--format {json,csv}]
                      [--axis {a,snr,cluster,delta1,m3}]
                      [--grid-points GRID_POINTS] [--correlation CORRELATION]
                      [--field-length FIELD_LENGTH] [--n-total N_TOTAL]
                      [--sizes SIZES] [--period PERIOD] [--n-ref N_REF]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON configuration file
  --diffusion-rate DIFFUSION_RATE
  --stationary-variance STATIONARY_VARIANCE
  --noise-variance NOISE_VARIANCE
  --snr SNR             linear SNR (sets noise variance)
  --snr-db SNR_DB       SNR in dB
  --out OUT             output path, '-' for stdout
  --format {json,csv}
  --axis {a,snr,cluster,delta1,m3}
  --grid-points GRID_POINTS
                        default: 201, or 61 for --axis m3
  --correlation CORRELATION
                        fixed correlation for --axis snr
  --field-length FIELD_LENGTH
  --n-total N_TOTAL
  --sizes SIZES         comma-separated cluster sizes
  --period PERIOD
  --n-ref N_REF         reference sensor count for approx_miss_prob (default:
                        1, or n_total for --axis cluster)
""", ""),
    ("simulate", "--help"): (0, """\
usage: fieldexp simulate [-h] [--config CONFIG]
                         [--diffusion-rate DIFFUSION_RATE]
                         [--stationary-variance STATIONARY_VARIANCE]
                         [--noise-variance NOISE_VARIANCE] [--snr SNR]
                         [--snr-db SNR_DB]
                         [--layout {uniform,clustered,periodic}]
                         [--spacing SPACING] [--cluster-size CLUSTER_SIZE]
                         [--period PERIOD] [--offsets OFFSETS] [--out OUT]
                         [--format {json,csv}] [--alpha ALPHA]
                         [--trials TRIALS] [--n-values N_VALUES] [--seed SEED]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON configuration file
  --diffusion-rate DIFFUSION_RATE
  --stationary-variance STATIONARY_VARIANCE
  --noise-variance NOISE_VARIANCE
  --snr SNR             linear SNR (sets noise variance)
  --snr-db SNR_DB       SNR in dB
  --layout {uniform,clustered,periodic}
  --spacing SPACING
  --cluster-size CLUSTER_SIZE
  --period PERIOD
  --offsets OFFSETS     comma-separated intra-period gaps
  --out OUT             output path, '-' for stdout
  --format {json,csv}
  --alpha ALPHA
  --trials TRIALS
  --n-values N_VALUES   comma-separated sensor counts
  --seed SEED
""", ""),
    ("validate", "--help"): (0, """\
usage: fieldexp validate [-h] [--config CONFIG]
                         [--diffusion-rate DIFFUSION_RATE]
                         [--stationary-variance STATIONARY_VARIANCE]
                         [--noise-variance NOISE_VARIANCE] [--snr SNR]
                         [--snr-db SNR_DB]
                         [--layout {uniform,clustered,periodic}]
                         [--spacing SPACING] [--cluster-size CLUSTER_SIZE]
                         [--period PERIOD] [--offsets OFFSETS] [--out OUT]
                         [--format {json,csv}] [--alpha ALPHA]
                         [--trials TRIALS] [--n-values N_VALUES] [--seed SEED]
                         [--tolerance TOLERANCE] [--check-alphas CHECK_ALPHAS]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON configuration file
  --diffusion-rate DIFFUSION_RATE
  --stationary-variance STATIONARY_VARIANCE
  --noise-variance NOISE_VARIANCE
  --snr SNR             linear SNR (sets noise variance)
  --snr-db SNR_DB       SNR in dB
  --layout {uniform,clustered,periodic}
  --spacing SPACING
  --cluster-size CLUSTER_SIZE
  --period PERIOD
  --offsets OFFSETS     comma-separated intra-period gaps
  --out OUT             output path, '-' for stdout
  --format {json,csv}
  --alpha ALPHA
  --trials TRIALS
  --n-values N_VALUES   comma-separated sensor counts
  --seed SEED
  --tolerance TOLERANCE
  --check-alphas CHECK_ALPHAS
                        comma-separated sizes for the rate-independence check;
                        empty string disables it
""", ""),
    ("--version",): (0, f"fieldexp {fieldexp.__version__}\n", ""),
    (): (2, "", error_line(COMMANDS + "nothing")),
    ("nosuch",): (2, "", error_line(COMMANDS + "'nosuch'")),
    ("--bogus", "sweep"): (2, "", error_line(COMMANDS + "'--bogus'")),
    ("--bogus", "sweep", "--axis", "m3"): (2, "", error_line(COMMANDS + "'--bogus'")),
    ("sweep", "--axis", "m3", "--bogus", "1"): (2, "", error_line("sweep has no flag --bogus")),
    ("exponent", "--alpha", "0.1"): (2, "", error_line("exponent has no flag --alpha")),
    ("exponent", "--diffusion-rate", "x"): (
        2, "", error_line("--diffusion-rate must be of type float, got 'x'")),
    ("exponent", "--layout", "grid"): (
        2, "", error_line("--layout must be one of ['uniform', 'clustered', 'periodic'], "
                          "got 'grid'")),
    ("optimize", "--snr-d", "1"): (
        2, "", error_line("--snr-d is ambiguous: one of --snr-db, --snr-db-grid")),
    ("sweep", "--axis", "m3", "extra"): (2, "", error_line("expected a --flag, got 'extra'")),
    # --version is a top-level flag only
    ("exponent", "--version"): (2, "", error_line("exponent has no flag --version")),
}

# The flags (by dest) of each subcommand, as the parser that built them all held them.
FIELD_DESTS = {"help", "config", "diffusion_rate", "stationary_variance", "noise_variance",
               "snr", "snr_db", "out", "format"}
LAYOUT_DESTS = {"layout", "spacing", "cluster_size", "period", "offsets"}
MONTE_CARLO_DESTS = {"alpha", "trials", "n_values", "seed"}
DESTS = {
    "exponent": FIELD_DESTS | LAYOUT_DESTS,
    "optimize": FIELD_DESTS | {"snr_db_grid"},
    "sweep": FIELD_DESTS | {"axis", "grid_points", "period", "field_length", "n_total",
                            "sizes", "n_ref", "correlation"},
    "simulate": FIELD_DESTS | LAYOUT_DESTS | MONTE_CARLO_DESTS,
    "validate": FIELD_DESTS | LAYOUT_DESTS | MONTE_CARLO_DESTS | {"tolerance", "check_alphas"},
}


def subcommand_dests(parser) -> dict:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {a.dest for a in p._actions} for name, p in action.choices.items()}


def printed_by(capsys, argv) -> tuple:
    """Exit code, stdout and stderr of ``main(argv)``, which exits after a
    help or version text."""
    try:
        code = cli.main(list(argv))
    except SystemExit as stop:
        code = stop.code
    printed = capsys.readouterr()
    return code, printed.out, printed.err


@pytest.fixture
def columns80(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("FORCE_COLOR", "PYTHON_COLORS"):
        monkeypatch.delenv(name, raising=False)


class TestParser:
    @pytest.mark.parametrize("argv", list(HELP_AND_ERRORS),
                             ids=[" ".join(argv) or "no-arguments" for argv in HELP_AND_ERRORS])
    def test_help_and_errors_byte_identical(self, capsys, columns80, argv):
        assert printed_by(capsys, argv) == HELP_AND_ERRORS[argv]

    @pytest.mark.parametrize("argv, golden", [
        (("sweep", "--axis", "m3", "-h"), ("sweep", "--help")),
        (("exponent", "--layout", "grid", "--help"), ("exponent", "--help")),
        (("exponent", "--out", "-h"), ("exponent", "--help")),
        (("nosuch", "--help"), ("--help",)),
        (("-h", "sweep"), ("--help",)),
        (("--help", "--version"), ("--help",)),
        (("--version", "--bogus"), ("--version",)),
        (("--version", "exponent", "-h"), ("--version",)),
    ])
    def test_a_help_word_anywhere_prints_help(self, capsys, columns80, argv, golden):
        # the help of the first word's command, or the top-level help
        assert printed_by(capsys, argv) == HELP_AND_ERRORS[golden]

    def test_the_help_parser_holds_every_command_and_flag(self):
        assert subcommand_dests(cli._build_parser()) == DESTS

    def test_console_script_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["optimize", "--diffusion-rate", "1", "--snr", "0.5"]
        monkeypatch.setattr(sys, "argv", ["fieldexp", *argv])
        code = cli.main(None)
        printed = capsys.readouterr()
        assert (code, printed.err) == (0, "")
        assert printed.out == run(capsys, *argv)[1]
        assert json.loads(printed.out)["a_star"] > 0


class TestFlagTable:
    """Every schema key has a flag, typed by the schema; every other flag is
    one of the four that set no schema key."""

    def test_every_schema_key_has_a_flag_of_its_type(self):
        schema = experiment_schema()
        branches = schema["$defs"]["layout"]["oneOf"]
        specs = {**{k: v for b in branches for k, v in b["properties"].items() if k != "kind"},
                 **schema["properties"]}
        actions = {a.dest: a for command in DESTS for a in flag_actions(command).values()
                   if a.dest != "help"}
        assert set(specs) - {"snr_values"} <= set(actions)  # the SNR grid is config-only
        assert set(actions) - set(specs) == {"config", "snr", "snr_db", "snr_db_grid"}
        for key, spec in specs.items():
            if key in actions:
                typ = spec.get("type")
                assert actions[key].type is {"number": float, "integer": int}.get(typ, str), key
                assert actions[key].choices == (
                    [b["properties"]["kind"]["const"] for b in branches]
                    if key == "layout" else spec.get("enum")), key

    def test_one_schema_read_per_table(self, monkeypatch):
        reads = []
        monkeypatch.setattr(cli, "experiment_schema",
                            lambda: reads.append(1) or experiment_schema())
        assert len(cli._flags("validate")) == len(DESTS["validate"]) - 1  # -1: help
        assert len(reads) == 1

    def test_unknown_dest_is_named(self, monkeypatch):
        monkeypatch.setitem(cli._SUBCOMMANDS, "optimize", ("help", ("config", "bogus")))
        with pytest.raises(LookupError, match="flag dest 'bogus' of 'optimize' is no schema"):
            cli._flags("optimize")


def argparse_args(argv):
    """vars() of the namespace the command's argparse parser returns for
    ``argv``, or None where it exits (printing its help or error)."""
    parser = cli._build_parser()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


def flag_actions(command) -> dict:
    """The command's argparse actions by their long option string."""
    (action,) = (a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return {s: a for s, a in action.choices[command]._option_string_actions.items()
            if s != "--help"}


# Any text, mostly not what a flag takes; and a value its flag takes, with the
# negative numbers left to the text.
VALUES = st.one_of(
    st.sampled_from(["", "-", "--", "-3", "-1e-3", "1,2", "-20:-2:10", "x", "grid", "xml",
                     " 7 ", "1_0", "1.5"]),
    st.text(alphabet="0123456789.-e=:, ab", max_size=6),
)


def typed_values(action):
    """Values the flag of ``action`` takes, given as text."""
    if action.choices:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(0, 10**6).map(str)
    if action.type is float:
        return st.floats(min_value=0.0).map(repr) | st.just("nan")
    return st.sampled_from(["--", "", "1,2", "0.05,0.2", "-20:-2:10", "configs/iid.json", "a b"])


@st.composite
def command_argvs(draw):
    """A command and words for it: its own flags with values, alone or after
    "=", repeated or not, mixed with help, abbreviated and unknown flags."""
    command = draw(st.sampled_from([*DESTS, "nosuch"]))
    actions = flag_actions(command) if command in DESTS else flag_actions("optimize")
    flag = st.sampled_from(sorted(actions))
    typed = flag.flatmap(lambda f: st.tuples(st.just(f), typed_values(actions[f])))
    pair = st.tuples(st.one_of(typed, typed, typed, st.tuples(flag, VALUES)),
                     st.booleans()).map(
        lambda t: [f"{t[0][0]}={t[0][1]}"] if t[1] else list(t[0]))
    odd = st.one_of(
        st.sampled_from([["-h"], ["--help"], ["--version"], ["--bogus", "1"], ["--"],
                         ["--snr", "1", "--snr-db", "2"]]),
        flag.map(lambda f: [f[:len(f) // 2 + 1]]),  # an abbreviation
        flag.map(lambda f: [f]),  # no value
    )
    words = draw(st.lists(pair, max_size=5))
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(odd))
    argv = [word for group in words for word in group]
    where = draw(st.sampled_from(["first"] * 8 + ["second", "nowhere"]))
    return {"first": [command, *argv], "second": [*argv[:1], command, *argv[1:]],
            "nowhere": argv}[where]


# Each SNR conflict, on each command that takes its flags.
SNR_CONFLICTS = [
    *((command, argv, message) for command in ("exponent", "optimize", "sweep")
      for argv, message in [
          (("--snr", "1", "--snr-db", "0"), "give either --snr or --snr-db, not both"),
          (("--snr", "1", "--noise-variance", "1"),
           "give either an SNR or a noise variance, not both"),
          (("--snr-db=-3", "--noise-variance", "1"),
           "give either an SNR or a noise variance, not both")]),
    ("optimize", ("--snr", "0.5", "--snr-db-grid=-20:-2:3"),
     "give either --snr or --snr-db-grid, not both"),
    ("optimize", ("--snr-db=-3", "--snr-db-grid=-20:-2:3"),
     "give either --snr-db or --snr-db-grid, not both"),
]


def is_help(argv) -> bool:
    """Whether ``main`` prints a help or version text for ``argv``."""
    return bool({"-h", "--help"} & {*argv}) or argv[:1] == ["--version"]


def parsed(argv):
    """``_parse_args(argv)``, or the ValueError it raises."""
    try:
        return cli._parse_args(argv)
    except ValueError as err:
        return err


class TestParseArgs:
    """One reader for every argv that runs a command; argparse, built from
    the same table, is its oracle."""

    @settings(max_examples=300)
    @given(command_argvs())
    def test_a_namespace_of_argparse_is_the_dict(self, argv):
        expected = argparse_args(argv)
        if expected is None or is_help(argv):
            return
        args = parsed(argv)
        if isinstance(args, ValueError):
            # argparse takes "--" after "=" (as [] or "--", by version), and
            # a word of its own that starts with "--" and holds a space: both
            # are no value here
            assert "needs a value" in str(args) and any(
                word.startswith("--") and (word.partition("=")[2] == "--" or " " in word)
                for word in argv), argv
        else:
            # repr tells 1 from 1.0 and sees nan as nan; the order of the keys
            # is the order _resolve checks them in.
            assert repr(list(args.items())) == repr(list(expected.items()))

    @settings(max_examples=300)
    @given(command_argvs())
    def test_a_dict_of_typed_values_or_a_value_error(self, argv):
        if is_help(argv):
            return
        args = parsed(argv)
        if isinstance(args, ValueError):
            return
        actions = [a for a in flag_actions(argv[0]).values() if a.dest != "help"]
        assert list(args) == ["command", *(a.dest for a in actions)]
        for action in actions:
            value = args[action.dest]
            assert value is None or type(value) is (action.type or str), (action.dest, value)
            assert value is None or action.choices is None or value in action.choices

    @pytest.mark.parametrize("argv", [
        ("optimize", "--diffusion-rate", "1", "--noise-variance", "1",
         "--snr-db-grid=-20:-2:10"),
        ("sweep", "--axis", "m3", "--diffusion-rate", "1", "--snr", "0.1", "--period", "0.1",
         "--grid-points", "41"),
        ("validate", "--config", "configs/iid.json", "--seed", "7"),
        ("exponent", "--snr-db=-3", "--snr-db", "2", "--layout", "uniform", "--format=csv"),
        ("validate", "--check-alphas", "", "--n-values=1,2", "--seed", "2"),
        ("optimize",), ("optimize", "--snr", "1", "--snr-db", "2"),
        ("optimize", "--snr-db", "-3"), ("exponent", "--diff", "1", "--lay=periodic"),
        ("exponent", "--snr", "1", "--snr-db", "2"), ("optimize", "--snr-db", "2"),
        ("simulate", "--out", "-", "--n-v", "1,2"),
    ])
    def test_argv_argparse_takes(self, argv):
        assert repr(list(cli._parse_args(argv).items())) == \
            repr(list(argparse_args(argv).items()))

    @pytest.mark.parametrize("argv, message", [
        (("exponent", "--diff"), "--diffusion-rate needs a value"),
        (("exponent", "--out", "--format", "json"), "--out needs a value, got '--format'"),
        (("exponent", "--cluster-size", "1.5"), "--cluster-size must be of type int, got '1.5'"),
        (("sweep", "--axis=z"), "--axis must be one of ['a', 'snr', 'cluster', 'delta1', 'm3'], "
                                "got 'z'"),
        (("sweep", "--", "--axis", "m3"), "expected a --flag, got '--'"),
        (("sweep", "--=m3"), "expected a --flag, got '--=m3'"),
        (("optimize", "-3"), "expected a --flag, got '-3'"),
        (("simulate", "--check-alphas", "1"), "simulate has no flag --check-alphas"),
        (("optimize", "--snr-d=1"), "--snr-d is ambiguous: one of --snr-db, --snr-db-grid"),
        (("exponent", "--version"), "exponent has no flag --version"),
    ])
    def test_error(self, argv, message):
        with pytest.raises(ValueError) as err:
            cli._parse_args(argv)
        assert str(err.value) == message

    @pytest.mark.parametrize("db", ["-3", "-1e-3"])
    def test_negative_value_as_its_own_word(self, capsys, db):
        # argparse refused -1e-3 as a word of its own
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1", "--snr-db", db)
        assert (code, err) == (0, "")
        assert json.loads(out)["a_star"] > 0
        assert run(capsys, "optimize", "--diffusion-rate", "1", f"--snr-db={db}") == \
            (code, out, err)

    @pytest.mark.parametrize("command, conflict, message", SNR_CONFLICTS,
                             ids=[f"{c}-{' '.join(a)}" for c, a, _ in SNR_CONFLICTS])
    def test_snr_conflict_is_one_error_abbreviated_or_not(self, capsys, command, conflict,
                                                          message):
        plain, twin = ((command, rate, "1", *conflict) for rate in ("--diffusion-rate",
                                                                    "--diffusion"))
        code, out, err = run(capsys, *plain)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {"type": "ValueError", "message": message,
                                             "exit_code": 2}}
        assert run(capsys, *twin) == (code, out, err)


class TestImportPath:
    @staticmethod
    def fresh(script: str) -> dict:
        """What ``script`` prints as JSON in a fresh interpreter: the test
        process itself has every module in question loaded."""
        src = str(Path(fieldexp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                              capture_output=True, text=True, env=env, check=True)
        return json.loads(proc.stdout)

    def test_scipy_and_jsonschema_stay_unloaded(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"diffusion_rate": 1, "stationary_variance": 1,
                                   "noise_variance": 1, "bogus": 1}))
        seen = self.fresh(f"""
            import contextlib, io, json, sys
            import fieldexp.cli, fieldexp

            def loaded():
                return sorted({{m.split(".")[0] for m in sys.modules}}
                              & {{"scipy", "jsonschema"}})

            seen = {{"import": loaded()}}
            with contextlib.redirect_stdout(io.StringIO()):
                seen["codes"] = [
                    fieldexp.cli.main(["optimize", "--diffusion-rate", "1",
                                       "--snr", "0.5"]),
                    fieldexp.cli.main(["sweep", "--axis", "m3", "--diffusion-rate",
                                       "1", "--snr", "0.1", "--period", "0.1",
                                       "--grid-points", "5"]),
                ]
            seen["commands"] = loaded()
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                seen["codes"].append(fieldexp.cli.main(
                    ["validate", "--config", {str(bad)!r}]))
            seen["error"] = json.loads(err.getvalue())["error"]
            seen["bad_config"] = loaded()
            print(json.dumps(seen))
        """)
        assert seen["import"] == []
        assert seen["commands"] == []
        assert seen["bad_config"] == []
        assert seen["codes"] == [0, 0, 2]
        assert seen["error"]["message"] == \
            f"invalid configuration: 'bogus' is not a key of {str(bad)!r}"

    def test_plain_flags_load_no_argparse(self, tmp_path):
        """The benchmark's three command shapes and an abbreviated flag run
        without argparse; a help word loads it."""
        small = tmp_path / "iid.json"
        small.write_text(json.dumps({**json.loads((CONFIGS / "iid.json").read_text()),
                                     "trials": 10000, "n_values": [10, 20]}))
        seen = self.fresh(f"""
            import contextlib, io, json, sys
            import fieldexp.cli

            def run(*argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = fieldexp.cli.main(list(argv))
                return [code, out.getvalue()]

            def loaded():
                return sorted({{"argparse", "gettext", "locale"}} & sys.modules.keys())

            codes = [run(*argv)[0] for argv in [
                ["optimize", "--diffusion-rate", "1", "--noise-variance", "1",
                 "--snr-db-grid=-20:-2:10"],
                ["sweep", "--axis", "m3", "--diffusion-rate", "1", "--snr", "0.1",
                 "--period", "0.1", "--grid-points", "41"],
                ["validate", "--config", {str(small)!r}, "--seed", "7"],
            ]]
            seen = {{"codes": codes, "plain": loaded()}}
            layout = ["--snr", "2", "--layout", "uniform", "--spacing", "1"]
            seen["diff"] = run("exponent", "--diff", "1", *layout)
            seen["diffusion_rate"] = run("exponent", "--diffusion-rate", "1", *layout)
            seen["abbreviated"] = loaded()
            try:
                run("exponent", "-h")
            except SystemExit as stop:
                seen["help"] = [stop.code, loaded()]
            print(json.dumps(seen))
        """)
        assert seen["codes"][:2] == [0, 0] and seen["codes"][2] in (0, 1)  # 1: the verdict
        assert seen["plain"] == []
        assert seen["diff"] == seen["diffusion_rate"]
        assert seen["diff"][0] == 0 and json.loads(seen["diff"][1])["exponent_per_sensor"] > 0
        assert seen["abbreviated"] == []
        assert seen["help"][0] == 0 and "argparse" in seen["help"][1]

    def test_thread_pool_loads_only_when_used_and_csv_never(self):
        seen = self.fresh("""
            import contextlib, io, json, os, sys
            import fieldexp.cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = fieldexp.cli.main(list(argv))
                return [code, sorted({"concurrent.futures", "csv"} & sys.modules.keys())]

            field = ["--diffusion-rate", "1", "--stationary-variance", "1",
                     "--noise-variance", "1"]
            m3 = ["sweep", "--axis", "m3", *field, "--period", "0.1", "--grid-points", "5"]
            simulate = ["simulate", *field, "--layout", "uniform", "--spacing", "1",
                        "--n-values", "2", "--trials", "10000",
                        "--format", "csv"]
            seen = [run("optimize", *field, "--snr-db-grid=-20:-2:10"), run(*m3),
                    run(*m3, "--format", "csv")]
            for cpus in ({0}, {0, 1}):  # the process's CPU set is the worker count
                os.sched_getaffinity = lambda pid, cpus=cpus: cpus
                seen.append(run(*simulate))
            print(json.dumps(seen))
        """)
        assert seen == [[0, []], [0, []], [0, []], [0, []], [0, ["concurrent.futures"]]]

    def test_each_command_loads_only_the_modules_it_runs(self):
        """The package loads none of its modules, and the Monte Carlo module,
        with numpy.random, loads only for a Monte Carlo command."""
        seen = self.fresh("""
            import contextlib, io, json, sys

            def loaded():
                return sorted(m for m in sys.modules
                              if m.startswith("fieldexp.") or m == "numpy.random")

            import fieldexp
            seen = {"package": loaded()}
            import fieldexp.cli

            def run(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    code = fieldexp.cli.main(list(argv))
                return [code, loaded()]

            field = ["--diffusion-rate", "1", "--snr", "0.5"]
            seen["optimize"] = run("optimize", *field)
            seen["sweep"] = run("sweep", "--axis", "m3", *field, "--period", "0.1",
                                "--grid-points", "5")
            seen["simulate"] = run("simulate", *field, "--layout", "uniform", "--spacing",
                                   "1", "--n-values", "2", "--trials", "10000")
            print(json.dumps(seen))
        """)
        assert seen["package"] == []
        closed_form = ["fieldexp.cli", "fieldexp.config_opt", "fieldexp.errors",
                       "fieldexp.field_model", "fieldexp.kalman_exponent", "fieldexp.schemas"]
        assert seen["optimize"] == seen["sweep"] == [0, closed_form]
        assert seen["simulate"] == [0, sorted([*closed_form, "fieldexp.mc_detector",
                                               "numpy.random"])]


def stdlib_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=True) + "\n"


class TestReruns:
    """Every command's JSON document is json's own encoding of itself, and a
    rerun that writes it, or the command's CSV, to --out FILE writes the same
    bytes."""

    @pytest.mark.parametrize("argv", [
        ("exponent", *FIELD, *LAYOUTS["clustered"][0]),
        ("sweep", "--axis", "m3", "--period", "0.03", "--grid-points", "5", *FIELD),
        ("optimize", "--diffusion-rate", "1", "--stationary-variance", "1",
         "--snr", "0.5"),
        ("exponent", *FIELD, *LAYOUTS["uniform"][0]),
        ("exponent", *FIELD, *LAYOUTS["periodic"][0]),
        ("exponent", "--config", str(CONFIGS / "perfect-correlation.json")),
        ("optimize", "--diffusion-rate", "1", "--snr-db-grid=-20:-2:4"),
        ("sweep", "--axis", "a", "--snr", "0.1", "--grid-points", "5"),
        ("sweep", "--axis", "snr", "--correlation", "0.5", "--grid-points", "5"),
        ("sweep", "--axis", "cluster", *FIELD),
        ("sweep", "--axis", "delta1", "--period", "0.02", "--grid-points", "5", *FIELD),
        ("sweep", "--axis", "a", "--snr", "1e-300", "--grid-points", "3"),
        ("simulate", "--config", str(CONFIGS / "clustered-low-snr.json"),
         "--n-values", "4,8", "--trials", "10000"),
        ("validate", "--config", str(CONFIGS / "clustered-low-snr.json"),
         "--n-values", "4,8,12,16", "--trials", "10000"),
        ("validate", "--config", str(CONFIGS / "perfect-correlation.json"),
         "--n-values", "8,16,32", "--trials", "10000"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_byte_identical(self, capsys, tmp_path, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            assert out == stdlib_json(json.loads(out))
        path = tmp_path / f"out.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(path)) == (0, "", err)
        assert path.read_bytes() == out.encode()


# Keys: any text, and the characters json escapes.
JSON_KEYS = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\n", "é", "\u2028", "😀", "a\"b\\c"])
JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                | st.integers(min_value=2**64, max_value=2**256) | st.floats()
                | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
                | JSON_KEYS)
JSON_VALUES = st.recursive(JSON_SCALARS, lambda children: (
    st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(JSON_KEYS, children)), max_leaves=40)

TABLE_FLOATS = st.floats() | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])


@st.composite
def json_tables(draw):
    """Columns of one length under keys that json escapes or that hold '%':
    (values, index) pairs of 1 to 6 float64 values and an index, 1-D or 2-D
    of width 0 to 3, into them."""
    rows = draw(st.integers(0, 5))
    keys = draw(st.lists(JSON_KEYS | st.sampled_from(["%", "%s", "%%", "100%", "%(k)s"]),
                         unique=True, max_size=5))
    shapes = st.sampled_from([(rows,), (rows, 0), (rows, 1), (rows, 2), (rows, 3)])
    columns = {}
    for key in keys:
        values = draw(arrays(np.float64, st.integers(1, 6), elements=TABLE_FLOATS))
        columns[key] = values, draw(arrays(np.intp, draw(shapes),
                                           elements=st.integers(0, len(values) - 1)))
    return columns


def table_rows(columns) -> list:
    """The rows a table of ``columns`` stands for, each column by the
    .tolist() of its values gathered by its index."""
    return [dict(zip(columns, row))
            for row in zip(*(values[index].tolist() for values, index in columns.values()))]


def each_value(columns) -> dict:
    """Each float64 array of ``columns`` as the pair of its values, once
    each, and its index into them."""
    return {key: (a.ravel(), np.arange(a.size).reshape(a.shape)) for key, a in columns.items()}


def float_bits(*patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


class TestJsonDump:
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, doc):
        assert cli._json_dump(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        [0.0, -0.0, 0.0],  # equal keys of one memo: the sign must survive
        {"a": -0.0, "b": 0.0, "c": [-0.0]},
        [0.1] * 4,
        [1, 1.0, True, 1.0, np.float64(1.0)],  # 1 == 1.0 == True
        [math.nan, math.nan, float("nan"), math.inf, -math.inf],
        {"x": np.float64(0.25), "y": [np.float64(-0.0), np.float64("nan"), 0.25]},
        [collections.OrderedDict(b=1, a=2), enum.IntEnum("E", "ONE")(1),
         collections.namedtuple("Pair", "x y")(1.5, "s"), type("S", (str,), {})("t")],
        [], {}, [[], {}, [[]]], "top", 2.5, None,
    ])
    def test_explicit_cases(self, doc):
        assert cli._json_dump(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("doc", [
        np.int64(1), [np.bool_(True)], {"s": {1, 2}}, {1: "int key"}, {None: 0},
        cli._Table({1: (np.array([1.0]), np.array([0]))}),
    ])
    def test_type_error(self, doc):
        with pytest.raises(TypeError):
            cli._json_dump(doc)

    @given(json_tables())
    def test_table_matches_its_rows(self, columns):
        rows = table_rows(columns)
        table = cli._Table(columns)
        assert cli._json_dump(table) == stdlib_json(rows)
        assert cli._json_dump({"values": table, "nested": [table]}) == \
            stdlib_json({"values": rows, "nested": [rows]})

    @pytest.mark.parametrize("columns", [
        # the sign of zero survives in each text
        {"z": np.array([0.0, -0.0, 0.0, -0.0]), "g": np.array([[-0.0, 0.0]] * 4)},
        {"grid": np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]),
         "k": np.array([-0.0, 0.0, 5e-324])},
        {"%": np.array([1.5, 2.5]), "%s": np.array([[1.5], [2.5]]),
         "a%%b": np.array([0.1, 0.2])},
        {"k": np.zeros(0)}, {},
        {"nan": float_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                           0x7FF8000000000001, 0xFFFFFFFFFFFFFFFF)},
        {"inf": np.array([[math.inf, -math.inf], [-math.inf, math.inf]]),
         "tiny": np.array([5e-324, -5e-324])},
        {"a": np.zeros(0), "g": np.zeros((0, 2))}, {"g": np.zeros((2, 0))},
    ])
    def test_table_explicit_cases(self, columns):
        columns = each_value(columns)
        rows = table_rows(columns)
        assert cli._json_dump({"values": cli._Table(columns)}) == stdlib_json({"values": rows})

    def test_table_gathers_each_value_by_its_index(self):
        # a value's text is made once and may stand in any row, cell and
        # column order
        columns = {"k": (np.array([0.5, -0.0, math.nan]), np.array([2, 0, 0, 1])),
                   "g": (np.array([1e-300, math.inf]), np.array([[1, 0], [0, 0], [1, 1], [0, 1]]))}
        rows = [{"k": math.nan, "g": [math.inf, 1e-300]}, {"k": 0.5, "g": [1e-300, 1e-300]},
                {"k": 0.5, "g": [math.inf, math.inf]}, {"k": -0.0, "g": [1e-300, math.inf]}]
        assert cli._json_dump({"values": cli._Table(columns)}) == stdlib_json({"values": rows})

    def test_csv_float_columns_are_str(self):
        floats = {"a": float_bits(0, 1 << 63, 1, 0x7FF8000000000001, 0xFFF8000000000000,
                                  0x7FF0000000000000, 0xFFF0000000000000),
                  "b": np.array([0.1, 0.1, 1e16, 1e-5, 2.0, -0.0, 1e300])}
        others = {"c": [1, 1.0, True, "s", None, 2, -0.0], "d": np.arange(7)}
        rows = zip(*(list(v) for v in {**floats, **others}.values()))
        assert cli._csv({**each_value(floats), **others}) == "".join(
            ",".join(map(str, fields)) + "\n" for fields in [(*floats, *others), *rows])

    def test_csv_gathers_each_value_by_its_index(self):
        values = np.array([0.1, -0.0, 1e300])
        index = np.array([2, 2, 0, 1, 0])
        assert cli._csv({"x": (values, index), "n": range(5)}) == "".join(
            f"{x},{n}\n" for x, n in [("x", "n"), *zip(values[index].tolist(), range(5))])

    def test_json_refuses_a_table(self):
        with pytest.raises(TypeError):
            json.dumps({"values": cli._Table({"k": (np.array([1.0]), np.array([0]))})})


SIMULATE = ("simulate", "--diffusion-rate", "1", "--stationary-variance", "1",
            "--noise-variance", "1", "--layout", "uniform", "--spacing", "1",
            "--n-values", "2", "--trials", "10000")


class TestWorkers:
    """The Monte Carlo runs on as many workers as the process has CPUs."""

    @pytest.fixture
    def workers_used(self, monkeypatch):
        """Worker counts the CLI hands to the Monte Carlo estimator."""
        seen = []
        real = mc_detector.estimate_miss_probability

        def spy(params, pattern, alpha, n_values, trials, seed, workers=None):
            seen.append(workers)
            return real(params, pattern, alpha, n_values, trials, seed, workers)

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", spy)
        return seen

    @staticmethod
    def cpu_set(monkeypatch, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)

    def test_the_cpu_set_is_the_worker_count(self, capsys, monkeypatch, workers_used):
        monkeypatch.setenv("FIELDEXP_THREADS", "5")  # no longer read
        for cpus in (1, 3):
            self.cpu_set(monkeypatch, cpus)
            code, _, err = run(capsys, *SIMULATE)
            assert code == 0, err
        assert workers_used == [1, 3]

    @pytest.mark.parametrize("count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_call(self, capsys, monkeypatch, workers_used,
                                                count, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        code, _, err = run(capsys, *SIMULATE)
        assert code == 0, err
        assert workers_used == [workers]

    def test_no_flag_or_key_sets_it(self, capsys, tmp_path, workers_used):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"diffusion_rate": 1.0, "stationary_variance": 1.0,
                                    "noise_variance": 1.0, "threads": 2}))
        code, out, err = run(capsys, *SIMULATE, "--config", str(path))
        assert (code, out, workers_used) == (2, "", [])
        assert json.loads(err)["error"]["message"] == \
            f"invalid configuration: 'threads' is not a key of {str(path)!r}"
        code, out, err = run(capsys, *SIMULATE, "--threads", "2")
        assert (code, out, workers_used) == (2, "", [])
        assert json.loads(err)["error"]["message"] == "simulate has no flag --threads"

    def test_validate_output_does_not_depend_on_the_cpu_set(self, capsys, monkeypatch,
                                                            workers_used):
        argv = ("validate", "--diffusion-rate", "1", "--stationary-variance", "1",
                "--noise-variance", "1", "--layout", "uniform", "--spacing", "0.5",
                "--trials", "10000", "--n-values", "4,8,16,32",
                "--check-alphas", "0.05", "--seed", "7")
        outputs = []
        for cpus in (1, 3):
            self.cpu_set(monkeypatch, cpus)
            outputs.append(run(capsys, *argv))
        assert outputs[0][0] in (0, 1) and json.loads(outputs[0][1])["estimates"]
        assert outputs[1] == outputs[0]
        assert workers_used == [1] * 2 + [3] * 2
