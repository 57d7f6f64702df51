import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fieldexp
from fieldexp import cli, mc_detector

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
LAYOUTS = {
    "uniform": (("--layout", "uniform", "--spacing", "0.5", "--count", "10"), 1),
    "clustered": (("--layout", "clustered", "--cluster-size", "3",
                   "--cluster-count", "4", "--period", "1.0"), 3),
    "periodic": (("--layout", "periodic", "--offsets", "0.1,0.0,0.4",
                  "--period-count", "2"), 3),
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


UNIFORM = ("--layout", "uniform", "--spacing", "1", "--count", "1")


class TestNonFiniteInput:
    @pytest.mark.parametrize("argv, name", [
        (("--diffusion-rate", "inf", "--snr", "1", "--layout", "periodic",
          "--offsets", "0,1", "--period-count", "1"), "diffusion_rate"),
        (("--diffusion-rate", "inf", "--snr", "1", "--layout", "clustered",
          "--cluster-size", "2", "--cluster-count", "1", "--period", "1"),
         "diffusion_rate"),
        (("--diffusion-rate", "1", "--stationary-variance", "inf",
          "--noise-variance", "1", *UNIFORM), "stationary_variance"),
        (("--diffusion-rate", "1", "--noise-variance", "inf", *UNIFORM),
         "noise_variance"),
        (("--diffusion-rate", "1", "--snr", "1", "--layout", "periodic",
          "--offsets", "1,inf", "--period-count", "1"), "offsets"),
    ], ids=["rate-periodic", "rate-clustered", "signal", "noise", "offsets"])
    def test_configuration_error(self, capsys, argv, name):
        code, out, err = run(capsys, "exponent", *argv)
        assert (code, out) == (2, "")
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        assert error["message"].startswith(f"{name} must be finite")


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


class TestExitCodes:
    def test_optimize_without_a_root_is_a_numeric_failure(self, capsys):
        code, out, err = run(capsys, "optimize", "--diffusion-rate", "1",
                             "--snr", "0.99999999")
        assert (code, out) == (3, "")
        error = json.loads(err)["error"]
        assert error["type"] == "RootNotFound"
        assert error["exit_code"] == 3
        assert error["message"].startswith("no interior sign change")

    def test_failed_validation_check(self, capsys):
        code, out, err = run(capsys, "validate", "--config", str(CONFIGS / "iid.json"),
                             "--tolerance", "0.001", "--trials", "10000")
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["passed"] is False
        assert report["budget"]["rel_tol"] == 0.001


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
            assert p["approx_miss_prob"] == math.exp(-50 * p["k_per_sensor"])

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
            assert p["approx_miss_prob"] == math.exp(-expected * p["k_per_sensor"])


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


class TestImportPath:
    def test_scipy_and_jsonschema_stay_unloaded(self, tmp_path):
        # a fresh interpreter: the test process itself has both loaded
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"diffusion_rate": 1, "stationary_variance": 1,
                                   "noise_variance": 1, "bogus": 1}))
        script = textwrap.dedent(f"""
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
            print(json.dumps(seen))
        """)
        src = str(Path(fieldexp.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, check=True)
        seen = json.loads(proc.stdout)
        assert seen["import"] == []
        assert seen["commands"] == []
        assert seen["codes"] == [0, 0, 2]
        assert seen["error"]["message"] == ("invalid configuration: Additional "
                                            "properties are not allowed ('bogus' "
                                            "was unexpected)")


class TestReruns:
    @pytest.mark.parametrize("argv", [
        ("exponent", *FIELD, *LAYOUTS["clustered"][0]),
        ("sweep", "--axis", "m3", "--period", "0.03", "--grid-points", "5", *FIELD),
        ("optimize", "--diffusion-rate", "1", "--stationary-variance", "1",
         "--snr", "0.5"),
    ])
    def test_byte_identical(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first[0] == 0
        assert first == second


SIMULATE = ("simulate", "--diffusion-rate", "1", "--stationary-variance", "1",
            "--noise-variance", "1", "--layout", "uniform", "--spacing", "1",
            "--count", "2", "--n-values", "2", "--trials", "10000")
CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count()


class TestThreads:
    @pytest.fixture
    def workers_used(self, monkeypatch):
        """Worker counts the CLI hands to the Monte Carlo estimator."""
        seen = []
        real = mc_detector.estimate_miss_probability

        def spy(params, pattern, alpha, n_values, trials, seed, workers=None):
            seen.append(workers)
            return real(params, pattern, alpha, n_values, trials, seed, workers)

        monkeypatch.setattr(mc_detector, "estimate_miss_probability", spy)
        monkeypatch.delenv("FIELDEXP_THREADS", raising=False)
        return seen

    @pytest.mark.parametrize("flag, config, env, expected", [
        ("3", 2, "5", 3),
        (None, 2, "5", 2),
        (None, None, "5", 5),
        (None, None, None, CPUS),
    ])
    def test_precedence(self, capsys, monkeypatch, tmp_path, workers_used,
                        flag, config, env, expected):
        argv = list(SIMULATE)
        if flag is not None:
            argv += ["--threads", flag]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"diffusion_rate": 1.0, "stationary_variance": 1.0,
                                        "noise_variance": 1.0, "threads": config}))
            argv += ["--config", str(path)]
        if env is not None:
            monkeypatch.setenv("FIELDEXP_THREADS", env)
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        assert workers_used == [expected]

    @pytest.mark.parametrize("flag, env, shown", [
        ("0", None, "0"), ("-2", None, "-2"), (None, "0", "'0'"), (None, "two", "'two'"),
    ])
    def test_count_below_one_is_a_configuration_error(self, capsys, monkeypatch,
                                                      workers_used, flag, env, shown):
        argv = [*SIMULATE, *(("--threads", flag) if flag is not None else ())]
        if env is not None:
            monkeypatch.setenv("FIELDEXP_THREADS", env)
        code, out, err = run(capsys, *argv)
        assert (code, out, workers_used) == (2, "", [])
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert error["exit_code"] == 2
        source = "--threads" if flag is not None else "FIELDEXP_THREADS"
        assert error["message"] == f"{source} must be a positive integer, got {shown}"

    def test_validate_output_does_not_depend_on_threads(self, capsys, workers_used):
        argv = ("validate", "--diffusion-rate", "1", "--stationary-variance", "1",
                "--noise-variance", "1", "--layout", "uniform", "--spacing", "0.5",
                "--count", "4", "--trials", "10000", "--n-values", "4,8,16,32",
                "--check-alphas", "0.05", "--seed", "7")
        default = run(capsys, *argv)
        assert default[0] in (0, 1) and json.loads(default[1])["estimates"]
        assert run(capsys, *argv, "--threads", "1") == default
        assert run(capsys, *argv, "--threads", "3") == default
        assert workers_used == [CPUS] * 2 + [1] * 2 + [3] * 2
