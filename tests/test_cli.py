import json
from pathlib import Path

import pytest

from fieldexp import cli

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
