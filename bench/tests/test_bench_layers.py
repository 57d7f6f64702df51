import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from fieldexp.field_model import FieldParams, Hypothesis, Uniform, _sample_columns
from fieldexp.mc_detector import uniform_family

from bench import checks, layers, workloads
from bench.run import END_TO_END
from bench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
PARAMS = FieldParams(diffusion_rate=1.0, stationary_variance=1.0, noise_variance=1.0)


class CountingRng:
    """Stands in for a Generator: counts the standard normals asked for."""

    def __init__(self):
        self.drawn = 0

    def standard_normal(self, size):
        self.drawn += int(np.prod(size))
        return np.zeros(size)


class TestCounts:
    @pytest.mark.parametrize("hypothesis", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_normals_match_the_sampler(self, hypothesis, n):
        rng = CountingRng()
        _sample_columns(PARAMS, Uniform(0.5, n), hypothesis, rng, 13)
        assert layers.normals(n, 13, hypothesis is Hypothesis.H1) == rng.drawn

    def test_traced_estimate_counts(self):
        modules = {m: importlib.import_module(f"fieldexp.{m}") for m in layers.MODULES}
        tracer = Tracer()
        with tracer.patched(layers.boundaries(modules)):
            est = modules["mc_detector"].estimate_miss_probability(
                PARAMS, uniform_family(0.5), 0.1, [2, 4], 10_000, seed=3)
        assert modules["mc_detector"]._sample_columns is _sample_columns
        metrics = layers.layer_metrics(tracer.spans)
        assert metrics["mc_detector.estimate.calls"] == 1
        assert metrics["mc_detector.llr.sensor_trials"] == 2 * 10_000 * (2 + 4)
        assert layers.sensor_trials(est.n_values, est.trials) == 2 * 10_000 * 6
        # 10_000 trials are 3 blocks, per n and hypothesis
        assert metrics["field_model.sample.calls"] == 3 * 2 * 2
        assert metrics["field_model.sample.normals"] == 10_000 * (2 + 4) * (1 + 2)
        assert metrics["mc_detector.estimate.self_s"] < \
            tracer.spans[0].duration
        assert metrics["mc_detector.fit.useful_share"] == 0.0  # too few n to fit

    def test_percentiles_pool_repetitions(self):
        name, metric = "config_opt.optimal_spacing", "config_opt.optimal_spacing.p50_ms"
        one_repetition = [1e-3 * i for i in range(1, 11)]
        assert layers.percentile_metrics({name: one_repetition})[metric] == 0.0
        pooled = layers.percentile_metrics({name: one_repetition * 2})
        assert pooled[metric] == pytest.approx(5.0)
        assert pooled["kalman_exponent.vector_exponent.p99_ms"] == 0.0  # not called


class TestBenchmarkFile:
    def test_metric_lists_match_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
        assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
            list(layers.PER_LAYER)
        assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


class TestWorkloads:
    def test_default_seed_gives_the_reference_commands(self):
        seed = workloads.DEFAULT_SEED
        assert [c.argv[-1] for c in workloads.commands("validate-mc", seed)] == \
            [str(seed)] * 3
        assert " ".join(workloads.commands("sweep-m3", seed)[0].argv) == (
            "sweep --axis m3 --diffusion-rate 1 --snr 0.1 --period 0.1 --grid-points 41")
        assert workloads.commands("optimize-snr", seed)[0].argv[-1] == \
            "--snr-db-grid=-20:-2:10"

    def test_other_seeds_jitter_slightly_and_repeat(self):
        for seed in (1, 2, 12345):
            argv = workloads.commands("sweep-m3", seed)[0].argv
            assert argv == workloads.commands("sweep-m3", seed)[0].argv
            snr, period = float(argv[6]), float(argv[8])
            assert abs(snr / 0.1 - 1) <= workloads.M3_JITTER
            assert abs(period / 0.1 - 1) <= workloads.M3_JITTER
            start, stop, num = workloads.commands("optimize-snr", seed)[0] \
                .argv[-1].split("=")[1].split(":")
            assert abs(float(start) + 20) <= workloads.DB_JITTER
            assert abs(float(stop) + 2) <= workloads.DB_JITTER and num == "10"


class TestChecks:
    def m3_payload(self, k):
        axis = [0.0, 0.5, 1.0]
        values = [{"grid": [x2, x3], "k_per_sensor": k(x2, x3)} for x2 in axis for x3 in axis]
        return {"values": values, "argmax": [0.0, 0.0], "argmax_label": "clustering"}

    def test_m3_asymmetry_is_a_problem(self):
        ref = {"k_per_sensor": [0.0] * 9}
        symmetric = self.m3_payload(lambda x2, x3: x2 + x3)
        skewed = self.m3_payload(lambda x2, x3: x2 + 2 * x3)
        assert checks._m3_invariants(symmetric, ref) == []
        assert checks._m3_invariants(skewed, ref) == ["k(x2, x3) != k(x3, x2)"]

    def test_one_changed_miss_count_fails_the_reference_check(self):
        ref = checks.load_reference()["iid"]
        got = json.loads(json.dumps(ref))
        assert checks.compare("validate", got, ref) == []
        got["estimates"]["0.2"]["misses"][3] += 1
        assert checks.compare("validate", got, ref) == ["estimates differs from the reference"]

    def test_exit_code_two_is_a_failure(self):
        problems, _ = checks.check("validate", "iid", 2, "", False, {})
        assert problems == ["exit code 2"]
