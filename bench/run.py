"""Benchmark of the ``fieldexp`` command line, end to end and per layer.

    python3 bench/run.py --workload validate-mc|sweep-m3|optimize-snr|all \
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  Each
repetition of a workload runs in a fresh process (``worker.py``) and calls
``fieldexp.cli.main`` for each of the workload's commands in turn.
Repetitions continue until ``--seconds`` have passed, and every output is
checked.  With ``--trace 0`` the last stdout line holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of traced
repetitions, alternated with untraced ones to measure the tracing overhead.
The line before it is a report with the environment, every command and the
workload-specific figures.  Exits non-zero, printing no result, when the
program cannot be imported or a repetition fails to complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from bench import layers, workloads  # noqa: E402

# Set-up is sampled at least this often per run; the median is reported.
SETUP_SAMPLES = 5
# A run must end within 180 s; no repetition may outlast this.
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("FIELDEXP_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _worker(workload: str, seed: int, mode: str, deadline: float) -> dict:
    argv = [sys.executable, str(ROOT / "bench" / "worker.py"), str(ROOT),
            workload, str(seed), mode]
    if mode == "trace":
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        argv.append(str(out_dir / f"{workload}.spans.jsonl"))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for a {mode} repetition of {workload}")
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{workload} {mode} repetition timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _failed(rep: dict) -> int:
    return sum(1 for c in rep["commands"] if c["problems"])


def _work_per_s(rep: dict) -> float:
    return sum(c["summary"].get("work", 0) for c in rep["commands"]) / rep["wall_s"]


def _command_report(reps: list[dict]) -> list[dict]:
    out = []
    for i, cmd in enumerate(reps[0]["commands"]):
        runs = [r["commands"][i] for r in reps]
        out.append({
            "key": cmd["key"], "argv": cmd["argv"],
            "seconds": statistics.median(c["seconds"] for c in runs),
            "exit_codes": sorted({c["rc"] for c in runs}),
            "output_bytes": cmd["output_bytes"],
            "summary": cmd["summary"],
            "problems": sorted({p for c in runs for p in c["problems"]}),
            **({"stderr": cmd["stderr"]} if cmd["stderr"] else {}),
        })
    return out


def _figures(wl: workloads.Workload, reps: list[dict], setup_s: float,
             attempted: int, failed: int) -> dict:
    """Every end-to-end figure by name, with its unit, including those that
    exist on one workload only and are therefore not gated."""
    med = statistics.median
    figures = {
        "wall_s": (med(r["wall_s"] for r in reps), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in reps), "MB"),
        "failed_share": (failed / attempted, "fraction"),
        wl.work_metric: (med(_work_per_s(r) for r in reps), "1/s"),
    }
    for name, idx in wl.groups.items():
        figures[name] = (med(sum(r["commands"][i]["seconds"] for i in idx)
                             for r in reps), "s")
    devs = [c["summary"]["rel_deviation"] for c in reps[0]["commands"]
            if "rel_deviation" in c["summary"]]
    if devs:
        figures["rate_rel_dev"] = (max(devs), "fraction")
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (report, result)."""
    wl = workloads.WORKLOADS[name]
    med = statistics.median
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    traced, plain = [], []
    # A traced run makes at least two traced repetitions, so percentiles of
    # calls made ten times per repetition can be reported.
    while not plain or (trace and len(traced) < 2) or time.monotonic() - start < seconds:
        if trace and len(traced) <= len(plain):
            traced.append(_worker(name, seed, "trace", deadline))
        else:
            plain.append(_worker(name, seed, "run", deadline))
    reps = traced + plain
    attempted = sum(len(r["commands"]) for r in reps)
    failed = sum(_failed(r) for r in reps)

    report = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "repetitions": {"untraced": len(plain), "traced": len(traced)},
              "commands": _command_report(plain)}
    if trace:
        metrics = {key: med(t["layers"][key] for t in traced)
                   for key in traced[0]["layers"]}
        metrics.update(layers.percentile_metrics(
            {span: [d for t in traced for d in t["durations"][span]]
             for span in traced[0]["durations"]}))
        metrics["run.cpu_s"] = med(p["cpu_s"] for p in plain)
        metrics["run.cpu_util"] = med(p["cpu_s"] / p["wall_s"] for p in plain)
        metrics["trace.overhead_share"] = \
            metrics["trace.wall_s"] / med(p["wall_s"] for p in plain) - 1.0
        report["busy_shares"] = traced[-1]["busy_shares"]
        report["spans_per_repetition"] = traced[-1]["spans"]
        units = {n: u for n, u, _ in layers.PER_LAYER}
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker(name, seed, "setup", deadline)["setup_s"])
        metrics = {
            "wall_s": med(r["wall_s"] for r in plain),
            "setup_s": med(setups),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in plain),
        }
        report["setup_samples"] = setups
        report["figures"] = _figures(wl, plain, metrics["setup_s"], attempted, failed)
        units = dict(END_TO_END)
    report["environment"] = environment()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return report, result


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "fieldexp_threads_cleared": True,
        "fieldexp_threads_inherited": os.environ.get("FIELDEXP_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fieldexp" / "cli.py").is_file():
        sys.stderr.write(f"no fieldexp sources under {ROOT / 'src'}\n")
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for name in names:
            report, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            lines.append((name, report, result))
    except BenchError as err:
        sys.stderr.write(f"{err}\n")
        return 1
    for name, report, result in lines:
        print(json.dumps(report))
        if len(names) > 1:
            print(json.dumps({"workload": name, **result}))
    if len(names) == 1:
        print(json.dumps(lines[0][2]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for _, _, r in lines),
            "attempted": sum(r["attempted"] for _, _, r in lines),
            "failed": sum(r["failed"] for _, _, r in lines),
            "metrics": {f"{n}.{k}": v for n, _, r in lines
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
