"""One repetition of a workload, in a fresh process started by ``run.py``.

    python3 bench/worker.py ROOT WORKLOAD SEED MODE [SPANS_PATH]

MODE is ``setup`` (import only), ``run`` (untimed checks after timed
commands) or ``trace`` (the same, with spans around the program's layer
boundaries, written to SPANS_PATH).  Prints one JSON record on stdout.

Only ``sys`` and ``time`` are imported before the set-up timer starts, so
set-up time covers everything ``fieldexp.cli`` pulls in.
"""

import sys
import time


def _call(main, argv) -> int:
    try:
        return main(list(argv))
    except SystemExit as stop:  # argparse rejects the argv
        return stop.code if isinstance(stop.code, int) else 2


def main(argv) -> int:
    root, workload, seed, mode = argv[1], argv[2], int(argv[3]), argv[4]

    start = time.perf_counter()
    import fieldexp.cli
    import fieldexp.field_model
    fieldexp.field_model.experiment_schema()
    setup_s = time.perf_counter() - start

    import importlib
    import io
    import json
    import resource
    from contextlib import ExitStack, redirect_stderr, redirect_stdout
    from pathlib import Path

    expected = Path(root, "src", "fieldexp", "__init__.py").resolve()
    if Path(fieldexp.__file__).resolve() != expected:
        sys.stderr.write(f"fieldexp imported from {fieldexp.__file__}, not {expected}\n")
        return 2
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from bench import checks, workloads

    commands = workloads.commands(workload, seed)
    tracer = None
    with ExitStack() as stack:
        if mode == "trace":
            from bench import layers, spans
            tracer = spans.Tracer()
            modules = {name: importlib.import_module(f"fieldexp.{name}")
                       for name in layers.MODULES}
            stack.enter_context(tracer.patched(layers.boundaries(modules)))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_start = usage.ru_utime + usage.ru_stime
        results = []
        for cmd in commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                if tracer is None:
                    rc = _call(fieldexp.cli.main, cmd.argv)
                else:
                    tracer.run_id = f"{workload}:{seed}:{cmd.key}"
                    with tracer.span("cli.main") as span:
                        rc = _call(fieldexp.cli.main, cmd.argv)
                    span.counts["output_bytes"] = len(out.getvalue().encode())
                seconds = time.perf_counter() - t0
            results.append((cmd, rc, seconds, out.getvalue(), err.getvalue()))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s = usage.ru_utime + usage.ru_stime - cpu_start

    reference = checks.load_reference()
    record = {
        "setup_s": setup_s,
        "wall_s": sum(r[2] for r in results),
        "cpu_s": cpu_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "commands": [],
    }
    for cmd, rc, seconds, text, errors in results:
        problems, summary = checks.check(cmd.kind, cmd.key, rc, text,
                                         seed == workloads.DEFAULT_SEED, reference)
        record["commands"].append({
            "key": cmd.key, "argv": list(cmd.argv), "rc": rc, "seconds": seconds,
            "output_bytes": len(text.encode()), "problems": problems,
            "summary": summary, "stderr": errors[-2000:],
        })
    if tracer is not None:
        record["layers"] = layers.layer_metrics(tracer.spans)
        record["durations"] = layers.durations(tracer.spans)
        record["busy_shares"] = layers.busy_shares(tracer.spans)
        record["spans"] = len(tracer.spans)
        tracer.write_jsonl(argv[5])
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
