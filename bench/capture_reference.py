"""Write ``reference.json``: what the checks compare at the default seed.

Run from the repository root, against the code whose outputs are the
reference (the seed code, for the committed file):

    PYTHONPATH=src:. python3 bench/capture_reference.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

import fieldexp.cli

from bench import checks, workloads


def main() -> None:
    reference = {}
    for name in workloads.WORKLOADS:
        for cmd in workloads.commands(name, workloads.DEFAULT_SEED):
            out = io.StringIO()
            with redirect_stdout(out):
                rc = fieldexp.cli.main(list(cmd.argv))
            if rc not in (0, 1):
                raise SystemExit(f"{' '.join(cmd.argv)} exited {rc}")
            reference[cmd.key] = checks.digest(cmd.kind, json.loads(out.getvalue()))
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
