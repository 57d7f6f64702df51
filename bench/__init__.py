"""End-to-end and per-layer benchmark of the ``fieldexp`` command line.

Run ``python3 bench/run.py --workload all`` from the repository root; see
``bench/NOTES.md`` for the workloads and metrics.
"""
