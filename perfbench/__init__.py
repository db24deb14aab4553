"""The repository benchmark: seeded workloads, output checks, traced runs.

Run it from the repository root::

    python3 perfbench/run.py --workload decode-batch --seed 1 --seconds 25 --trace 0

See ``perfbench/README.md`` for the workloads, metrics and the traced run.
"""
