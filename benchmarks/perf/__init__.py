"""Repository benchmark: four batch workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 -m benchmarks.perf --workload provision --seed 0 --seconds 30 --trace 0

See ``benchmarks/perf/README.md`` for the workloads, the metrics and
their bounds, and the baseline numbers.
"""
