"""Benchmark of jacobi-heat: three workloads timed end to end and traced per module.

Run `python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1`
from the root of a checkout; see perfbench/README.md.
"""
