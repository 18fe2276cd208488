"""Benchmark of mzdephase: workloads, independent reference, output checks and
tracing.  Run it with ``python3 bench/run.py``; see README.md in this folder."""
