"""Benchmark for adaptt: workloads, generators, tracer and driver.

Run ``python3 perfbench/run.py --help``; README.md here describes the
metrics and workloads.
"""
