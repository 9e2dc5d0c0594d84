"""Benchmark of the zenoprop CLI; run it with ``python3 perfbench/run.py``."""
