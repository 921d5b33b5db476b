"""Benchmark harness for harchow; see run.py."""
