"""Benchmark for eltlab; see run.py."""
