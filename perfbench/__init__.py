"""Benchmark for nltariff: workloads, output checks and layer traces; see README.md."""
