"""Benchmark of the timebin-cavity CLI; see README.md."""
