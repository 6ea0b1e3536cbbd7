"""Benchmark of chansim6g campaigns; see README.md."""
