"""End-to-end benchmark: seeded query/update workloads over the public API.

Run ``python3 benchmarks/e2e/run.py --help`` (or ``python -m
benchmarks.e2e.run``) from the repository root; see ``README.md`` here
for the workloads, metrics and measured spreads.
"""
