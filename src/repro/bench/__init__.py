"""Benchmark harness (``repro-bench``).

Measures the enumeration and maximum searches, the session queries and
the core maintenance on the registry datasets and writes
machine-readable ``BENCH_*.json`` reports.  The measurement
protocol lives in :mod:`repro.bench.runner`; the checked-in reports under
``benchmarks/perf/`` are produced by the console script in
:mod:`repro.bench.cli`.
"""

from repro.bench.queries import (
    QueriesReport,
    QueryOpResult,
    run_queries_bench,
)
from repro.bench.runner import (
    BenchReport,
    ConfigResult,
    EngineRun,
    run_enumeration_bench,
    run_maximum_bench,
)

__all__ = [
    "BenchReport",
    "ConfigResult",
    "EngineRun",
    "QueriesReport",
    "QueryOpResult",
    "run_enumeration_bench",
    "run_maximum_bench",
    "run_queries_bench",
]
