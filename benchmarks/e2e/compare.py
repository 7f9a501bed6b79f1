"""Compare two sets of benchmark runs, metric by metric and workload by
workload.

    python -m benchmarks.e2e.compare A/summary.json B/summary.json

Each file is the ``summary.json`` that ``run.py`` writes in all-workload
mode (``--repeat N`` gives N seeds per workload).  For every metric the
two sides share, it prints each side's median and quartiles and, for the
metrics ``BENCHMARK.json`` bounds, a verdict on B against A:

* ``within bound``: B's median is worse than A's by at most the bound;
* ``worse``: by more than the bound;
* ``unresolved``: either side's quartile spread, (q3 - q1) / median, is
  wider than the bound, so the medians cannot decide.  The exception is
  ``better``: every run of B reads better than every run of A.

Exit status 1 when any verdict is ``worse`` or ``unresolved``, so two
sets of runs on the same commit agree exactly when it exits 0.

The result files also carry latencies the result line cannot: the
update p50 and every p90 that has enough samples beyond it
(``detail.latency``).  These rows get a verdict against
``DETAIL_BOUND``, marked ``(detail)``, and never set the exit status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from benchmarks.e2e.stats import quartiles

__all__ = ["main", "verdict"]

ROOT = Path(__file__).resolve().parents[2]

#: The bound for latencies read from ``detail.latency``: the one the
#: end-to-end timings were specified with.
DETAIL_BOUND = 0.1


def load_specs(path: Path) -> dict[str, dict[str, Any]]:
    """Metric name -> ``{"unit", "better", "bound"}`` from BENCHMARK.json."""
    bench = json.loads(path.read_text())
    specs = {}
    for section in ("end_to_end", "per_layer"):
        for spec in bench[section]:
            specs[spec["name"]] = {
                "unit": spec["unit"],
                "better": spec["better"],
                "bound": spec.get("bound"),
            }
    return specs


def load_runs(path: Path) -> dict[str, dict[str, list[float]]]:
    """Workload -> metric -> one value per run, including the
    ``detail.latency`` percentiles the result line does not carry."""
    grouped: dict[str, dict[str, list[float]]] = {}
    for run in json.loads(path.read_text())["runs"]:
        metrics = grouped.setdefault(run["workload"], {})
        for name, metric in run["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        for kind, row in run.get("detail", {}).get("latency", {}).items():
            for q in ("p50", "p90"):
                name, value = f"{kind}_{q}_ms", row.get(f"{q}_ms")
                if value is not None and name not in run["metrics"]:
                    metrics.setdefault(name, []).append(value)
    return grouped


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> str:
    """B's verdict against A (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    worse_by = sign * (b_med - a_med) / abs(a_med)
    return "worse" if worse_by > bound else "within bound"


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e.compare", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("a", type=Path, help="baseline summary.json")
    parser.add_argument("b", type=Path, help="candidate summary.json")
    args = parser.parse_args(argv)

    specs = load_specs(ROOT / "BENCHMARK.json")
    side_a, side_b = load_runs(args.a), load_runs(args.b)
    status = 0
    print(f"{'workload':<14} {'metric':<28} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'change':>8}  verdict")
    for workload in sorted(side_a.keys() & side_b.keys()):
        metrics_a, metrics_b = side_a[workload], side_b[workload]
        for name in metrics_a:
            if name not in metrics_b:
                continue
            a, b = metrics_a[name], metrics_b[name]
            qa, qb = quartiles(a), quartiles(b)
            spec = specs.get(name)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            if spec is None and name.endswith("_ms"):
                outcome = verdict(a, b, "lower", DETAIL_BOUND) + " (detail)"
            elif spec is None or spec["bound"] is None:
                outcome = "-"
            else:
                outcome = verdict(a, b, spec["better"], spec["bound"])
                if outcome in ("worse", "unresolved"):
                    status = 1
            print(f"{workload:<14} {name:<28} {_cell(qa):>34} "
                  f"{_cell(qb):>34} {change:>+8.1%}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
