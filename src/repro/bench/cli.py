"""``repro-bench`` — benchmark runner.

Full mode (the default) reproduces the checked-in reports under
``benchmarks/perf/``: the dblp_like registry graph at full scale,
median of 5 interleaved repetitions per config, for both the enumeration
(``muce_plus_plus``) and maximum (``max_uc_plus``) drivers.  Both also
run :data:`OVERSIZED_CONFIG`, whose search meets a cut piece above the
kernel limit, so the per-vertex views are measured too.

The enumeration suite runs a ``pivot`` arm and a ``nocut`` arm (the same
search with ``cut=False``), so the cut is measured against the plain
component split: each config reports its ``cut_speedup`` and every arm's
median cut and search phases.

``--quick`` shrinks the dataset and repetition count to a CI-smoke-sized
run (~tens of seconds); the oversized config keeps its scale, below
which its piece fits the limit.  ``--check`` turns the run into a gate,
exit status 1 when:

* a config's outputs break the suite's identity contract (clique-set
  identity of the ``nocut`` arm with the ``pivot`` arm for enumeration;
  for the maximum search, the same clique and counters on every
  repetition, and that clique the canonical maximum of an untimed
  enumeration);
* on a full-scale run, an engines-suite arm's median, in units of its
  config's ``calibration_s``, exceeds ``1 + --tolerance`` times the same
  config and arm of the checked-in ``benchmarks/perf/BENCH_*.json``,
  read before this run overwrites it
  (:func:`~repro.bench.runner.calibrated_regressions`).  A config the
  record lacks prints "no baseline", and ``--quick`` runs are never
  speed-gated;
* the queries suite's compile accounting breaks (a cold session records
  one nonzero compile lap, a warm session records exactly zero).

``--verbose`` prints the per-phase wall-clock breakdown (compile /
prune / cut / views / search; MaxUC+ alone laps its view and color
builds as ``views``) recorded by the stats timings.

``--suite`` selects which benchmarks run: ``engines`` (the default,
above), ``queries`` (the repeated-query cold-vs-warm session suite of
:mod:`repro.bench.queries`, written to ``BENCH_queries.json``),
``streaming`` (the edge-update maintain-vs-recompute suite of
:mod:`repro.bench.streaming`, written to ``BENCH_streaming.json``), or
``all``.  The streaming gates: the maintained core must be
set-identical to a cold recompute after every update, and on full-scale
runs the reweight stream's maintain arm must beat recompute by at
least 5x (the scoped-invalidation headline).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

from repro.bench.queries import QueriesReport, run_queries_bench
from repro.bench.runner import (
    BenchReport,
    calibrated_regressions,
    run_enumeration_bench,
    run_maximum_bench,
)
from repro.bench.streaming import (
    FULL_UPDATES,
    QUICK_UPDATES,
    StreamingReport,
    run_streaming_bench,
)

__all__ = ["main"]

#: Headline config first: docs/performance.md quotes this list's first
#: entry.
ENUM_CONFIGS = [(4, 0.2), (6, 0.1), (5, 0.25)]
MAX_CONFIGS = [(4, 0.2), (6, 0.1)]

#: ``(dataset, scale, k, tau)`` of the engines config whose largest cut
#: piece (2,129 nodes, for both query kinds) is above the kernel limit.
OVERSIZED_CONFIG = ("wikitalk_like", 0.4, 4, 0.1)

#: The checked-in records the full-scale speed gate compares against.
RECORDS = Path(__file__).resolve().parents[3] / "benchmarks" / "perf"

QUICK_SCALE = 0.3
QUICK_REPS = 3
FULL_REPS = 5

#: Full-scale gate for the streaming suite's headline: the reweight
#: stream's maintain arm must beat per-update recompute by this factor.
#: Quick runs shrink the graph until per-update recompute is too cheap
#: to promise a stable ratio, so the floor applies to full runs only.
STREAMING_HEADLINE_FLOOR = 5.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description=(
            "Benchmark the clique searches, session queries and core "
            "maintenance against the checked-in records."
        ),
    )
    parser.add_argument(
        "--dataset", default="dblp_like", help="registry dataset name"
    )
    parser.add_argument(
        "--suite",
        choices=("engines", "queries", "streaming", "all"),
        default="engines",
        help=(
            "which benchmarks to run: the enumeration and maximum "
            "searches (default), the repeated-query cold-vs-warm session "
            "suite, the edge-update maintain-vs-recompute streaming "
            "suite, or all of them"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: scaled-down dataset, fewer repetitions",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help=(
            "exit 1 if a suite's outputs break its identity contract or, "
            "on a full-scale run, an arm is slower than its calibrated "
            "checked-in record beyond --tolerance"
        ),
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="noise allowance for --check (default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=0,
        help="repetitions per arm per config (default: 5, quick: 3)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks/perf"),
        help="directory for the BENCH_*.json reports",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print the per-phase wall-clock breakdown for every arm",
    )
    return parser


def _print_report(report: BenchReport, verbose: bool) -> None:
    cpu_count = report.provenance.get("cpu_count")
    calibration = report.provenance.get("calibration_s")
    print(
        f"[{report.benchmark}] {report.algorithm} "
        f"(median of {report.repetitions}, cpu_count={cpu_count}, "
        f"calibration={calibration:.4f}s)"
    )
    for config in report.configs:
        flag = "" if config.identical_output else "  OUTPUT MISMATCH"
        arms = " ".join(
            f"{name}={run.median_s:.3f}s"
            for name, run in config.engines.items()
        )
        cut = ""
        if config.cut_speedup > 0.0:
            cut = f" cut_speedup={config.cut_speedup:.2f}x"
        print(
            f"  {config.dataset}@{config.scale} k={config.k} "
            f"tau={config.tau}: {arms}{cut}{flag}"
        )
        if verbose:
            for name, run in config.engines.items():
                phases = " ".join(
                    f"{phase}={seconds:.3f}s"
                    for phase, seconds in sorted(run.phase_seconds.items())
                )
                print(f"    {name}: {phases or '(no phase timings)'}")


def _record(benchmark: str) -> dict[str, Any] | None:
    """The checked-in ``BENCH_<benchmark>.json``, or ``None``."""
    path = RECORDS / f"BENCH_{benchmark}.json"
    try:
        record: dict[str, Any] = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return record


def _print_queries_report(report: QueriesReport) -> None:
    cache = report.provenance.get("session_cache")
    print(
        f"[{report.benchmark}] cold sessions vs warm session on "
        f"{report.dataset} (scale={report.scale}, median of "
        f"{report.repetitions}, cache={cache})"
    )
    for op in report.ops:
        flag = "" if op.identical_output else "  OUTPUT MISMATCH"
        compile_note = ""
        if op.cold_compile_median_s >= 0.0:
            compile_note = (
                f" compile cold={op.cold_compile_median_s:.4f}s "
                f"warm={op.warm_compile_median_s:.4f}s"
            )
        print(
            f"  {op.op} {op.params}: cold={op.cold_median_s:.4f}s "
            f"warm={op.warm_median_s:.4f}s speedup={op.speedup:.2f}x"
            f"{compile_note}{flag}"
        )
    print(f"  median warm speedup: {report.median_speedup:.2f}x")


def _print_streaming_report(report: StreamingReport) -> None:
    cpu_count = report.provenance.get("cpu_count")
    updates = report.provenance.get("updates_per_stream")
    print(
        f"[{report.benchmark}] incremental maintain vs recompute on "
        f"{report.dataset} (scale={report.scale}, {updates} updates per "
        f"stream, median of {report.repetitions}, cpu_count={cpu_count})"
    )
    invalidation = report.provenance.get("invalidation", {})
    for stream in report.streams:
        flag = "" if stream.identical_output else "  OUTPUT MISMATCH"
        accounting = ""
        if isinstance(invalidation, dict) and stream.stream in invalidation:
            acct = invalidation[stream.stream]
            accounting = (
                f" [dirtied={acct['components_dirtied_total']}"
                f" advanced={acct['delta_patches']}"
                f" built={acct['full_compiles']}]"
            )
        print(
            f"  {stream.stream} k={stream.k} tau={stream.tau}: "
            f"maintain={stream.maintain_median_s:.3f}s "
            f"recompute={stream.recompute_median_s:.3f}s "
            f"speedup={stream.speedup:.2f}x{accounting}{flag}"
        )
    print(f"  headline (reweight) speedup: {report.headline_speedup():.2f}x")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    scale = QUICK_SCALE if args.quick else 1.0
    reps = args.reps or (QUICK_REPS if args.quick else FULL_REPS)

    failures: list[str] = []
    if args.suite in ("engines", "all"):
        # Read before the run: with the default --out it overwrites them.
        records = {
            name: None if args.quick else _record(name)
            for name in ("enumeration", "maximum")
        }
        reports = [
            run_enumeration_bench(
                [(args.dataset, scale, k, tau) for k, tau in ENUM_CONFIGS]
                + [OVERSIZED_CONFIG],
                reps,
            ),
            run_maximum_bench(
                [(args.dataset, scale, k, tau) for k, tau in MAX_CONFIGS]
                + [OVERSIZED_CONFIG],
                reps,
            ),
        ]
        for report in reports:
            _print_report(report, args.verbose)
            path = report.write(args.out)
            print(f"  wrote {path}")
            if not report.all_identical():
                failures.append(
                    f"{report.benchmark}: outputs break the identity gate"
                )
            regressions, unmatched = calibrated_regressions(
                report, records[report.benchmark], args.tolerance
            )
            for label in unmatched:
                print(f"  {label}: no baseline")
            failures += regressions

    if args.suite in ("queries", "all"):
        queries_report = run_queries_bench(args.dataset, reps, scale)
        _print_queries_report(queries_report)
        path = queries_report.write(args.out)
        print(f"  wrote {path}")
        if not queries_report.all_identical():
            failures.append("queries: warm-session outputs differ from cold")
        for op in queries_report.ops:
            if op.cold_compile_median_s < 0.0:
                continue  # op carries no stats object, no phase laps
            if op.cold_compile_median_s == 0.0:
                failures.append(
                    f"queries: cold {op.op} recorded no compile lap — the "
                    "unified lowering should run once per cold graph copy"
                )
            if op.warm_compile_median_s != 0.0:
                failures.append(
                    f"queries: warm {op.op} recompiled "
                    f"({op.warm_compile_median_s:.6f}s) — the session must "
                    "reuse the graph's current lowering"
                )

    if args.suite in ("streaming", "all"):
        streaming_report = run_streaming_bench(
            args.dataset,
            reps,
            scale,
            updates=QUICK_UPDATES if args.quick else FULL_UPDATES,
        )
        _print_streaming_report(streaming_report)
        path = streaming_report.write(args.out)
        print(f"  wrote {path}")
        if not streaming_report.all_identical():
            failures.append(
                "streaming: maintained core differs from cold recompute"
            )
        headline = streaming_report.headline_speedup()
        if not args.quick and headline < STREAMING_HEADLINE_FLOOR:
            failures.append(
                f"streaming: reweight maintain speedup {headline:.2f}x is "
                f"below the {STREAMING_HEADLINE_FLOOR:.0f}x headline floor"
            )

    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
