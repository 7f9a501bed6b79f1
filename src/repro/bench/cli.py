"""``repro-bench`` — engine benchmark runner.

Full mode (the default) reproduces the checked-in reports under
``benchmarks/perf/``: the dblp_like registry graph at full scale,
median of 5 interleaved repetitions per config, for both the enumeration
(``muce_plus_plus``) and maximum (``max_uc_plus``) drivers.  Both also
run :data:`OVERSIZED_CONFIG`, whose search meets a cut piece above the
kernel limit, so the per-vertex views are measured against legacy.

``--quick`` shrinks the dataset and repetition count to a CI-smoke-sized
run (~tens of seconds); the oversized config keeps its scale, below
which its piece fits the limit.  ``--check`` turns the run into a gate:
exit status 1 when any config's outputs differ between the ``legacy`` and
``pivot`` arms (clique-set identity for enumeration, bit identity of
result and counters for the maximum search), when the pivot engine's
median is slower than legacy's beyond ``--tolerance`` (a noise
allowance — CI runners are shared machines), or when the pivot
enumeration branches more than legacy (a branch-count reduction below
1x).  The queries suite additionally asserts the compile accounting (a
cold session records one nonzero compile lap, a warm session records
exactly zero).

``--verbose`` prints the per-phase wall-clock breakdown (prune / cut /
compile / search) recorded by the stats timings.

``--suite`` selects which benchmarks run: ``engines`` (the default,
above), ``queries`` (the repeated-query cold-vs-warm session suite of
:mod:`repro.bench.queries`, written to ``BENCH_queries.json``),
``prune`` (the prune-kernel arrays-vs-legacy peel suite of
:mod:`repro.bench.prune`, written to ``BENCH_prune.json``),
``streaming`` (the edge-update maintain-vs-recompute suite of
:mod:`repro.bench.streaming`, written to ``BENCH_streaming.json``), or
``all``.  The streaming gates: the maintained core must be
set-identical to a cold recompute after every update, and on full-scale
runs the reweight stream's maintain arm must beat recompute by at
least 5x (the scoped-invalidation headline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.prune import PruneReport, run_prune_bench
from repro.bench.queries import QueriesReport, run_queries_bench
from repro.bench.runner import (
    BenchReport,
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

#: Headline config first: the enumeration speedup quoted in
#: docs/performance.md is this list's first entry.
ENUM_CONFIGS = [(4, 0.2), (6, 0.1), (5, 0.25)]
MAX_CONFIGS = [(4, 0.2), (6, 0.1)]

#: ``(dataset, scale, k, tau)`` of the engines config whose largest cut
#: piece (2,129 nodes, for both query kinds) is above the kernel limit.
OVERSIZED_CONFIG = ("wikitalk_like", 0.4, 4, 0.1)

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
        description="Benchmark the compiled search engine against legacy.",
    )
    parser.add_argument(
        "--dataset", default="dblp_like", help="registry dataset name"
    )
    parser.add_argument(
        "--suite",
        choices=("engines", "queries", "prune", "streaming", "all"),
        default="engines",
        help=(
            "which benchmarks to run: the engine comparisons (default), "
            "the repeated-query cold-vs-warm session suite, the "
            "prune-kernel arrays-vs-legacy suite, the edge-update "
            "maintain-vs-recompute streaming suite, or all of them"
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
            "exit 1 if engines disagree or pivot is slower than legacy "
            "beyond --tolerance"
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
        help="repetitions per engine per config (default: 5, quick: 3)",
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
    print(
        f"[{report.benchmark}] {report.algorithm} "
        f"(median of {report.repetitions}, cpu_count={cpu_count})"
    )
    for config in report.configs:
        legacy = config.engines["legacy"].median_s
        pivot = config.engines["pivot"].median_s
        flag = "" if config.identical_output else "  OUTPUT MISMATCH"
        branches = ""
        if config.pivot_branch_reduction > 0.0:
            branches = f" (branches /{config.pivot_branch_reduction:.1f})"
        print(
            f"  {config.dataset}@{config.scale} k={config.k} "
            f"tau={config.tau}: "
            f"legacy={legacy:.3f}s pivot={pivot:.3f}s "
            f"speedup={config.speedup:.2f}x{branches}{flag}"
        )
        if verbose:
            for name, run in config.engines.items():
                phases = " ".join(
                    f"{phase}={seconds:.3f}s"
                    for phase, seconds in sorted(run.phase_seconds.items())
                )
                print(f"    {name}: {phases or '(no phase timings)'}")


def _print_prune_report(report: PruneReport) -> None:
    cpu_count = report.provenance.get("cpu_count")
    print(
        f"[{report.benchmark}] peels on {report.dataset} "
        f"(scale={report.scale}, median of {report.repetitions}, "
        f"cpu_count={cpu_count}, "
        f"compile={report.compile_median_s:.3f}s shared per version)"
    )
    for op in report.ops:
        legacy = op.engines["legacy"].median_s
        arrays = op.engines["arrays"].median_s
        flag = "" if op.identical_output else "  OUTPUT MISMATCH"
        print(
            f"  {op.op} k={op.k} tau={op.tau}: legacy={legacy:.3f}s "
            f"arrays={arrays:.3f}s speedup={op.speedup:.2f}x "
            f"({op.survivors} survivors){flag}"
        )
    print(f"  min headline speedup: {report.min_headline_speedup():.2f}x")


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
                f" delta={acct['delta_patches']}"
                f" full={acct['full_compiles']}]"
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
                failures.append(f"{report.benchmark}: engine outputs differ")
            worst = report.worst_ratio()
            if worst > 1.0 + args.tolerance:
                failures.append(
                    f"{report.benchmark}: pivot {worst:.2f}x the legacy "
                    f"median somewhere (tolerance {1.0 + args.tolerance:.2f}x)"
                )
            for config in report.configs:
                # The pivot tree must never branch more than the legacy
                # tree (0.0 means the config never searched, or is a
                # maximum config, which does not pivot).
                reduction = config.pivot_branch_reduction
                if 0.0 < reduction < 1.0:
                    failures.append(
                        f"{report.benchmark}: pivot branched more than "
                        f"legacy at k={config.k} tau={config.tau} "
                        f"(reduction {reduction:.2f}x)"
                    )

    if args.suite in ("prune", "all"):
        prune_report = run_prune_bench(args.dataset, reps, scale)
        _print_prune_report(prune_report)
        path = prune_report.write(args.out)
        print(f"  wrote {path}")
        if not prune_report.all_identical():
            failures.append("prune: arrays survivors differ from legacy")
        worst = prune_report.worst_ratio()
        if worst > 1.0 + args.tolerance:
            failures.append(
                f"prune: arrays {worst:.2f}x the legacy median somewhere "
                f"(tolerance {1.0 + args.tolerance:.2f}x)"
            )

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
