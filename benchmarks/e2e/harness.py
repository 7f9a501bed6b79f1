"""Measure one workload, or drive all of them one process each.

A single closed-loop client in one process sends each op only after the
previous one returned.  A run

1. builds the plan and the gate's expected answers once, untimed, in a
   forked child (or reads them from an earlier run of the same code),
   then builds the graph and sets up the session ``SETUP_REPS`` times
   (``setup_s`` is the median);
2. measures whole rounds of ops for about ``--seconds`` seconds, timing
   each op alone, probing the host's speed between ops and checking
   each answer outside the timer;
3. with ``--trace 1``, wraps every layer boundary during every second
   round, and reports the per-layer metrics of those rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Hashable, Sequence

from benchmarks.e2e.stats import (
    MIN_BEYOND,
    REFERENCE_PROBE_S,
    TooFewSamples,
    calibrate,
    geometric_mean,
    percentile,
    probe,
)
from benchmarks.e2e.trace import LAYERS, Tracer, check_boundaries, installed
from benchmarks.e2e.workloads import WORKLOADS, new_stats, workload

__all__ = ["main", "measure", "run_workload"]

ROOT = Path(__file__).resolve().parents[2]

SETUP_REPS = 3
DEFAULT_SECONDS = 20.0
#: A probe runs at the first op boundary this long after the last one:
#: the host's speed holds for seconds at a time, and 2 ms of probe per
#: 100 ms of ops costs 2% of a run.
PROBE_EVERY_S = 0.1
#: A full collection takes 70 ms of the measured process's heap: run at
#: every round of ``update-stream`` (0.3 s), it took a fifth of the run.
GC_EVERY_S = 2.0
#: A p50 needs MIN_BEYOND samples above it.
MIN_SAMPLES = 2 * MIN_BEYOND
#: Hard stop, in seconds, for a loop still short of MIN_SAMPLES: a run
#: should end within three minutes whatever the host.
HARD_STOP_S = 120.0
#: Tracebacks printed per run before going quiet.
MAX_TRACEBACKS = 5

QUERY_KINDS = ("enum", "max", "anchored")


def _samples() -> defaultdict[str, list[float]]:
    return defaultdict(list)


def _total(samples: dict[Any, list[float]]) -> float:
    return sum(sum(v) for v in samples.values())


@dataclass
class Phase:
    """What one measured loop saw: latencies per op kind, untraced and
    traced; each op's cell, latency, index of the probe before it and
    whether it was traced; the probes; and the traced ops' counters."""

    samples: defaultdict[str, list[float]] = field(default_factory=_samples)
    traced: defaultdict[str, list[float]] = field(default_factory=_samples)
    timed: list[tuple[Hashable, float, int, bool]] = field(
        default_factory=list
    )
    probes: list[float] = field(default_factory=list)
    counts: defaultdict[str, int] = field(
        default_factory=lambda: defaultdict(int)
    )
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall_s: float = 0.0

    def at_reference_speed(
        self, traced: bool = False
    ) -> dict[Hashable, list[float]]:
        """Each untraced (or traced) op's latency at the reference host
        speed, by cell.  The host's speed during an op is the mean of the
        probes just before and just after it."""
        cells: defaultdict[Hashable, list[float]] = defaultdict(list)
        for cell, latency, i, op_traced in self.timed:
            if op_traced == traced:
                host = (self.probes[i] + self.probes[i + 1]) / 2
                cells[cell].append(latency * REFERENCE_PROBE_S / host)
        return cells


def tally(
    counts: defaultdict[str, int], kind: str, stats: Any, result: Any,
    num_nodes: int,
) -> None:
    """Add one traced op's counters, as the query API filled its
    ``stats=`` object, to ``counts``.  Anchored queries and updates take
    no stats object and count nothing."""
    if kind == "enum":
        counts["prune.input"] += num_nodes
        counts["prune.survivors"] += stats.nodes_after_pruning
        counts["cut.cuts_found"] += stats.cuts_found
        counts["search.enum_calls"] += stats.search_calls
        counts["search.cliques"] += stats.cliques
        counts["enum.returned"] += len(result)
    elif kind == "max":
        counts["search.max_calls"] += stats.search_calls


def measure(
    wl: Any,
    plan: Any,
    state: Any,
    seconds: float,
    tracer: Tracer | None = None,
    p50_kinds: Sequence[str] = QUERY_KINDS,
) -> Phase:
    """Run whole rounds for about ``seconds``.

    Rounds keep their planned mix, so a run stops at a round boundary:
    when stopping now lands closer to ``seconds`` than going on would,
    and each of ``p50_kinds`` the workload runs has ``MIN_SAMPLES``
    untraced samples.  With a ``tracer``, every second round runs with
    the layer boundaries wrapped, its latencies go to ``Phase.traced``,
    and the loop stops after an even number of rounds.  Alternating
    cancels the host's slow drift out of the tracing overhead.  Traced
    read ops hand the query API a stats object, and ``tally`` adds it to
    ``Phase.counts``.  A plan whose rounds run out ends the loop early.

    A probe runs between ops every ``PROBE_EVERY_S`` and once after the
    last op, outside the op timers.

    A round starts with a full garbage collection, outside the op
    timers, when ``GC_EVERY_S`` have passed since the last one.  Without
    it, cyclic garbage piles up until the collector's own full pass,
    whose timing the op order sets, and the peak memory of one run
    drifted by 8% from another on a warm workload.
    """
    phase = Phase()
    step = 1 if tracer is None else 2
    tracebacks = 0
    last_probe = last_gc = -math.inf
    start = perf_counter()
    for ops in plan.rounds():
        if perf_counter() - last_gc >= GC_EVERY_S:
            gc.collect()
            last_gc = perf_counter()
        traced = tracer is not None and phase.rounds % 2 == 1
        samples = phase.traced if traced else phase.samples
        with installed(tracer) if traced else nullcontext():
            for op in ops:
                if perf_counter() - last_probe >= PROBE_EVERY_S:
                    last_probe = perf_counter()
                    phase.probes.append(probe())
                phase.attempted += 1
                try:
                    if traced:
                        stats = new_stats(op.kind)
                        with tracer.op(phase.attempted, op.kind) as span:
                            result = wl.execute(state, op, stats)
                        latency = span[2] - span[1]
                        tally(phase.counts, op.kind, stats, result,
                              state.graph.num_nodes)
                    else:
                        t0 = perf_counter()
                        result = wl.execute(state, op)
                        latency = perf_counter() - t0
                    samples[op.kind].append(latency)
                    phase.timed.append(
                        (wl.cell(op), latency, len(phase.probes) - 1, traced)
                    )
                    ok = wl.check(state, plan, op, result)
                    # Free a large answer before the next op, not
                    # during it.
                    del result
                except Exception:  # an op boundary: count, keep going
                    ok = False
                    if tracebacks < MAX_TRACEBACKS:
                        tracebacks += 1
                        traceback.print_exc(file=sys.stderr)
                wl.after_op(state)
                if not ok:
                    phase.failed += 1
        phase.rounds += 1
        if phase.rounds % step:
            continue
        elapsed = perf_counter() - start
        enough = all(
            len(phase.samples[kind]) >= MIN_SAMPLES
            for kind in p50_kinds if kind in phase.samples
        )
        if enough and elapsed + step * elapsed / phase.rounds / 2 >= seconds:
            break
        if elapsed >= HARD_STOP_S:
            break
    phase.wall_s = perf_counter() - start
    phase.probes.append(probe())
    if not wl.finish(state, plan):
        phase.failed += 1
    return phase


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    """This process's peak resident set size.  The gate's graphs and
    sessions live in forked children, so it counts the interpreter, the
    program's set-ups and its ops."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def end_to_end(phase: Phase, setup_times: Sequence[float]) -> dict[str, Any]:
    """The end-to-end metrics of an untraced run, timings at the
    reference host speed.

    A cell's latency is the median of its ops.  ``<kind>_ms`` is the
    geometric mean of the kind's cell latencies: every (k, tau) pair and
    anchor weighs the same, however fast.  ``ops_per_s`` is the op count
    over the time the ops take when each takes its cell's latency.
    """
    cells = phase.at_reference_speed()
    medians = {cell: statistics.median(v) for cell, v in cells.items()}
    busy = sum(len(cells[cell]) * m for cell, m in medians.items())
    ops = sum(map(len, cells.values()))
    metrics = {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(ops / busy, "1/s"),
    }
    for kind in QUERY_KINDS:
        metrics[f"{kind}_ms"] = _metric(
            geometric_mean(m for cell, m in medians.items()
                           if cell[0] == kind) * 1e3,
            "ms",
        )
    metrics["peak_rss_mb"] = _metric(peak_rss_mb(), "MB")
    return metrics


def _probe_burst() -> float:
    """The median of three probes, taken before and after each set-up:
    a set-up runs for seconds with no probe inside it, so one reading on
    each side has to count for more."""
    return statistics.median(probe() for _ in range(3))


def by_kind(cells: dict[Hashable, list[float]]) -> dict[str, list[float]]:
    """Cells' samples pooled by op kind, the first item of every cell."""
    kinds: defaultdict[str, list[float]] = defaultdict(list)
    for cell, values in cells.items():
        kinds[cell[0]].extend(values)
    return kinds


def latency_detail(samples: dict[str, list[float]]) -> dict[str, Any]:
    """Per op kind: sample count, p50 and p90 in ms (or why refused)."""
    detail: dict[str, Any] = {}
    for kind, values in sorted(samples.items()):
        row: dict[str, Any] = {"n": len(values)}
        for q in (50, 90):
            try:
                row[f"p{q}_ms"] = percentile(values, q) * 1e3
            except TooFewSamples as refused:
                row[f"p{q}_ms"] = None
                row[f"p{q}_refused"] = str(refused)
        detail[kind] = row
    return detail


def per_layer(
    tracer: Tracer,
    phase: Phase,
    cache_before: dict[str, float],
    cache_after: dict[str, float],
) -> dict[str, Any]:
    """The per-layer metrics of a traced run.

    Layer times are shares of ``trace.op_time_s``: a layer a workload
    never enters reads 0 on every run, which is a fact, not a timing.
    """
    totals = tracer.layer_totals()
    op_s = totals["op"]["self_s"]
    metrics: dict[str, Any] = {"trace.op_time_s": _metric(op_s, "s")}
    for layer in LAYERS:
        row = totals[layer]
        metrics[f"{layer}_frac"] = _metric(row["self_s"] / op_s, "frac")
        if layer != "session.self":  # its "calls" would be the op count
            metrics[f"{layer}_calls"] = _metric(row["calls"], "count")
    counts = phase.counts
    metrics["prune.survivor_frac"] = _metric(
        counts["prune.survivors"] / counts["prune.input"]
        if counts["prune.input"] else 0.0,
        "frac",
    )
    metrics["cut.cuts_found"] = _metric(counts["cut.cuts_found"], "count")
    enum_calls = counts["search.enum_calls"]
    metrics["search.kernel_calls"] = _metric(
        enum_calls + counts["search.max_calls"], "count"
    )
    metrics["search.cliques_per_kcall"] = _metric(
        1e3 * counts["search.cliques"] / enum_calls if enum_calls else 0.0,
        "count",
    )
    delta = {k: cache_after[k] - cache_before.get(k, 0) for k in
             ("hits", "misses", "evictions", "delta_patches", "full_compiles")}
    lookups = delta["hits"] + delta["misses"]
    metrics["cache.hit_rate"] = _metric(
        delta["hits"] / lookups if lookups else 0.0, "frac"
    )
    for key in ("evictions", "delta_patches", "full_compiles"):
        metrics[f"cache.{key}"] = _metric(delta[key], "count")
    # At the reference speed: a cold run has one round of each half, and
    # the host can change speed between them.
    metrics["trace.overhead_frac"] = _metric(
        _total(phase.at_reference_speed(traced=True))
        / _total(phase.at_reference_speed()) - 1.0,
        "frac",
    )
    return metrics


def provenance(seed: int) -> dict[str, Any]:
    """Commit, interpreter and host facts recorded with every result."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            check=True,
        ).stdout.strip()
        commit = head + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    smoke: bool = False,
) -> dict[str, Any]:
    """Set up, gate and measure one workload; write its files to
    ``out_dir`` and return the result record."""
    wl = workload(name, smoke)
    calibration_before = calibrate()
    t_gate = perf_counter()
    # The gate's graph, copies and fresh sessions live and die in a
    # child: this process's peak memory is the program's alone.
    plan = wl.prepare(seed, seconds, out_dir / "gate")
    gate_s = perf_counter() - t_gate
    state = None
    setup_times, setup_probes = [], []
    for _ in range(1 if trace else SETUP_REPS):
        state = None  # free the previous set-up before the next build
        gc.collect()
        before = _probe_burst()
        t0 = perf_counter()
        state = wl.start(wl.build(seed), plan)
        setup_times.append(perf_counter() - t0)
        setup_probes.append((before + _probe_burst()) / 2)

    if not trace:
        phase = measure(wl, plan, state, seconds)
        setup_at_reference = [t * REFERENCE_PROBE_S / p
                              for t, p in zip(setup_times, setup_probes)]
        metrics = end_to_end(phase, setup_at_reference)
    else:
        check_boundaries()  # fail before measuring, not halfway
        tracer = Tracer()
        cache_before = wl.cache_info(state)
        # The per-layer metrics need no percentile.
        phase = measure(wl, plan, state, seconds, tracer=tracer,
                        p50_kinds=())
        metrics = per_layer(tracer, phase, cache_before,
                            wl.cache_info(state))
        _write_trace(out_dir, name, tracer, phase, metrics,
                     provenance(seed))

    detail: dict[str, Any] = {
        # Raw wall-clock seconds except "latency", which is at the
        # reference host speed like the result line.
        "setup_s": setup_times,
        "setup_probe_s": setup_probes,
        "probe_s": {"n": len(phase.probes),
                    "median": statistics.median(phase.probes)},
        "gate_s": gate_s,
        "rounds": phase.rounds,
        "wall_s": phase.wall_s,
        "op_time_s": _total(phase.samples),
        "latency": latency_detail(by_kind(phase.at_reference_speed())),
        "raw_latency": latency_detail(phase.samples),
        "failed_frac": phase.failed / phase.attempted,
    }
    if trace:
        detail["traced_op_time_s"] = _total(phase.traced)
        detail["traced_latency"] = latency_detail(phase.traced)
    detail["calibration_s"] = {"before": calibration_before,
                               "after": calibrate()}
    record = {
        "workload": name,
        "trace": int(trace),
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": metrics,
        "detail": detail,
        "provenance": provenance(seed),
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if trace else ""
    (out_dir / f"result-{name}{suffix}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return record


def _write_trace(
    out_dir: Path, name: str, tracer: Tracer, phase: Phase,
    metrics: dict[str, Any], prov: dict[str, Any],
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / f"trace-{name}.json", "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans, "provenance": prov},
                  fh, separators=(",", ":"))
    totals = tracer.layer_totals()
    op_s = totals["op"]["self_s"]
    table = {
        layer: {
            "self_s": totals[layer]["self_s"],
            "share": totals[layer]["self_s"] / op_s,
            "calls": totals[layer]["calls"],
        }
        for layer in LAYERS
    }
    accounted = sum(row["self_s"] for row in table.values())
    (out_dir / f"layers-{name}.json").write_text(json.dumps({
        "op_time_s": op_s,
        "ops": totals["op"]["calls"],
        "accounted_frac": accounted / op_s,
        "layers": table,
        "counts": dict(phase.counts),
        "metrics": metrics,
        "provenance": prov,
    }, indent=1) + "\n")


def _print_record(record: dict[str, Any]) -> None:
    print(f"# {record['workload']} (trace={record['trace']}): "
          f"{record['attempted']} ops, {record['failed']} failed")
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:>14} {name:<30} "
              f"{metric['value']:>14.6g} {metric['unit']}")


def _run_all(args: argparse.Namespace) -> int:
    """Every workload (``--repeat`` seeds each), one process per run."""
    runs = []
    status = 0
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            cmd = [
                sys.executable, str(ROOT / "benchmarks" / "e2e" / "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(args.out),
            ] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True
            )
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                print(f"# {name} seed {seed}: exit {proc.returncode}")
                continue
            suffix = "-trace" if args.trace else ""
            record = json.loads(
                (args.out / f"result-{name}{suffix}.json").read_text()
            )
            runs.append(record)
            _print_record(record)
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "summary.json").write_text(
        json.dumps({"runs": runs}, indent=1) + "\n"
    )
    return status


def parse_args(argv: Sequence[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end benchmark of the uncertain-clique query API.",
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process (default: "
                             "all, one process each)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1 (or bare --trace): traced run, per-layer "
                             "metrics")
    parser.add_argument("--out", type=Path,
                        default=ROOT / "benchmarks" / "e2e" / "out",
                        help="directory for result, trace and layer files")
    parser.add_argument("--repeat", type=int, default=1,
                        help="all-workload mode: seeds seed..seed+repeat-1")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload is None or args.repeat > 1:
        return _run_all(args)
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.out, args.smoke)
    _print_record(record)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1
