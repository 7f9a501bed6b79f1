"""Measurement core for the engines benchmarks.

Protocol
--------
Wall-clock comparisons between in-process arms on a noisy machine need
two defenses, both applied here:

* **Interleaving** — each repetition runs *every* arm back to back
  before the next repetition starts, so slow drift in machine load
  lands on all arms rather than biasing whichever arm happened to run
  last.
* **Median of N** — the reported time per arm is the median over the
  repetitions, which throws away one-off spikes that a mean would absorb.

Each config names its own dataset and scale, so one report can hold
configs of several graphs; each graph is loaded once.

Every measured call runs on an untimed ``graph.copy()``: the lowering
lives on the graph, so calls on the benchmark graph itself would reuse
the first call's and stop measuring a cold search.

The enumeration suite has two arms: ``pivot``, ``muce_plus_plus`` as the
library runs it, and ``nocut``, the same with ``cut=False``, so the cut
(Lemma 5) stays measured against the plain component split it replaces.
Its ``cut`` phase is that split with the view building, and
``cut_speedup`` is its median over the pivot arm's.  The maximum suite
has the one arm, ``pivot``.  Every arm's ``phase_seconds`` are per-phase
medians over the repetitions.

Every run also re-verifies the arms' contract.  For enumeration it is
*set* identity: the ``nocut`` arm must yield exactly the pivot arm's
cliques, each once.  For the maximum search every repetition must
return the same clique and the same statistics counters, and that
clique must be the canonical maximum (the largest, then the
lexicographically smallest under ``node_sort_key``) of one untimed
enumeration of the same graph and config.  A benchmark that breaks its
contract is reported with ``identical_output: false`` and fails the
``--check`` gate — a speedup over wrong answers is not a speedup.

Provenance
----------
Every report embeds where its numbers came from — git commit, python
version, platform, ``os.cpu_count()`` — and ``calibration_s``, the
median time of a fixed pure-Python loop, so a median can be compared
with a record taken on another day or host in units of that loop
(:func:`calibrated_regressions`).  The engines suites time the loop
before every arm of every repetition, so each config's own
``calibration_s`` reads the host as that config's arms met it; the
provenance holds the median over all configs.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from repro.core.prune_kernel import node_sort_key
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "Config",
    "EngineRun",
    "ConfigResult",
    "BenchReport",
    "calibrated_regressions",
    "collect_provenance",
    "run_enumeration_bench",
    "run_maximum_bench",
]

#: The enumeration suite's arms: ``(name, cut)``.
ENUM_ARMS: tuple[tuple[str, bool], ...] = (("pivot", True), ("nocut", False))

#: Iterations of the calibration loop (~20 ms on a 2-vCPU host).
_CALIBRATION_LOOP = 200_000

#: One config of the engine suites: ``(dataset, scale, k, tau)``.
Config = tuple[str, float, int, float]


@dataclass
class EngineRun:
    """Timings and counters for one arm at one (k, tau) config."""

    times_s: list[float] = field(default_factory=list)
    median_s: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)
    #: Per-phase medians of ``phase_times_s``, each phase's laps.
    phase_seconds: dict[str, float] = field(default_factory=dict)
    phase_times_s: dict[str, list[float]] = field(default_factory=dict)

    def record(
        self, elapsed: float, stats: dict[str, int], phases: dict[str, float]
    ) -> None:
        """Add one repetition's time, counters and phase laps."""
        self.times_s.append(elapsed)
        self.stats = stats
        for phase, seconds in phases.items():
            self.phase_times_s.setdefault(phase, []).append(seconds)

    def finish(self) -> None:
        """Fill the medians once every repetition is recorded."""
        self.median_s = _median(self.times_s)
        self.phase_seconds = {
            phase: _median(times)
            for phase, times in self.phase_times_s.items()
        }


@dataclass
class ConfigResult:
    """One (dataset, scale, k, tau) config measured on every arm."""

    dataset: str
    scale: float
    k: int
    tau: float
    engines: dict[str, EngineRun]
    identical_output: bool
    #: nocut median / pivot median: what the cut saves end to end
    #: (enumeration only; 0.0 for the maximum suite).
    cut_speedup: float = 0.0
    #: Median seconds of the calibration loop, timed before every arm
    #: of every repetition of this config.
    calibration_s: float = 0.0


def _calibration_s(runs: int = 9) -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed in
    the units an interpreted search spends."""
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        total = 0
        for i in range(_CALIBRATION_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return _median(times)


def collect_provenance() -> dict[str, object]:
    """Metadata attributing a report to code + machine: git commit,
    python version, platform string, ``os.cpu_count()`` and
    ``calibration_s``."""
    commit: str | None = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            # A dirty worktree means the numbers came from code beyond
            # the recorded commit — say so rather than misattribute.
            if dirty.returncode == 0 and dirty.stdout.strip():
                commit += "-dirty"
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "calibration_s": _calibration_s(),
    }


@dataclass
class BenchReport:
    """Everything one ``BENCH_*.json`` file records."""

    benchmark: str
    algorithm: str
    repetitions: int
    interleaved: bool
    provenance: dict[str, object]
    configs: list[ConfigResult]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(self.to_json())
        return path

    def all_identical(self) -> bool:
        return all(config.identical_output for config in self.configs)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _graphs(configs: list[Config]) -> dict[tuple[str, float], UncertainGraph]:
    """Each config's graph, loaded once per (dataset, scale)."""
    graphs: dict[tuple[str, float], UncertainGraph] = {}
    for dataset, scale, _, _ in configs:
        if (dataset, scale) not in graphs:
            graphs[dataset, scale] = load_dataset(dataset, scale=scale)
    return graphs


def _interleaved_provenance(configs: list[ConfigResult]) -> dict[str, object]:
    """:func:`collect_provenance` with ``calibration_s`` the median of
    the configs' own calibrations."""
    provenance = collect_provenance()
    if configs:
        provenance["calibration_s"] = _median(
            [config.calibration_s for config in configs]
        )
    return provenance


def calibrated_regressions(
    report: BenchReport, record: dict[str, Any] | None, tolerance: float
) -> tuple[list[str], list[str]]:
    """Compare ``report`` with a checked-in record of the same suite.

    Each arm's median is taken in units of its config's
    ``calibration_s``; an arm regresses when that exceeds ``1 +
    tolerance`` times the same (dataset, scale, k, tau, arm) of
    ``record`` in the record's units.  Returns ``(regressions,
    unmatched)``: a message per regressed arm, and the
    ``dataset@scale k= tau=`` label of every config the record lacks or
    holds without a calibration (every config, without a record).
    """
    past = {
        (c["dataset"], c["scale"], c["k"], c["tau"]): c
        for c in (record or {}).get("configs", [])
        if c.get("calibration_s")
    }
    regressions: list[str] = []
    unmatched: list[str] = []
    for config in report.configs:
        key = (config.dataset, config.scale, config.k, config.tau)
        label = "{}@{} k={} tau={}".format(*key)
        old = past.get(key)
        if old is None or not config.calibration_s:
            unmatched.append(label)
            continue
        for arm, run in config.engines.items():
            before = old["engines"].get(arm)
            if before is None:
                continue
            ratio = (run.median_s / config.calibration_s) / (
                before["median_s"] / old["calibration_s"]
            )
            if ratio > 1.0 + tolerance:
                regressions.append(
                    f"{report.benchmark}: {label} {arm} is {ratio:.2f}x "
                    f"its calibrated record (tolerance "
                    f"{1.0 + tolerance:.2f}x)"
                )
    return regressions, unmatched


def _enum_once(
    graph: UncertainGraph, k: int, tau: float, cut: bool
) -> tuple[float, list[frozenset[Node]], dict[str, int], dict[str, float]]:
    graph = graph.copy()  # untimed: a cold call lowers a graph afresh
    stats = EnumerationStats()
    start = time.perf_counter()
    cliques = list(maximal_cliques(
        graph, k, tau, pruning="topk", cut=cut, insearch=True, stats=stats,
    ))
    elapsed = time.perf_counter() - start
    return elapsed, cliques, dict(asdict(stats)), dict(stats.timings.laps)


def _max_once(
    graph: UncertainGraph, k: int, tau: float
) -> tuple[float, frozenset[Node] | None, dict[str, int], dict[str, float]]:
    graph = graph.copy()  # untimed: a cold call lowers a graph afresh
    stats = MaximumSearchStats()
    start = time.perf_counter()
    best = max_uc_plus(graph, k, tau, stats=stats)
    elapsed = time.perf_counter() - start
    return elapsed, best, dict(asdict(stats)), dict(stats.timings.laps)


def _canonical_maximum(
    graph: UncertainGraph, k: int, tau: float
) -> frozenset[Node] | None:
    """The largest maximal clique of an untimed enumeration, ties broken
    by the lexicographically smallest sorted ``node_sort_key`` list."""
    cliques = list(maximal_cliques(graph.copy(), k, tau))
    if not cliques:
        return None
    return min(
        cliques, key=lambda c: (-len(c), sorted(map(node_sort_key, c)))
    )


def run_enumeration_bench(
    configs: list[Config], repetitions: int
) -> BenchReport:
    """Benchmark ``muce_plus_plus``, with and without the cut (the
    ``pivot`` and ``nocut`` arms)."""
    graphs = _graphs(configs)
    results: list[ConfigResult] = []
    for dataset, scale, k, tau in configs:
        graph = graphs[dataset, scale]
        runs = {name: EngineRun() for name, _ in ENUM_ARMS}
        outputs: dict[str, list[frozenset[Node]]] = {}
        calibration: list[float] = []
        for _ in range(repetitions):
            for name, cut in ENUM_ARMS:
                calibration.append(_calibration_s(3))
                elapsed, cliques, stats, phases = _enum_once(
                    graph, k, tau, cut
                )
                runs[name].record(elapsed, stats, phases)
                outputs[name] = cliques
        for run in runs.values():
            run.finish()
        pivot, nocut = runs["pivot"], runs["nocut"]
        # Cutting reorders emission, so the gate is set identity with
        # the pivot arm, with no duplicates and the clique count the
        # stats report.
        want = set(outputs["pivot"])
        identical = all(
            set(outputs[name]) == want
            and len(outputs[name]) == len(want) == run.stats["cliques"]
            for name, run in runs.items()
        )
        results.append(
            ConfigResult(
                dataset=dataset,
                scale=scale,
                k=k,
                tau=tau,
                engines=runs,
                identical_output=identical,
                cut_speedup=(
                    nocut.median_s / pivot.median_s
                    if pivot.median_s > 0.0
                    else 0.0
                ),
                calibration_s=_median(calibration),
            )
        )
    return BenchReport(
        benchmark="enumeration",
        algorithm="muce_plus_plus",
        repetitions=repetitions,
        interleaved=True,
        provenance=_interleaved_provenance(results),
        configs=results,
    )


def run_maximum_bench(
    configs: list[Config], repetitions: int
) -> BenchReport:
    """Benchmark ``max_uc_plus``."""
    graphs = _graphs(configs)
    results: list[ConfigResult] = []
    for dataset, scale, k, tau in configs:
        graph = graphs[dataset, scale]
        run = EngineRun()
        outputs: list[tuple[frozenset[Node] | None, dict[str, int]]] = []
        calibration: list[float] = []
        for _ in range(repetitions):
            calibration.append(_calibration_s(3))
            elapsed, best, stats, phases = _max_once(graph, k, tau)
            run.record(elapsed, stats, phases)
            outputs.append((best, stats))
        run.finish()
        best = outputs[0][0]
        results.append(
            ConfigResult(
                dataset=dataset,
                scale=scale,
                k=k,
                tau=tau,
                engines={"pivot": run},
                identical_output=(
                    all(output == outputs[0] for output in outputs)
                    and best == _canonical_maximum(graph, k, tau)
                ),
                calibration_s=_median(calibration),
            )
        )
    return BenchReport(
        benchmark="maximum",
        algorithm="max_uc_plus",
        repetitions=repetitions,
        interleaved=True,
        provenance=_interleaved_provenance(results),
        configs=results,
    )
