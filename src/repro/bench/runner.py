"""Measurement core for the engine benchmarks.

Protocol
--------
Wall-clock comparisons between in-process arms on a noisy machine need
two defenses, both applied here:

* **Interleaving** — each repetition runs *every* arm back to back
  (legacy, then pivot) before the next repetition starts, so slow drift
  in machine load lands on both sides rather than biasing whichever arm
  happened to run last.
* **Median of N** — the reported time per arm is the median over the
  repetitions, which throws away one-off spikes that a mean would absorb.

Every measured call runs on an untimed ``graph.copy()``: the lowering
lives on the graph, so calls on the benchmark graph itself would reuse
the first call's and stop measuring a cold search.

Every run also re-verifies the arms' contract.  For enumeration it is
*set* identity: pivoting reorders emission but must yield exactly the
legacy engine's cliques, each once.  For the maximum search it is bit
identity: the same clique and the same statistics counters.  A
benchmark whose arms disagree is reported with ``identical_output:
false`` and fails the ``--check`` gate — a speedup over wrong answers is
not a speedup.  Each enumeration config's ``pivot_branch_reduction``
records the legacy engine's ``search_calls`` over the pivot engine's —
the branch-tree shrink the absorbing Tomita pivot buys.

Provenance
----------
Every report embeds where its numbers came from — git commit, python
version, platform, ``os.cpu_count()`` — so the perf trajectory across
the checked-in ``BENCH_*.json`` files stays attributable.
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

from repro.core.enumeration import Engine, EnumerationStats, muce_plus_plus
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "EngineRun",
    "ConfigResult",
    "BenchReport",
    "collect_provenance",
    "run_enumeration_bench",
    "run_maximum_bench",
]

#: Arms of both suites: the paper-following reference, then the kernel.
ENGINES: tuple[Engine, ...] = ("legacy", "pivot")


@dataclass
class EngineRun:
    """Timings and counters for one arm at one (k, tau) config."""

    times_s: list[float] = field(default_factory=list)
    median_s: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class ConfigResult:
    """One (k, tau) config measured on every arm."""

    k: int
    tau: float
    engines: dict[str, EngineRun]
    speedup: float
    identical_output: bool
    #: legacy search_calls / pivot search_calls (enumeration only; 0.0
    #: for the maximum suite or when no recursion ran).
    pivot_branch_reduction: float = 0.0


def collect_provenance() -> dict[str, object]:
    """Metadata attributing a report to code + machine: git commit,
    python version, platform string, and ``os.cpu_count()``."""
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
    }


@dataclass
class BenchReport:
    """Everything one ``BENCH_*.json`` file records."""

    benchmark: str
    algorithm: str
    dataset: str
    scale: float
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

    def worst_ratio(self) -> float:
        """Max over configs of pivot median / legacy median (lower is
        better; > 1 means the compiled engine lost somewhere)."""
        worst = 0.0
        for config in self.configs:
            legacy = config.engines["legacy"].median_s
            pivot = config.engines["pivot"].median_s
            if legacy > 0.0:
                worst = max(worst, pivot / legacy)
        return worst

    def all_identical(self) -> bool:
        return all(config.identical_output for config in self.configs)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _enum_once(
    graph: UncertainGraph, k: int, tau: float, engine: Engine
) -> tuple[float, list[frozenset[Node]], dict[str, int], dict[str, float]]:
    graph = graph.copy()  # untimed: a cold call lowers a graph afresh
    stats = EnumerationStats()
    start = time.perf_counter()
    cliques = list(muce_plus_plus(graph, k, tau, stats=stats, engine=engine))
    elapsed = time.perf_counter() - start
    return elapsed, cliques, dict(asdict(stats)), dict(stats.timings.laps)


def _max_once(
    graph: UncertainGraph, k: int, tau: float, engine: Engine
) -> tuple[float, frozenset[Node] | None, dict[str, int], dict[str, float]]:
    graph = graph.copy()  # untimed: a cold call lowers a graph afresh
    stats = MaximumSearchStats()
    start = time.perf_counter()
    best = max_uc_plus(graph, k, tau, stats=stats, engine=engine)
    elapsed = time.perf_counter() - start
    return elapsed, best, dict(asdict(stats)), dict(stats.timings.laps)


def run_enumeration_bench(
    dataset: str,
    configs: list[tuple[int, float]],
    repetitions: int,
    scale: float = 1.0,
) -> BenchReport:
    """Benchmark ``muce_plus_plus`` across engines."""
    graph = load_dataset(dataset, scale=scale)
    results: list[ConfigResult] = []
    for k, tau in configs:
        runs: dict[str, EngineRun] = {e: EngineRun() for e in ENGINES}
        outputs: dict[str, list[frozenset[Node]]] = {}
        for _ in range(repetitions):
            for engine in ENGINES:
                elapsed, cliques, stats, phases = _enum_once(
                    graph, k, tau, engine
                )
                runs[engine].times_s.append(elapsed)
                runs[engine].stats = stats
                runs[engine].phase_seconds = phases
                outputs[engine] = cliques
        for run in runs.values():
            run.median_s = _median(run.times_s)
        legacy, pivot = runs["legacy"], runs["pivot"]
        # Pivoting reorders emission, so the gate is set identity with
        # no duplicates and the same clique count.
        identical = (
            len(outputs["pivot"]) == len(set(outputs["pivot"]))
            and set(outputs["pivot"]) == set(outputs["legacy"])
            and pivot.stats["cliques"] == legacy.stats["cliques"]
        )
        results.append(
            ConfigResult(
                k=k,
                tau=tau,
                engines=runs,
                speedup=(
                    legacy.median_s / pivot.median_s
                    if pivot.median_s > 0.0
                    else 0.0
                ),
                identical_output=identical,
                pivot_branch_reduction=(
                    legacy.stats["search_calls"]
                    / pivot.stats["search_calls"]
                    if pivot.stats.get("search_calls", 0) > 0
                    else 0.0
                ),
            )
        )
    return BenchReport(
        benchmark="enumeration",
        algorithm="muce_plus_plus",
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        provenance=collect_provenance(),
        configs=results,
    )


def run_maximum_bench(
    dataset: str,
    configs: list[tuple[int, float]],
    repetitions: int,
    scale: float = 1.0,
) -> BenchReport:
    """Benchmark ``max_uc_plus`` across engines."""
    graph = load_dataset(dataset, scale=scale)
    results: list[ConfigResult] = []
    for k, tau in configs:
        runs: dict[str, EngineRun] = {e: EngineRun() for e in ENGINES}
        outputs: dict[str, frozenset[Node] | None] = {}
        for _ in range(repetitions):
            for engine in ENGINES:
                elapsed, best, stats, phases = _max_once(
                    graph, k, tau, engine
                )
                runs[engine].times_s.append(elapsed)
                runs[engine].stats = stats
                runs[engine].phase_seconds = phases
                outputs[engine] = best
        for run in runs.values():
            run.median_s = _median(run.times_s)
        legacy, pivot = runs["legacy"], runs["pivot"]
        results.append(
            ConfigResult(
                k=k,
                tau=tau,
                engines=runs,
                speedup=(
                    legacy.median_s / pivot.median_s
                    if pivot.median_s > 0.0
                    else 0.0
                ),
                identical_output=(
                    outputs["pivot"] == outputs["legacy"]
                    and pivot.stats == legacy.stats
                ),
            )
        )
    return BenchReport(
        benchmark="maximum",
        algorithm="max_uc_plus",
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        provenance=collect_provenance(),
        configs=results,
    )
