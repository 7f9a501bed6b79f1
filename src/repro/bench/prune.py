"""The prune-kernel benchmark: compiled arrays vs legacy peels.

Measures the three pruning peels — ``dp_core_plus`` (Algorithm 2),
``topk_core`` (Algorithm 3) and the ``dp_core`` baseline — with the
``engine="legacy"`` dict/list implementations against the compiled
flat-CSR kernel of :mod:`repro.core.prune_kernel`, under the same
protocol as the engine benchmarks (interleaved arms, median of N,
identity gate, provenance block).

Artifact accounting mirrors production: the session layer compiles the
graph **once per version** and every peel of every query replays over
those arrays, so the arrays arm here peels over a shared
:class:`~repro.core.prune_kernel.CompiledGraph` built once per
repetition, and the lowering itself is timed separately and reported as
``compile_median_s`` — it is amortized across all peels at one version,
not a per-peel cost.  Ops run in a fixed order, so which op pays the
artifact's lazy core decomposition is identical across repetitions.

The identity gate normalizes both engines' survivor sets to graph
iteration order (exactly the prune-stage artifact normalization) and
requires them equal on every repetition — a speedup over a different
core is not a speedup.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.bench.runner import collect_provenance
from repro.core.ktau_core import dp_core, dp_core_plus
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.core.topk_core import topk_core
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["PruneArmRun", "PruneOpResult", "PruneReport", "run_prune_bench"]

#: The measured peels: (op name, k, tau).  The headline ops quoted in
#: docs/performance.md are the dp_core_plus and topk_core entries.
PRUNE_OPS: list[tuple[str, int, float]] = [
    ("dp_core_plus", 6, 0.1),
    ("dp_core_plus", 4, 0.2),
    ("topk_core", 6, 0.1),
    ("topk_core", 4, 0.2),
    ("dp_core", 6, 0.1),
]


@dataclass
class PruneArmRun:
    """Timings for one engine arm of one peel config."""

    times_s: list[float] = field(default_factory=list)
    median_s: float = 0.0


@dataclass
class PruneOpResult:
    """One peel at one (k, tau), measured on both engines."""

    op: str
    k: int
    tau: float
    engines: dict[str, PruneArmRun]
    speedup: float
    survivors: int
    identical_output: bool


@dataclass
class PruneReport:
    """Everything ``BENCH_prune.json`` records."""

    benchmark: str
    dataset: str
    scale: float
    repetitions: int
    interleaved: bool
    compile_times_s: list[float]
    compile_median_s: float
    provenance: dict[str, object]
    ops: list[PruneOpResult]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(self.to_json())
        return path

    def all_identical(self) -> bool:
        return all(op.identical_output for op in self.ops)

    def worst_ratio(self) -> float:
        """Max over ops of arrays median / legacy median (lower is
        better; > 1 means the compiled kernel lost somewhere)."""
        worst = 0.0
        for op in self.ops:
            legacy = op.engines["legacy"].median_s
            arrays = op.engines["arrays"].median_s
            if legacy > 0.0:
                worst = max(worst, arrays / legacy)
        return worst

    def min_headline_speedup(self) -> float:
        """Min speedup over the dp_core_plus and topk_core ops — the
        acceptance headline (the dp_core baseline rides along)."""
        headline = [
            op.speedup
            for op in self.ops
            if op.op in ("dp_core_plus", "topk_core")
        ]
        return min(headline) if headline else 0.0


def _peel_once(
    graph: UncertainGraph,
    op: str,
    k: int,
    tau: float,
    engine: str,
    compiled: CompiledGraph | None,
) -> tuple[float, set[Node] | frozenset[Node]]:
    start = time.perf_counter()
    result: set[Node] | frozenset[Node]
    if op == "dp_core_plus":
        if engine == "arrays":
            result = dp_core_plus(graph, k, tau, compiled=compiled)
        else:
            result = dp_core_plus(graph, k, tau, engine="legacy")
    elif op == "topk_core":
        if engine == "arrays":
            result = topk_core(graph, k, tau, compiled=compiled).nodes
        else:
            result = topk_core(graph, k, tau, engine="legacy").nodes
    elif op == "dp_core":
        if engine == "arrays":
            result = dp_core(graph, k, tau, compiled=compiled)
        else:
            result = dp_core(graph, k, tau, engine="legacy")
    else:
        raise ValueError(f"unknown prune op {op!r}")
    return time.perf_counter() - start, result


def run_prune_bench(
    dataset: str,
    repetitions: int,
    scale: float = 1.0,
    ops: list[tuple[str, int, float]] | None = None,
) -> PruneReport:
    """Benchmark the prune peels, legacy vs compiled arrays."""
    ops = ops if ops is not None else list(PRUNE_OPS)
    graph = load_dataset(dataset, scale=scale)
    order = {u: i for i, u in enumerate(graph.nodes())}

    def normalized(result: set[Node] | frozenset[Node]) -> tuple[Node, ...]:
        # The prune-stage artifact normalization: graph iteration order.
        return tuple(sorted(result, key=order.__getitem__))

    runs: dict[int, dict[str, PruneArmRun]] = {
        i: {"legacy": PruneArmRun(), "arrays": PruneArmRun()}
        for i in range(len(ops))
    }
    identical = [True] * len(ops)
    survivors = [0] * len(ops)
    compile_times: list[float] = []
    for _ in range(repetitions):
        # A fresh lowering per repetition, timed on its own; the
        # arrays arm of every op below replays over this artifact,
        # exactly as the session layer shares one compile per
        # graph version across the prune stages of its queries.
        start = time.perf_counter()
        compiled = compile_graph(graph)
        compile_times.append(time.perf_counter() - start)
        for i, (op, k, tau) in enumerate(ops):
            elapsed, legacy_result = _peel_once(
                graph, op, k, tau, "legacy", None
            )
            runs[i]["legacy"].times_s.append(elapsed)
            elapsed, arrays_result = _peel_once(
                graph, op, k, tau, "arrays", compiled
            )
            runs[i]["arrays"].times_s.append(elapsed)
            if normalized(legacy_result) != normalized(arrays_result):
                identical[i] = False
            survivors[i] = len(legacy_result)

    results: list[PruneOpResult] = []
    for i, (op, k, tau) in enumerate(ops):
        for run in runs[i].values():
            run.median_s = float(statistics.median(run.times_s))
        legacy, arrays = runs[i]["legacy"], runs[i]["arrays"]
        results.append(
            PruneOpResult(
                op=op,
                k=k,
                tau=tau,
                engines=runs[i],
                speedup=(
                    legacy.median_s / arrays.median_s
                    if arrays.median_s > 0.0
                    else 0.0
                ),
                survivors=survivors[i],
                identical_output=identical[i],
            )
        )
    return PruneReport(
        benchmark="prune",
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        compile_times_s=compile_times,
        compile_median_s=float(statistics.median(compile_times)),
        provenance=collect_provenance(),
        ops=results,
    )
