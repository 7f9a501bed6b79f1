"""Repeated-query benchmark: cold one-shot sessions vs a warm session.

The engine benchmarks (:mod:`repro.bench.runner`) measure single cold
searches.  This suite measures what the session layer was built for:
**repeated queries against one graph**.  Two arms run the same mixed
workload (maximum search, full enumeration, anchored containment
queries) over one dataset graph:

* **cold** — every operation builds a throwaway
  :class:`~repro.core.session.PreparedGraph` over an untimed
  ``graph.copy()``, exactly what a free function does on a graph it has
  not seen; every call pays prune + cut + compile from scratch.  The
  copy matters: the lowering lives on the graph, so a session over the
  benchmark graph itself would reuse the warm arm's.
* **warm** — every operation goes through one shared session that was
  pre-warmed by a single unmeasured pass over the workload, so each
  measured call replays cached stage artifacts and only the search
  stage runs.

The arms are interleaved per repetition (cold then warm, op by op) and
medians are reported per operation, plus the across-ops median of the
per-op speedups — the headline number the performance docs quote.  The
warm session's cache hit/miss counters land in the report's provenance
block so the speedup stays attributable to actual cache hits.

Correctness gate: the two arms must produce bit-identical payloads
(cliques, yield order, and — where the op takes a stats object — the
stats counters) on every repetition; any disagreement is reported as
``identical_output: false`` and fails ``repro-bench --check``.

Compile accounting: ops that carry a stats object also report the
``compile`` phase lap per arm.  A cold session lowers the graph exactly
once (the unified per-version ``CompiledGraph``) and derives each
component's search view from it, so ``cold_compile_median_s`` is the
price of that single lowering; the warm arm replays cached artifacts,
so its compile lap must be exactly zero — ``repro-bench --check``
enforces both.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from repro.bench.runner import collect_provenance
from repro.core.enumeration import EnumerationStats
from repro.core.maximum import MaximumSearchStats
from repro.core.session import PreparedGraph
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "QueryOpResult",
    "QueriesReport",
    "run_queries_bench",
]

#: One workload operation: runs against a session, returns a comparable
#: payload (results + stats counters) used for the identical-output gate
#: plus the phase laps of the run (empty for ops without a stats object —
#: wall clocks never participate in the gate).
Op = tuple[
    str,
    dict[str, object],
    Callable[[PreparedGraph], tuple[object, dict[str, float]]],
]


@dataclass
class QueryOpResult:
    """Cold-vs-warm timings for one operation of the workload."""

    op: str
    params: dict[str, object]
    cold_times_s: list[float]
    warm_times_s: list[float]
    cold_median_s: float
    warm_median_s: float
    speedup: float
    identical_output: bool
    #: Median ``compile`` phase lap per arm (-1.0 for ops that carry no
    #: stats object and so record no phase laps).  Cold pays one unified
    #: whole-graph lowering plus per-component view derivation; warm
    #: must be exactly 0.0.
    cold_compile_median_s: float = -1.0
    warm_compile_median_s: float = -1.0


@dataclass
class QueriesReport:
    """Everything ``BENCH_queries.json`` records."""

    benchmark: str
    dataset: str
    scale: float
    repetitions: int
    interleaved: bool
    session_max_entries: int
    median_speedup: float
    provenance: dict[str, object]
    ops: list[QueryOpResult]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(self.to_json())
        return path

    def all_identical(self) -> bool:
        return all(op.identical_output for op in self.ops)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _anchor_nodes(graph: UncertainGraph) -> tuple[Node, Node]:
    """Deterministic anchors for the containment ops: the max-degree
    node and its highest-probability neighbor (ties by node order)."""
    anchor = max(graph, key=lambda u: (graph.degree(u), str(u)))
    partner = max(
        graph.incident(anchor).items(), key=lambda item: (item[1], str(item[0]))
    )[0]
    return anchor, partner


def _workload(graph: UncertainGraph) -> list[Op]:
    """The mixed op sequence both arms run, in order.

    Configs are chosen so pruning does real work (high k / low tau keeps
    the surviving core small): that is both the regime the paper's
    algorithms target and the one where repeated queries have something
    worth caching.
    """
    anchor, partner = _anchor_nodes(graph)

    def enum_op(k: int, tau: float) -> Op:
        def run(session: PreparedGraph) -> tuple[object, dict[str, float]]:
            stats = EnumerationStats()
            cliques = list(session.maximal_cliques(k, tau, stats=stats))
            payload = cliques, dict(asdict(stats))
            return payload, dict(stats.timings.laps)

        return ("enumeration", {"k": k, "tau": tau}, run)

    def max_op(k: int, tau: float) -> Op:
        def run(session: PreparedGraph) -> tuple[object, dict[str, float]]:
            stats = MaximumSearchStats()
            best = session.max_uc_plus(k, tau, stats=stats)
            payload = best, dict(asdict(stats))
            return payload, dict(stats.timings.laps)

        return ("maximum", {"k": k, "tau": tau}, run)

    def containing_op(k: int, tau: float) -> Op:
        def run(session: PreparedGraph) -> tuple[object, dict[str, float]]:
            return list(session.cliques_containing(anchor, k, tau)), {}

        return ("cliques_containing", {"node": str(anchor), "k": k, "tau": tau}, run)

    def exists_op(k: int, tau: float) -> Op:
        def run(session: PreparedGraph) -> tuple[object, dict[str, float]]:
            answer = session.containing_clique_exists(
                [anchor, partner], k, tau
            )
            return answer, {}

        return (
            "containing_clique_exists",
            {"nodes": [str(anchor), str(partner)], "k": k, "tau": tau},
            run,
        )

    return [
        max_op(6, 0.1),
        enum_op(6, 0.1),          # shares the (topk, cut) artifact above
        containing_op(4, 0.2),
        exists_op(4, 0.2),
        max_op(4, 0.2),
        enum_op(5, 0.25),
    ]


def run_queries_bench(
    dataset: str,
    repetitions: int,
    scale: float = 1.0,
    session_max_entries: int = 64,
) -> QueriesReport:
    """Benchmark repeated queries: cold sessions vs one warm session."""
    graph = load_dataset(dataset, scale=scale)
    ops = _workload(graph)

    warm_session = PreparedGraph(graph, max_entries=session_max_entries)
    for _, _, run in ops:
        run(warm_session)  # unmeasured warming pass fills the cache

    cold_times: list[list[float]] = [[] for _ in ops]
    warm_times: list[list[float]] = [[] for _ in ops]
    cold_compile: list[list[float]] = [[] for _ in ops]
    warm_compile: list[list[float]] = [[] for _ in ops]
    identical = [True] * len(ops)
    for _ in range(repetitions):
        for index, (_, _, run) in enumerate(ops):
            cold_graph = graph.copy()  # without a lowering, untimed
            start = time.perf_counter()
            cold_payload, cold_phases = run(PreparedGraph(cold_graph))
            cold_times[index].append(time.perf_counter() - start)

            start = time.perf_counter()
            warm_payload, warm_phases = run(warm_session)
            warm_times[index].append(time.perf_counter() - start)

            if cold_payload != warm_payload:
                identical[index] = False
            if cold_phases:
                cold_compile[index].append(cold_phases.get("compile", 0.0))
                warm_compile[index].append(warm_phases.get("compile", 0.0))

    results: list[QueryOpResult] = []
    for index, (name, params, _) in enumerate(ops):
        cold_median = _median(cold_times[index])
        warm_median = _median(warm_times[index])
        results.append(
            QueryOpResult(
                op=name,
                params=params,
                cold_times_s=cold_times[index],
                warm_times_s=warm_times[index],
                cold_median_s=cold_median,
                warm_median_s=warm_median,
                speedup=(
                    cold_median / warm_median if warm_median > 0.0 else 0.0
                ),
                identical_output=identical[index],
                cold_compile_median_s=(
                    _median(cold_compile[index])
                    if cold_compile[index]
                    else -1.0
                ),
                warm_compile_median_s=(
                    _median(warm_compile[index])
                    if warm_compile[index]
                    else -1.0
                ),
            )
        )

    provenance = collect_provenance()
    provenance["session_cache"] = warm_session.cache_info()
    return QueriesReport(
        benchmark="queries",
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        session_max_entries=session_max_entries,
        median_speedup=_median([op.speedup for op in results]),
        provenance=provenance,
        ops=results,
    )
