"""Streaming-update benchmark: incremental maintenance vs recompute.

The scoped-invalidation stack exists for exactly one workload: a graph
that keeps changing under a standing query.  This suite replays seeded
edge-update streams over a dataset graph and measures two arms per
stream, interleaved per repetition:

* **maintain** — one :class:`~repro.core.session.PreparedGraph` session
  with a session-mode :class:`~repro.core.maintenance.KTauCoreMaintainer`
  absorbs every update: the graph bumps only the touched component's
  epoch, the graph's own lowering is *delta-patched* forward through
  the mutation log, and the maintainer re-peels just the dirty frontier.
* **recompute** — the cold baseline: after every update the graph is
  re-lowered from scratch (:func:`~repro.core.prune_kernel.
  compile_graph`) and the full (k, tau)-core peel
  (:func:`~repro.core.prune_kernel.survival_peel`) runs over all nodes —
  what a caller without the incremental stack pays.

Streams: ``reweight`` (probability changes on existing edges — the
headline; the compiled rows are patched in place and the peel cascade is
local), ``structural`` (alternating edge insert/delete, exercising the
CSR splices and component split/merge relabelling), and ``mixed``.

Correctness gate: after *every* update the maintained core must be
set-identical to the cold recompute's — a speedup over a different core
is not a speedup; any disagreement fails ``repro-bench --check``.

Invalidation accounting: an unmeasured accounting pass re-runs the
maintain arm and records, per update, how many components were dirtied
(their ``(cid, epoch)`` key replaced) and how the lowering misses split
into delta patches versus full re-lowers.  The pass runs no query and
the maintainer stores nothing in the session, so there are no cached
artifacts to count.  The totals land in the report's provenance block,
so the delta-compile claims in ``docs/performance.md`` are measured,
not asserted.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

from repro.bench.runner import collect_provenance
from repro.core.maintenance import KTauCoreMaintainer
from repro.core.prune_kernel import compile_graph, survival_peel
from repro.core.session import PreparedGraph
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "StreamResult",
    "StreamingReport",
    "run_streaming_bench",
]

#: The measured streams: (stream kind, k, tau).  The headline quoted in
#: docs/performance.md — and gated at >= 5x on full-scale runs — is the
#: reweight stream.
STREAM_OPS: list[tuple[str, int, float]] = [
    ("reweight", 4, 0.2),
    ("structural", 4, 0.2),
    ("mixed", 4, 0.2),
]

#: Per-stream update counts: full runs amortize noise over a longer
#: stream; quick (CI smoke) runs keep the recompute arm affordable.
FULL_UPDATES = 30
QUICK_UPDATES = 8

#: Update payload: ("set_probability", u, v, p) / ("add_edge", u, v, p)
#: / ("remove_edge", u, v).
Update = tuple[Any, ...]


@dataclass
class StreamResult:
    """Maintain-vs-recompute timings for one update stream."""

    stream: str
    k: int
    tau: float
    updates: int
    maintain_times_s: list[float] = field(default_factory=list)
    recompute_times_s: list[float] = field(default_factory=list)
    maintain_median_s: float = 0.0
    recompute_median_s: float = 0.0
    speedup: float = 0.0
    identical_output: bool = True


@dataclass
class StreamingReport:
    """Everything ``BENCH_streaming.json`` records."""

    benchmark: str
    dataset: str
    scale: float
    repetitions: int
    interleaved: bool
    provenance: dict[str, object]
    streams: list[StreamResult]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(self.to_json())
        return path

    def all_identical(self) -> bool:
        return all(s.identical_output for s in self.streams)

    def headline_speedup(self) -> float:
        """The reweight stream's maintain-vs-recompute speedup."""
        for s in self.streams:
            if s.stream == "reweight":
                return s.speedup
        return 0.0


def _make_stream(
    graph: UncertainGraph, kind: str, updates: int, rng: random.Random
) -> list[Update]:
    """A deterministic update stream, valid when applied in order.

    Simulated on a scratch copy so every removal targets an edge that
    exists and every insertion a pair that does not *at that point of
    the stream* — both arms then replay the identical op list.
    """
    sim = graph.copy()
    nodes = list(sim.nodes())
    ops: list[Update] = []
    for i in range(updates):
        if kind == "reweight":
            op = "reweight"
        elif kind == "structural":
            op = "add" if i % 2 == 0 else "remove"
        else:
            op = rng.choice(
                ["reweight", "reweight", "reweight", "add", "remove"]
            )
        if op == "reweight":
            edges = list(sim.edges())
            u, v, _ = edges[rng.randrange(len(edges))]
            p = round(rng.uniform(0.2, 1.0), 6)
            sim.set_probability(u, v, p)
            ops.append(("set_probability", u, v, p))
        elif op == "add":
            while True:
                u, v = rng.sample(nodes, 2)
                if not sim.has_edge(u, v):
                    break
            p = round(rng.uniform(0.2, 1.0), 6)
            sim.add_edge(u, v, p)
            ops.append(("add_edge", u, v, p))
        else:
            edges = list(sim.edges())
            u, v, _ = edges[rng.randrange(len(edges))]
            sim.remove_edge(u, v)
            ops.append(("remove_edge", u, v))
    return ops


def _apply(graph: UncertainGraph, update: Update) -> None:
    """Apply one stream op to the recompute arm's own graph copy.

    Mutation is this helper's entire job — the caller owns the copy.
    """
    op = update[0]
    if op == "set_probability":
        graph.set_probability(  # repro-lint: ignore[RPL004]
            update[1], update[2], update[3]
        )
    elif op == "add_edge":
        graph.add_edge(  # repro-lint: ignore[RPL004]
            update[1], update[2], update[3]
        )
    else:
        graph.remove_edge(update[1], update[2])  # repro-lint: ignore[RPL004]


def _maintainer_step(
    maintainer: KTauCoreMaintainer, update: Update
) -> frozenset[Node]:
    op = update[0]
    if op == "set_probability":
        return maintainer.set_probability(update[1], update[2], update[3])
    if op == "add_edge":
        return maintainer.add_edge(update[1], update[2], update[3])
    return maintainer.remove_edge(update[1], update[2])


def _accounting_pass(
    graph: UncertainGraph, stream: list[Update], k: int, tau: float
) -> dict[str, object]:
    """Unmeasured maintain-arm replay recording invalidation accounting."""
    session = PreparedGraph(graph.copy())
    maintainer = KTauCoreMaintainer(session, k, tau)
    dirtied = 0
    for update in stream:
        before = set(session.graph.component_keys())
        _maintainer_step(maintainer, update)
        session._compiled_artifact()  # keep the delta chain hot
        after = set(session.graph.component_keys())
        dirtied += len(before - after)
    info = session.cache_info()
    return {
        "updates": len(stream),
        "components": session.graph.num_components,
        "components_dirtied_total": dirtied,
        "delta_patches": info["delta_patches"],
        "full_compiles": info["full_compiles"],
        "session_cache": info,
    }


def run_streaming_bench(
    dataset: str,
    repetitions: int,
    scale: float = 1.0,
    updates: int = FULL_UPDATES,
    ops: list[tuple[str, int, float]] | None = None,
    seed: int = 20190408,
) -> StreamingReport:
    """Benchmark edge-update streams: incremental maintain vs recompute."""
    ops = ops if ops is not None else list(STREAM_OPS)
    graph = load_dataset(dataset, scale=scale)

    streams = [
        _make_stream(graph, kind, updates, random.Random(seed + i))
        for i, (kind, _, _) in enumerate(ops)
    ]

    results = [
        StreamResult(stream=kind, k=k, tau=tau, updates=updates)
        for kind, k, tau in ops
    ]
    for _ in range(repetitions):
        for result, stream in zip(results, streams):
            k, tau = result.k, result.tau

            session = PreparedGraph(graph.copy())
            maintainer = KTauCoreMaintainer(session, k, tau)
            cold_graph = graph.copy()
            maintain_total = 0.0
            recompute_total = 0.0
            for update in stream:
                start = time.perf_counter()
                core = _maintainer_step(maintainer, update)
                maintain_total += time.perf_counter() - start

                start = time.perf_counter()
                _apply(cold_graph, update)
                cold_core = survival_peel(
                    compile_graph(cold_graph), k, tau
                )
                recompute_total += time.perf_counter() - start

                if frozenset(core) != frozenset(cold_core):
                    result.identical_output = False
            result.maintain_times_s.append(maintain_total)
            result.recompute_times_s.append(recompute_total)

    provenance = collect_provenance()
    provenance["updates_per_stream"] = updates
    provenance["invalidation"] = {
        result.stream: _accounting_pass(graph, stream, result.k, result.tau)
        for result, stream in zip(results, streams)
    }
    for result in results:
        result.maintain_median_s = float(
            statistics.median(result.maintain_times_s)
        )
        result.recompute_median_s = float(
            statistics.median(result.recompute_times_s)
        )
        result.speedup = (
            result.recompute_median_s / result.maintain_median_s
            if result.maintain_median_s > 0.0
            else 0.0
        )
    return StreamingReport(
        benchmark="streaming",
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        provenance=provenance,
        streams=results,
    )
