"""The e2e benchmark's tracer still sees every layer it reports.

``benchmarks/e2e/trace.py`` times each layer by wrapping the program's
functions by name.  A renamed boundary fails its traced run, but a
query routed around a boundary would silently move that layer's time
into its caller's.  These tests drive the tracer as it stands: every
boundary resolves, a cold enumeration and an anchored query record
their prune, cut and search spans, and a MaxUC+ query whose pieces are
split into sub-pieces records view, color and search spans.
"""

from __future__ import annotations

import pytest

import repro.core.enumeration as enumeration_mod
from benchmarks.e2e.trace import Tracer, check_boundaries, installed
from repro import PreparedGraph, UncertainGraph
from tests.core.support import clique_edges


def test_every_traced_boundary_exists() -> None:
    check_boundaries()


def test_queries_record_view_color_and_search_spans(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A K5 and a K4 sharing no node: above a kernel limit of 3 every
    # MaxUC+ piece takes sub-pieces, and the enumeration takes one
    # view per vertex.
    graph = UncertainGraph(
        clique_edges("abcde", 0.9) + clique_edges("vwxy", 0.9)
    )
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    session = PreparedGraph(graph)
    queries = {
        "enum": lambda: list(session.maximal_cliques(2, 0.3)),
        "max": lambda: session.max_uc_plus(2, 0.3),
        "anchored": lambda: list(session.cliques_containing("v", 2, 0.3)),
    }
    tracer = Tracer()
    with installed(tracer):
        for op, (kind, query) in enumerate(queries.items()):
            with tracer.op(op, kind):
                assert query()
    layers: dict[str, set[str]] = {kind: set() for kind in queries}
    for name, _, _, parent, op in tracer.spans:
        if parent is not None:
            layers[list(queries)[op]].add(name)
    assert {"prune", "cut", "search"} <= layers["enum"]
    assert {"cut", "views", "color", "search"} <= layers["max"]
    assert {"prune.anchored", "cut", "search"} <= layers["anchored"]


def test_first_query_and_mutations_record_compile_spans() -> None:
    # The first query on a fresh graph builds its rows (compile.full);
    # one after a mutation advances the graph's view (compile.delta),
    # a node removal too.
    graph = UncertainGraph(
        clique_edges("abcde", 0.9) + clique_edges("vwxy", 0.9)
    )
    session = PreparedGraph(graph)
    mutations = (
        lambda: None,
        lambda: graph.set_probability("a", "b", 0.8),
        lambda: graph.remove_node("v"),
    )
    tracer = Tracer()
    with installed(tracer):
        for op, mutate in enumerate(mutations):
            mutate()
            with tracer.op(op, "enum"):
                assert list(session.maximal_cliques(2, 0.3))
    compiles = [
        (name, op) for name, _, _, parent, op in tracer.spans
        if name.startswith("compile.")
    ]
    assert compiles == [
        ("compile.full", 0), ("compile.delta", 1), ("compile.delta", 2),
    ]
