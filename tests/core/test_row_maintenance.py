"""The graph keeps its id rows in step with every mutation.

The peels, the cut and the search views read a graph as dense ids and
per-id rows (:class:`~repro.uncertain.graph.IdRows`), which the graph
builds on first read and its mutators keep in step; the graph's
lowering is a view over them that advances to each new version
(:func:`repro.core.pipeline.lowering`).  After every reweight, insert,
delete, node removal and re-added label:

* the live rows equal rows rebuilt from ``incident()`` in iteration
  order, and ``sort_rank`` equals a fresh ranking
  (:func:`tests.core.support.assert_rows_current`);
* every query kind answers like a cold session on ``graph.copy()``,
  bit for bit, counters included;
* no tombstone reaches a peel result, at ``k = 0`` too;
* the graph is lowered once: a ``remove_node`` advances the view like
  any other mutation.
"""

from __future__ import annotations

from typing import Any

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core import pipeline
from repro.core.prune_kernel import (
    CompiledGraph,
    distribution_peel,
    survival_peel,
    topk_peel,
)
from tests.core.support import (
    PROBABILITY_PALETTE,
    assert_rows_current,
    seed_graph,
)
from tests.core.test_conformance import Case, ask_all

OPS = ("reweight", "add_edge", "remove_edge", "add_node", "remove_node")


def assert_no_tombstones(
    cpg: CompiledGraph, graph: UncertainGraph, tau: float
) -> None:
    """Every whole-graph peel returns live nodes only; at ``k = 0``
    exactly the live nodes."""
    live = set(graph)
    for peel in (topk_peel, survival_peel, distribution_peel):
        assert set(peel(cpg, 0, tau)) == live
        for k in (1, 2):
            assert set(peel(cpg, k, tau)) <= live


def valid(graph: UncertainGraph, op: str, u: Any, v: Any) -> bool:
    """Whether ``op`` on ``u`` and ``v`` is a valid mutation of
    ``graph``."""
    if op == "add_node":
        return u not in graph
    if op == "remove_node":
        return u in graph
    if op == "add_edge":
        return u != v and not graph.has_edge(u, v)
    return graph.has_edge(u, v)


@st.composite
def streams(draw: st.DrawFn) -> tuple[Any, ...]:
    """A small graph, a mutation stream over labels that include a few
    the graph lacks (so removed labels come back), and query
    parameters."""
    n = draw(st.integers(min_value=2, max_value=6))
    graph = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    label = st.integers(min_value=0, max_value=n + 1)
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(OPS), label, label,
            st.sampled_from(PROBABILITY_PALETTE),
        ),
        min_size=1, max_size=10,
    ))
    case = Case(
        graph,
        k=draw(st.integers(min_value=0, max_value=3)),
        tau=draw(st.sampled_from((0.1, 0.3, 0.5))),
        pruning=draw(st.sampled_from(("topk", "ktau"))),
        anchors=(0, 1),
    )
    return graph, ops, case


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(streams())
def test_streams_keep_rows_and_answers_like_a_cold_copy(
    stream: tuple[Any, ...],
) -> None:
    graph, ops, case = stream
    session = PreparedGraph(graph)
    ask_all(session, case)
    lowered, _ = pipeline.lowering(graph)
    for op, u, v, p in ops:
        if not valid(graph, op, u, v):
            continue
        if op == "add_node":
            graph.add_node(u)
        elif op == "remove_node":
            graph.remove_node(u)
        elif op == "add_edge":
            graph.add_edge(u, v, p)
        elif op == "reweight":
            graph.set_probability(u, v, p)
        else:
            graph.remove_edge(u, v)
        answers = ask_all(session, case)
        assert answers == ask_all(PreparedGraph(graph.copy()), case)
        assert graph._lowering is lowered
        assert_rows_current(lowered, graph)
        assert_no_tombstones(lowered, graph, case.tau)
    assert session.cache_stats.full_compiles == 1


def test_an_advance_without_mutations_changes_nothing() -> None:
    g = seed_graph()
    lowered, how = pipeline.lowering(g)
    assert how == "full"
    topk_peel(lowered, 1, 0.3)
    topk_peel(lowered, 1, 0.3)
    levels = dict(lowered._topk_levels)
    rank = lowered.sort_rank
    assert pipeline.lowering(g) == (lowered, "current")
    assert lowered._topk_levels == levels and lowered.sort_rank is rank
    assert_rows_current(lowered, g)


def test_remove_node_leaves_a_tombstone() -> None:
    g = seed_graph()
    lowered, _ = pipeline.lowering(g)
    i = lowered.index["c"]
    g.remove_node("c")
    # The rows follow the graph at once; the view's memos at the next
    # advance.
    assert lowered.rows.gone[i] and "c" not in lowered.index
    assert not lowered.row(i)[0] and lowered.nodes[i] == "c"
    g.add_edge("c", "a", 0.9)  # a re-added label takes the next id
    assert lowered.index["c"] == lowered.n - 1 != i
    assert pipeline.lowering(g) == (lowered, "delta")
    assert_rows_current(lowered, g)
    assert_no_tombstones(lowered, g, 0.3)


def test_remove_node_keeps_one_full_compile() -> None:
    graph = seed_graph()
    case = Case(graph, 1, 0.3, anchors=("a", "b"))
    session = PreparedGraph(graph)
    cold = ask_all(session, case)
    lowered = graph._lowering
    graph.set_probability("a", "b", 0.2)
    graph.remove_node("c")
    assert ask_all(session, case) == ask_all(
        PreparedGraph(graph.copy()), case
    )
    assert ask_all(session, case) != cold
    assert session.cache_stats.full_compiles == 1
    assert session.cache_stats.delta_patches == 1
    assert graph._lowering is lowered
