"""Mutation-stream parity: warm sessions equal cold rebuilds, bit for bit.

A session that lives through an arbitrary mutation stream answers every
query exactly like a cold session built on the mutated graph — same
cliques, same yield order — while the hit / miss accounting shows that
the artifacts of untouched components were *retained*, not silently
recomputed.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KTauCoreMaintainer, PreparedGraph, UncertainGraph
from tests.core.support import two_cliques

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def stream_cases(draw: st.DrawFn) -> tuple:
    n = draw(st.integers(min_value=4, max_value=9))
    g = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.floats(min_value=0.05, max_value=1.0)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "reweight", "drop_node"]),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            min_size=1,
            max_size=8,
        )
    )
    k = draw(st.sampled_from([1, 2]))
    tau = draw(st.sampled_from([0.1, 0.3, 0.5]))
    return g, ops, k, tau


def apply_op(graph: UncertainGraph, op: str, u: int, v: int, p: float) -> bool:
    """Apply one stream op to the session's live graph (its entire job)."""
    if u == v:
        return False
    if op == "add" and graph.has_node(u) and graph.has_node(v):
        if graph.has_edge(u, v):
            return False
        graph.add_edge(u, v, p)  # repro-lint: ignore[RPL004]
    elif op == "remove" and graph.has_edge(u, v):
        graph.remove_edge(u, v)  # repro-lint: ignore[RPL004]
    elif op == "reweight" and graph.has_edge(u, v):
        graph.set_probability(u, v, p)  # repro-lint: ignore[RPL004]
    elif op == "drop_node" and graph.has_node(u) and len(graph) > 1:
        graph.remove_node(u)  # repro-lint: ignore[RPL004]
    else:
        return False
    return True


@relaxed
@given(stream_cases())
def test_mutate_then_query_equals_cold_rebuild(case: tuple) -> None:
    graph, ops, k, tau = case
    session = PreparedGraph(graph)
    list(session.maximal_cliques(k, tau))  # warm the pre-stream state
    for op, u, v, p in ops:
        if not apply_op(graph, op, u, v, p):
            continue
        warm = list(session.maximal_cliques(k, tau))
        cold = list(PreparedGraph(graph.copy()).maximal_cliques(k, tau))
        assert warm == cold  # same cliques, same yield order
    if len(graph) > 0:
        assert session.max_uc_plus(k, tau) == PreparedGraph(
            graph.copy()
        ).max_uc_plus(k, tau)


@relaxed
@given(stream_cases())
def test_session_mode_maintainer_streams_stay_consistent(case: tuple) -> None:
    graph, ops, k, tau = case
    session = PreparedGraph(graph)
    maintainer = KTauCoreMaintainer(session, k, tau)
    for op, u, v, p in ops:
        if u == v:
            continue
        if op == "add" and graph.has_node(u) and graph.has_node(v):
            if not graph.has_edge(u, v):
                maintainer.add_edge(u, v, p)
        elif op == "remove" and graph.has_edge(u, v):
            maintainer.remove_edge(u, v)
        elif op == "reweight" and graph.has_edge(u, v):
            maintainer.set_probability(u, v, p)
        else:
            continue
        # The maintained core matches a cold session's ktau pruning on
        # an independent copy of the mutated graph...
        cold = PreparedGraph(graph.copy())
        cold_cliques = list(cold.maximal_cliques(k, tau, pruning="ktau"))
        warm_cliques = list(session.maximal_cliques(k, tau, pruning="ktau"))
        assert warm_cliques == cold_cliques
        # ...and every enumerated clique lives inside the published core.
        for clique in warm_cliques:
            assert clique <= maintainer.core


class TestRetentionAccounting:
    """A K4 and a triangle: retention is observable per component."""

    def test_untouched_component_artifacts_stay_warm(self) -> None:
        graph = two_cliques()
        session = PreparedGraph(graph)
        base = list(session.maximal_cliques(2, 0.3))

        graph.set_probability("x", "y", 0.85)  # touch the triangle only
        info = session.retention_info()
        assert info["component_live"] > 0  # the K4's entries
        assert info["component_stale"] > 0  # the triangle's
        # Every entry is component-scoped: the lowering is graph-owned.
        assert sum(info.values()) == session.cache_info()["entries"]

        hits, misses = session.cache_stats.hits, session.cache_stats.misses
        warm = list(session.maximal_cliques(2, 0.3))
        assert session.cache_stats.hits > hits  # the K4 served from cache
        cold_session = PreparedGraph(graph.copy())
        assert warm == list(cold_session.maximal_cliques(2, 0.3))
        assert len(warm) == len(base)
        # The warm session re-derived strictly less than the cold one.
        assert session.cache_stats.misses - misses < (
            cold_session.cache_stats.misses
        )

    def test_repeat_query_after_mutation_is_all_hit(self) -> None:
        graph = two_cliques()
        session = PreparedGraph(graph)
        graph.set_probability("a", "b", 0.95)
        first = list(session.maximal_cliques(2, 0.3))
        misses = session.cache_stats.misses
        assert list(session.maximal_cliques(2, 0.3)) == first
        assert session.cache_stats.misses == misses

    def test_mutation_stream_accumulates_fewer_misses_than_cold(self) -> None:
        # Across a stream that only touches the triangle, the warm
        # session never pays the K4's artifacts again.
        graph = two_cliques()
        session = PreparedGraph(graph)
        list(session.maximal_cliques(2, 0.3))
        for p in (0.7, 0.75, 0.82, 0.9):
            graph.set_probability("x", "z", p)
            before = session.cache_stats.misses
            warm = list(session.maximal_cliques(2, 0.3))
            cold_session = PreparedGraph(graph.copy())
            assert warm == list(cold_session.maximal_cliques(2, 0.3))
            assert session.cache_stats.misses - before < (
                cold_session.cache_stats.misses
            )
