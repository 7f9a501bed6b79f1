"""Mutation-stream parity: warm sessions equal cold rebuilds, bit for bit.

The scoped-invalidation acceptance gate: a session that lives through an
arbitrary mutation stream must answer every query exactly like a cold
session built from scratch on the mutated graph — same cliques, same
yield order — while the hit/miss accounting proves that artifacts of
untouched components were *retained*, not silently recomputed.
"""

from __future__ import annotations

from itertools import combinations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KTauCoreMaintainer, PreparedGraph, UncertainGraph

relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_clusters() -> UncertainGraph:
    """Two disconnected near-cliques — retention is observable per side."""
    g = UncertainGraph()
    for u, v in combinations(["a1", "a2", "a3", "a4"], 2):
        g.add_edge(u, v, 0.9)
    for u, v in combinations(["b1", "b2", "b3", "b4"], 2):
        g.add_edge(u, v, 0.8)
    return g


@st.composite
def stream_cases(draw):
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


def apply_op(graph: UncertainGraph, op, u, v, p) -> bool:
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
def test_mutate_then_query_equals_cold_rebuild(case):
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
        warm_best = session.max_uc_plus(k, tau)
        cold_best = PreparedGraph(graph.copy()).max_uc_plus(k, tau)
        assert warm_best == cold_best


@relaxed
@given(stream_cases())
def test_session_mode_maintainer_streams_stay_consistent(case):
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
        # The maintained core must match a cold session's ktau pruning
        # lap on an independent copy of the mutated graph...
        cold = PreparedGraph(graph.copy())
        cold_cliques = list(cold.maximal_cliques(k, tau, pruning="ktau"))
        warm_cliques = list(session.maximal_cliques(k, tau, pruning="ktau"))
        assert warm_cliques == cold_cliques
        # ...and every enumerated clique lives inside the published core.
        for clique in warm_cliques:
            assert clique <= maintainer.core


class TestRetentionAccounting:
    def test_untouched_component_artifacts_stay_warm(self):
        graph = two_clusters()
        session = PreparedGraph(graph)
        base = list(session.maximal_cliques(2, 0.3))

        graph.set_probability("b1", "b2", 0.85)  # touch cluster B only
        info = session.retention_info()
        assert info["component_live"] > 0  # cluster A retained
        assert info["component_stale"] > 0  # cluster B orphaned
        # Every entry is component-scoped: the lowering is graph-owned.
        assert sum(info.values()) == session.cache_info()["entries"]

        hits_before = session.cache_stats.hits
        misses_before = session.cache_stats.misses
        warm = list(session.maximal_cliques(2, 0.3))
        warm_misses = session.cache_stats.misses - misses_before
        assert session.cache_stats.hits > hits_before  # A served from cache

        cold_session = PreparedGraph(graph.copy())
        cold = list(cold_session.maximal_cliques(2, 0.3))
        assert warm == cold
        assert len(warm) == len(base)
        # The warm session re-derived strictly less than the cold one.
        assert warm_misses < cold_session.cache_stats.misses

    def test_repeat_query_after_mutation_is_all_hit(self):
        graph = two_clusters()
        session = PreparedGraph(graph)
        graph.set_probability("a1", "a2", 0.95)
        first = list(session.maximal_cliques(2, 0.3))
        misses = session.cache_stats.misses
        assert list(session.maximal_cliques(2, 0.3)) == first
        assert session.cache_stats.misses == misses

    def test_mutation_stream_accumulates_fewer_misses_than_cold(self):
        # The whole point of scoped invalidation: across a stream that
        # only ever touches cluster B, the warm session must not pay
        # cluster A's artifacts again — so its total misses stay
        # strictly below a cold rebuild's for every query after the
        # first.
        graph = two_clusters()
        session = PreparedGraph(graph)
        list(session.maximal_cliques(2, 0.3))
        for p in (0.7, 0.75, 0.82, 0.9):
            graph.set_probability("b1", "b3", p)
            before = session.cache_stats.misses
            warm = list(session.maximal_cliques(2, 0.3))
            warm_misses = session.cache_stats.misses - before

            cold_session = PreparedGraph(graph.copy())
            cold = list(cold_session.maximal_cliques(2, 0.3))
            assert warm == cold
            assert warm_misses < cold_session.cache_stats.misses
