"""Component version-vector invariants of UncertainGraph.

The session layer keys component-scoped memo entries on ``(cid, epoch)``
pairs, so these invariants are what make scoped invalidation sound: the
component map always matches true connectivity, a mutation bumps the
epoch of exactly the touched component(s), ``(cid, epoch)`` pairs are
never reused, and derived graphs (``copy()``, ``induced_subgraph()``)
carry the vector without coupling back to the source.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.errors import NodeNotFoundError
from tests.conftest import current_lowering

relaxed = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_components(graph: UncertainGraph) -> list[frozenset]:
    """Connected components by plain BFS, ignoring the tracked map."""
    seen: set = set()
    out = []
    for start in graph:
        if start in seen:
            continue
        piece = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in graph.incident(u):
                if v not in piece:
                    piece.add(v)
                    queue.append(v)
        seen |= piece
        out.append(frozenset(piece))
    return out


def assert_map_matches_reality(graph: UncertainGraph) -> None:
    truth = {min(map(str, piece)): piece for piece in reference_components(graph)}
    tracked: dict[int, set] = {}
    for node in graph:
        tracked.setdefault(graph.component_id(node), set()).add(node)
    assert sorted(map(frozenset, tracked.values()), key=lambda p: min(map(str, p))) == [
        truth[name] for name in sorted(truth)
    ]
    assert graph.num_components == len(truth)


def two_triangles() -> UncertainGraph:
    g = UncertainGraph()
    for a, b in [("a", "b"), ("b", "c"), ("a", "c")]:
        g.add_edge(a, b, 0.9)
    for a, b in [("x", "y"), ("y", "z"), ("x", "z")]:
        g.add_edge(a, b, 0.8)
    return g


class TestComponentMap:
    def test_matches_bfs_on_construction(self):
        assert_map_matches_reality(two_triangles())

    def test_isolated_nodes_are_singletons(self):
        g = UncertainGraph(nodes=["p", "q"])
        assert g.num_components == 2
        assert g.component_id("p") != g.component_id("q")
        assert g.component_nodes("p") == ("p",)

    def test_unknown_node_raises(self):
        g = two_triangles()
        with pytest.raises(NodeNotFoundError):
            g.component_id("nope")
        with pytest.raises(NodeNotFoundError):
            g.component_key("nope")

    def test_bridging_edge_merges_to_one_id(self):
        g = two_triangles()
        g.add_edge("c", "x", 0.5)
        assert g.num_components == 1
        assert g.component_id("a") == g.component_id("z")
        assert_map_matches_reality(g)

    def test_removing_bridge_splits_with_fresh_id(self):
        g = two_triangles()
        g.add_edge("c", "x", 0.5)
        keys_joined = dict(g.component_keys())
        g.remove_edge("c", "x")
        assert g.num_components == 2
        assert g.component_id("a") != g.component_id("x")
        # The carved-off piece gets an id never seen before.
        fresh = {g.component_id("a"), g.component_id("x")} - set(keys_joined)
        assert len(fresh) == 1
        assert_map_matches_reality(g)

    def test_nonbridge_removal_keeps_component(self):
        g = two_triangles()
        cid = g.component_id("a")
        g.remove_edge("a", "b")  # a-c-b path remains
        assert g.component_id("a") == cid
        assert g.num_components == 2
        assert_map_matches_reality(g)

    def test_remove_node_updates_map(self):
        g = two_triangles()
        g.remove_node("b")
        assert_map_matches_reality(g)
        with pytest.raises(NodeNotFoundError):
            g.component_id("b")


class TestEpochDiscipline:
    def test_mutation_bumps_only_touched_component(self):
        g = two_triangles()
        left_before = g.component_key("a")
        right_before = g.component_key("x")
        g.set_probability("a", "b", 0.1)
        assert g.component_key("a") != left_before
        assert g.component_key("x") == right_before

    def test_epoch_is_version_at_last_mutation(self):
        g = two_triangles()
        g.set_probability("x", "y", 0.2)
        assert g.component_key("x") == (g.component_id("x"), g.version)

    def test_keys_never_reused_across_a_touch(self):
        g = two_triangles()
        seen = {g.component_key("a")}
        for p in (0.3, 0.4, 0.5):
            g.set_probability("a", "b", p)
            key = g.component_key("a")
            assert key not in seen
            seen.add(key)

    def test_component_keys_snapshot_shows_dirtied(self):
        g = two_triangles()
        before = set(g.component_keys())
        g.set_probability("a", "c", 0.7)
        after = set(g.component_keys())
        assert len(before - after) == 1  # exactly one component dirtied
        assert len(after - before) == 1


class TestDerivedGraphs:
    def test_copy_deep_copies_component_state(self):
        g = two_triangles()
        clone = g.copy()
        assert clone.component_keys() == g.component_keys()
        source_keys = g.component_keys()
        clone.remove_edge("a", "b")
        clone.remove_edge("a", "c")
        assert g.component_keys() == source_keys
        assert g.num_components == 2
        assert clone.num_components == 3
        assert_map_matches_reality(g)
        assert_map_matches_reality(clone)

    def test_induced_subgraph_inherits_source_epochs(self):
        g = two_triangles()
        sub = g.induced_subgraph(["a", "b", "c"])
        assert sub.component_key("a") == g.component_key("a")
        assert_map_matches_reality(sub)

    def test_clone_mutation_never_invalidates_source_session(self):
        # Satellite regression: a session memoized over the source graph
        # must stay fully warm no matter what happens to a copy.
        g = two_triangles()
        session = PreparedGraph(g)
        cliques = list(session.maximal_cliques(2, 0.3))
        warm = session.cache_info()["entries"]
        assert warm > 0
        lowered = current_lowering(g)

        clone = g.copy()
        clone.remove_edge("a", "b")
        clone.set_probability("x", "y", 0.05)
        clone.add_edge("c", "x", 0.4)

        info = session.retention_info()
        assert info["component_stale"] == 0
        # The clone lowers itself; the source's lowering stays current.
        assert clone._lowering is None
        assert current_lowering(g) is lowered
        misses_before = session.cache_stats.misses
        assert list(session.maximal_cliques(2, 0.3)) == cliques
        assert session.cache_stats.misses == misses_before
        assert session.purge_stale() == 0
        assert session.cache_info()["entries"] == warm


@st.composite
def mutation_streams(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    g = UncertainGraph(nodes=range(n))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if draw(st.booleans())
    ]
    for u, v in edges:
        g.add_edge(u, v, draw(st.floats(min_value=0.05, max_value=1.0)))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "reweight", "drop_node"]),
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.05, max_value=1.0),
            ),
            max_size=12,
        )
    )
    return g, ops


@relaxed
@given(mutation_streams())
def test_component_map_tracks_arbitrary_mutation_streams(case):
    graph, ops = case
    for op, u, v, p in ops:
        if u == v:
            continue
        if op == "add" and graph.has_node(u) and graph.has_node(v):
            if not graph.has_edge(u, v):
                graph.add_edge(u, v, p)
        elif op == "remove" and graph.has_edge(u, v):
            graph.remove_edge(u, v)
        elif op == "reweight" and graph.has_edge(u, v):
            graph.set_probability(u, v, p)
        elif op == "drop_node" and graph.has_node(u):
            graph.remove_node(u)
        assert_map_matches_reality(graph)
        for node in graph:
            cid, epoch = graph.component_key(node)
            assert epoch <= graph.version


@relaxed
@given(mutation_streams())
def test_untouched_components_keep_their_keys(case):
    graph, ops = case
    for op, u, v, p in ops:
        if u == v:
            continue
        before = dict(graph.component_keys())
        touched: set[int] = set()
        if op == "add" and graph.has_node(u) and graph.has_node(v):
            if graph.has_edge(u, v):
                continue
            touched = {graph.component_id(u), graph.component_id(v)}
            graph.add_edge(u, v, p)
        elif op == "remove" and graph.has_edge(u, v):
            touched = {graph.component_id(u)}
            graph.remove_edge(u, v)
        elif op == "reweight" and graph.has_edge(u, v):
            touched = {graph.component_id(u)}
            graph.set_probability(u, v, p)
        elif op == "drop_node" and graph.has_node(u):
            touched = {graph.component_id(u)}
            graph.remove_node(u)
        else:
            continue
        after = dict(graph.component_keys())
        for cid, epoch in before.items():
            if cid in touched:
                continue
            assert after.get(cid) == epoch, (
                f"untouched component {cid} changed key under {op}"
            )
