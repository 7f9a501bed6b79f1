"""Unit tests for :class:`repro.uncertain.UncertainGraph`."""

import pytest

from repro import UncertainGraph
from repro.uncertain.graph import Node
from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    InvalidProbabilityError,
    NodeNotFoundError,
)


class TestConstruction:
    def test_empty_graph(self):
        g = UncertainGraph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert g.nodes() == []
        assert list(g.edges()) == []

    def test_from_edge_triples(self):
        g = UncertainGraph(edges=[(1, 2, 0.5), (2, 3, 0.8)])
        assert g.num_nodes == 3
        assert g.num_edges == 2
        assert g.probability(1, 2) == 0.5

    def test_isolated_nodes(self):
        g = UncertainGraph(nodes=[1, 2, 3])
        assert g.num_nodes == 3
        assert g.num_edges == 0
        assert g.degree(2) == 0

    def test_nodes_and_edges_combined(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)], nodes=[9])
        assert set(g.nodes()) == {1, 2, 9}

    def test_repr(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        assert "num_nodes=2" in repr(g)
        assert "num_edges=1" in repr(g)


class TestAddEdge:
    def test_adds_both_directions(self):
        g = UncertainGraph()
        g.add_edge("x", "y", 0.7)
        assert g.has_edge("x", "y")
        assert g.has_edge("y", "x")
        assert g.probability("y", "x") == 0.7

    def test_creates_endpoints(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 0.5)
        assert g.has_node(1)
        assert g.has_node(2)

    def test_rejects_self_loop(self):
        g = UncertainGraph()
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 0.5)

    def test_rejects_duplicate_edge(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)])
        with pytest.raises(GraphError):
            g.add_edge(2, 1, 0.9)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 1.5, float("nan")])
    def test_rejects_bad_probability(self, bad):
        g = UncertainGraph()
        with pytest.raises(InvalidProbabilityError):
            g.add_edge(1, 2, bad)

    def test_probability_one_is_legal(self):
        g = UncertainGraph()
        g.add_edge(1, 2, 1.0)
        assert g.probability(1, 2) == 1.0


class TestQueries:
    def test_degree_counts_neighbors(self, triangle):
        assert triangle.degree("a") == 2
        assert triangle.degree("b") == 2

    def test_degree_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.degree("zzz")

    def test_neighbors(self, triangle):
        assert set(triangle.neighbors("a")) == {"b", "c"}

    def test_neighbors_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            list(triangle.neighbors("zzz"))

    def test_probability_missing_edge(self, path_graph):
        with pytest.raises(EdgeNotFoundError):
            path_graph.probability(0, 4)

    def test_incident_view(self, triangle):
        inc = triangle.incident("b")
        assert inc == {"a": 0.9, "c": 0.8}

    def test_max_degree(self, path_graph):
        assert path_graph.max_degree() == 2

    def test_max_degree_empty(self):
        assert UncertainGraph().max_degree() == 0

    def test_contains_and_iter(self, triangle):
        assert "a" in triangle
        assert "zzz" not in triangle
        assert set(iter(triangle)) == {"a", "b", "c"}

    def test_len(self, triangle):
        assert len(triangle) == 3

    def test_edges_yields_each_once(self, triangle):
        edges = list(triangle.edges())
        assert len(edges) == 3
        pairs = {frozenset((u, v)) for u, v, _ in edges}
        assert len(pairs) == 3

    def test_deterministic_edges(self, triangle):
        assert len(list(triangle.deterministic_edges())) == 3


class TestMutation:
    def test_remove_edge_returns_probability(self, triangle):
        assert triangle.remove_edge("a", "b") == 0.9
        assert not triangle.has_edge("a", "b")
        assert triangle.num_edges == 2

    def test_remove_missing_edge(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge("a", "zzz")

    def test_remove_node_drops_incident_edges(self, triangle):
        triangle.remove_node("a")
        assert triangle.num_nodes == 2
        assert triangle.num_edges == 1
        assert not triangle.has_edge("a", "b")

    def test_remove_missing_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.remove_node("zzz")

    def test_remove_nodes_bulk(self, triangle):
        triangle.remove_nodes(["a", "b"])
        assert triangle.nodes() == ["c"]
        assert triangle.num_edges == 0

    def test_set_probability(self, triangle):
        triangle.set_probability("a", "b", 0.42)
        assert triangle.probability("b", "a") == 0.42

    def test_set_probability_missing_edge(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.set_probability("a", "zzz", 0.5)

    def test_add_node_idempotent(self, triangle):
        triangle.add_node("a")
        assert triangle.num_nodes == 3


class TestDerivedGraphs:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge("a", "b")
        assert triangle.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_copy_equality(self, triangle):
        assert triangle.copy() == triangle

    def test_induced_subgraph(self, two_groups):
        sub = two_groups.induced_subgraph(["a1", "a2", "a3", "hub"])
        assert sub.num_nodes == 4
        assert sub.has_edge("a1", "a2")
        assert sub.has_edge("hub", "a1")
        assert not sub.has_edge("hub", "b1")
        assert sub.num_edges == 5

    def test_induced_subgraph_unknown_node(self, triangle):
        with pytest.raises(NodeNotFoundError):
            triangle.induced_subgraph(["a", "zzz"])

    def test_induced_subgraph_preserves_probabilities(self, triangle):
        sub = triangle.induced_subgraph(["a", "b"])
        assert sub.probability("a", "b") == 0.9

    def test_is_subgraph_of(self, triangle):
        sub = triangle.induced_subgraph(["a", "b"])
        assert sub.is_subgraph_of(triangle)
        assert not triangle.is_subgraph_of(sub)

    def test_is_subgraph_probability_sensitive(self, triangle):
        other = triangle.copy()
        other.set_probability("a", "b", 0.1)
        assert not other.is_subgraph_of(triangle)


class TestEquality:
    def test_equal_graphs(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(1, 2, 0.5)])
        assert a == b

    def test_unequal_probability(self):
        a = UncertainGraph(edges=[(1, 2, 0.5)])
        b = UncertainGraph(edges=[(1, 2, 0.6)])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert UncertainGraph() != 42

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(UncertainGraph())


def _label_rows(
    graph: UncertainGraph,
) -> dict[Node, tuple[list[Node], list[float]]]:
    """Each live node's id row as labels and probabilities."""
    rows = graph.id_rows()
    return {
        u: ([rows.labels[j] for j in rows.nbrs[i]], list(rows.probs[i]))
        for u, i in rows.index.items()
    }


class TestIdRows:
    def test_built_on_first_read_only(self, triangle):
        assert triangle._rows is None
        rows = triangle.id_rows()
        assert triangle.id_rows() is rows
        assert rows.labels == ["a", "b", "c"]
        assert list(rows.nbrs[0]) == [1, 2]
        assert list(rows.probs[0]) == [0.9, 0.5]

    def test_mutators_keep_rows_like_incident(self, triangle):
        rows = triangle.id_rows()
        triangle.set_probability("a", "c", 0.4)
        triangle.add_edge("c", "d", 0.7)
        triangle.remove_edge("a", "b")
        triangle.add_edge("b", "a", 0.3)
        triangle.remove_node("c")
        triangle.add_node("c")
        assert triangle.id_rows() is rows
        assert rows.labels == ["a", "b", "c", "d", "c"]
        assert list(rows.gone) == [0, 0, 1, 0, 0]
        assert _label_rows(triangle) == {
            u: (list(triangle.incident(u)),
                list(triangle.incident(u).values()))
            for u in triangle
        }

    def test_shape_ignores_reweights(self, triangle):
        rows = triangle.id_rows()
        shape = rows.shape
        triangle.set_probability("a", "b", 0.2)
        assert rows.shape == shape
        triangle.remove_edge("a", "b")
        assert rows.shape == shape + 1

    def test_derived_graphs_start_without_rows(self, triangle):
        triangle.id_rows()
        assert triangle.copy()._rows is None
        assert triangle.induced_subgraph(["a", "b"])._rows is None
