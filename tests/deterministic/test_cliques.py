"""Unit tests for Bron-Kerbosch enumeration (verified against networkx)."""

import networkx as nx
import pytest

from repro import UncertainGraph
from repro.deterministic.cliques import bron_kerbosch
from tests.conftest import make_random_graph


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(graph.nodes())
    g.add_edges_from(graph.deterministic_edges())
    return g


def nx_maximal_cliques(graph):
    return {frozenset(c) for c in nx.find_cliques(to_networkx(graph))}


class TestBronKerbosch:
    def test_triangle(self, triangle):
        assert set(bron_kerbosch(triangle)) == {frozenset("abc")}

    def test_path(self, path_graph):
        cliques = set(bron_kerbosch(path_graph))
        assert cliques == {
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({2, 3}),
            frozenset({3, 4}),
        }

    def test_isolated_node_is_maximal(self):
        g = UncertainGraph(edges=[(1, 2, 0.5)], nodes=[9])
        assert frozenset({9}) in set(bron_kerbosch(g))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = make_random_graph(18, 0.4, seed=seed)
        assert set(bron_kerbosch(g)) == nx_maximal_cliques(g)

    def test_no_duplicates(self):
        g = make_random_graph(15, 0.5, seed=17)
        cliques = list(bron_kerbosch(g))
        assert len(cliques) == len(set(cliques))

