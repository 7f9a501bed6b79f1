"""Unit tests for top-r maximal clique search."""

import pytest

from repro import UncertainGraph, muce_plus_plus, top_r_maximal_cliques
from repro.errors import ParameterError
from tests.conftest import make_random_graph


def reference_top_r(graph, r, k, tau):
    """Top-r by full enumeration plus the documented ranking."""
    cliques = list(muce_plus_plus(graph, k, tau))
    ranked = sorted(
        cliques, key=lambda c: (-len(c), sorted(str(v) for v in c))
    )
    return ranked[:r]


class TestTopR:
    def test_r_must_be_positive(self, triangle):
        with pytest.raises(ParameterError):
            top_r_maximal_cliques(triangle, 0, 1, 0.5)

    def test_two_groups_top_one(self, two_groups):
        (best,) = top_r_maximal_cliques(two_groups, 1, 3, 0.7)
        assert len(best) == 4

    def test_two_groups_top_two(self, two_groups):
        result = top_r_maximal_cliques(two_groups, 2, 3, 0.7)
        assert {frozenset(c) for c in result} == {
            frozenset({"a1", "a2", "a3", "a4"}),
            frozenset({"b1", "b2", "b3", "b4"}),
        }

    def test_fewer_than_r_available(self, two_groups):
        result = top_r_maximal_cliques(two_groups, 10, 3, 0.7)
        assert len(result) == 2

    def test_empty_graph(self):
        assert top_r_maximal_cliques(UncertainGraph(), 3, 1, 0.5) == []

    def test_sizes_non_increasing(self):
        g = make_random_graph(14, 0.6, seed=3)
        result = top_r_maximal_cliques(g, 5, 1, 0.1)
        sizes = [len(c) for c in result]
        assert sizes == sorted(sizes, reverse=True)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("r", [1, 3, 7])
    def test_sizes_match_reference(self, seed, r):
        g = make_random_graph(12, 0.55, seed=seed)
        k, tau = 1, 0.2
        got = top_r_maximal_cliques(g, r, k, tau)
        expected = reference_top_r(g, r, k, tau)
        assert got == expected

    @pytest.mark.parametrize("names", ["za", "az", "zyxwa"])
    def test_ties_go_to_the_lexicographically_first_clique(self, names):
        # Disjoint triangles of one probability tie on size; the ranking
        # key, not the enumeration order, picks the first of them.
        g = UncertainGraph()
        for name in names:
            for u, v in ((1, 2), (1, 3), (2, 3)):
                g.add_edge(f"{name}{u}", f"{name}{v}", 0.9)
        (best,) = top_r_maximal_cliques(g, 1, 1, 0.5)
        assert best == frozenset({"a1", "a2", "a3"})
        assert top_r_maximal_cliques(g, 2, 1, 0.5) == reference_top_r(
            g, 2, 1, 0.5
        )

    def test_every_result_is_a_known_maximal_clique(self):
        g = make_random_graph(12, 0.55, seed=11)
        k, tau = 1, 0.2
        all_cliques = set(muce_plus_plus(g, k, tau))
        for clique in top_r_maximal_cliques(g, 4, k, tau):
            assert clique in all_cliques

    def test_deterministic(self):
        g = make_random_graph(13, 0.5, seed=21)
        a = top_r_maximal_cliques(g, 4, 1, 0.2)
        b = top_r_maximal_cliques(g, 4, 1, 0.2)
        assert a == b
