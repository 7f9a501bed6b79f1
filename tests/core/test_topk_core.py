"""Unit tests for the (Top_k, tau)-core (Algorithm 3)."""

import pytest

from repro import (
    UncertainGraph,
    dp_core_plus,
    topk_core,
)
from repro.errors import ParameterError
from repro.utils.validation import prob_at_least
from tests.conftest import make_clique, make_random_graph
from tests.core.oracles import top_k_product


def _pi_k(graph, node, k):
    """``pi_k(node)`` (Definition 8) over the node's incident edges."""
    return top_k_product(graph.incident(node).values(), k)


class TestTopKProductProbability:
    def test_basic_product(self, triangle):
        # a's incident probabilities: 0.9, 0.5.
        assert _pi_k(triangle, "a", 1) == pytest.approx(0.9)
        assert _pi_k(triangle, "a", 2) == pytest.approx(0.45)

    def test_degree_too_small_gives_zero(self, triangle):
        assert _pi_k(triangle, "a", 3) == 0.0

    def test_k_zero_is_one(self, triangle):
        assert _pi_k(triangle, "a", 0) == 1.0

    def test_negative_k_rejected(self, triangle):
        with pytest.raises(ParameterError):
            _pi_k(triangle, "a", -1)

    def test_takes_largest(self):
        g = UncertainGraph(
            edges=[(0, 1, 0.2), (0, 2, 0.9), (0, 3, 0.7)]
        )
        assert _pi_k(g, 0, 2) == pytest.approx(0.63)


class TestTopKCore:
    def test_result_truthiness(self, two_groups):
        result = topk_core(two_groups, 3, 0.7)
        assert result
        empty = topk_core(two_groups, 3, 1.0)
        assert not empty

    def test_prunes_weak_hub(self, two_groups):
        result = topk_core(two_groups, 3, 0.7)
        assert "hub" not in result.nodes
        assert {"a1", "a2", "a3", "a4"} <= set(result.nodes)

    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        topk_core(two_groups, 3, 0.7)
        assert two_groups == before

    def test_k_zero_keeps_everything(self, two_groups):
        result = topk_core(two_groups, 0, 0.5)
        assert set(result.nodes) == set(two_groups.nodes())

    def test_empty_graph(self):
        result = topk_core(UncertainGraph(), 2, 0.5)
        assert result.nodes == frozenset()
        assert result.contains_fixed

    def test_every_member_meets_threshold(self):
        g = make_random_graph(14, 0.5, seed=7)
        k, tau = 3, 0.2
        result = topk_core(g, k, tau)
        if result.nodes:
            sub = g.induced_subgraph(result.nodes)
            for u in result.nodes:
                assert prob_at_least(_pi_k(sub, u, k), tau)

    def test_cascading_peel(self):
        # A chain of 4-cliques at probability 0.8: removing the weakest
        # attachment cascades.
        g = make_clique(4, 0.8)
        g.add_edge(3, 4, 0.8)
        g.add_edge(3, 5, 0.8)
        result = topk_core(g, 3, 0.5)
        # Nodes 4 and 5 have only one strong edge each -> peeled; the
        # 4-clique has pi_3 = 0.512 >= 0.5 -> survives.
        assert set(result.nodes) == {0, 1, 2, 3}


class TestFixedSet:
    def test_fixed_node_peeled_aborts(self, two_groups):
        result = topk_core(two_groups, 3, 0.7, fixed={"hub"})
        assert not result.contains_fixed
        assert result.nodes == frozenset()

    def test_fixed_node_surviving_is_fine(self, two_groups):
        result = topk_core(two_groups, 3, 0.7, fixed={"a1"})
        assert result.contains_fixed
        assert "a1" in result.nodes

    def test_fixed_node_peeled_in_cascade(self):
        g = make_clique(4, 0.8)
        g.add_edge(3, 4, 0.8)
        result = topk_core(g, 3, 0.5, fixed={4})
        assert not result.contains_fixed


class TestCorollaryOne:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("tau", [0.05, 0.3, 0.8])
    def test_topk_core_inside_ktau_core(self, seed, tau):
        g = make_random_graph(14, 0.5, seed=seed)
        for k in range(1, 5):
            topk_nodes = set(topk_core(g, k, tau).nodes)
            plus_core_nodes = dp_core_plus(g, k, tau)
            assert topk_nodes <= plus_core_nodes
