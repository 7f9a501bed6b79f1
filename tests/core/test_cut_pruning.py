"""Unit tests for the cut-based optimization (Section III-C)."""

import importlib

import pytest

from repro import UncertainGraph, cut_optimize
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.core.cut_pruning import cut_probability, is_low_probability_cut
from repro.errors import ParameterError
from tests.conftest import (
    make_clique,
    make_random_graph,
    make_second_sweep_graph,
)


class TestCutProbability:
    def test_top_k_product(self):
        assert cut_probability([0.9, 0.5, 0.8], 2) == pytest.approx(0.72)

    def test_small_cut_is_zero(self):
        assert cut_probability([0.9], 2) == 0.0

    def test_k_zero_is_one(self):
        assert cut_probability([0.9], 0) == 1.0

    def test_empty_cut(self):
        assert cut_probability([], 1) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            cut_probability([0.5], -1)


class TestIsLowProbabilityCut:
    def test_low(self):
        assert is_low_probability_cut([0.3, 0.3, 0.3], 3, 0.1)

    def test_not_low(self):
        assert not is_low_probability_cut([0.9, 0.9, 0.9], 3, 0.5)

    def test_small_cut_always_low(self):
        assert is_low_probability_cut([0.99], 2, 0.0001)


def _three_blocks() -> UncertainGraph:
    """Three strong 4-cliques in a chain, joined by low-probability cuts
    (three and four edges), plus a fringe node hanging off the first."""
    g = UncertainGraph()
    for block in ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)):
        for i, u in enumerate(block):
            for v in block[i + 1 :]:
                g.add_edge(u, v, 0.9)
    for u, v, p in [
        (3, 4, 0.5), (2, 5, 0.4), (1, 6, 0.3),
        (7, 8, 0.6), (6, 9, 0.6), (5, 10, 0.6), (4, 11, 0.6),
        (12, 0, 0.9), (12, 1, 0.9),
    ]:
        g.add_edge(u, v, p)
    return g


class TestCutOptimize:
    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        version = two_groups.version
        keys = two_groups.component_keys()
        cut_optimize(two_groups, 3, 0.7)
        assert two_groups == before
        assert list(two_groups.nodes()) == list(before.nodes())
        assert two_groups.version == version
        assert two_groups.component_keys() == keys

    def test_no_graph_mutation_and_one_compile(self, monkeypatch):
        g = _three_blocks()

        def forbidden(*args, **kwargs):
            raise AssertionError("cut_optimize must not call this")

        for name in (
            "add_node", "add_edge", "set_probability",
            "remove_edge", "remove_node", "remove_nodes",
        ):
            monkeypatch.setattr(UncertainGraph, name, forbidden)
        # The cut runs on the compile's rows: exactly one lowering, made
        # through the cut module's own import.  The package re-exports
        # same-named functions, so modules are looked up by full name.
        cut_module = importlib.import_module("repro.core.cut_pruning")
        lowerings = []
        lower = cut_module.compile_graph

        def counted(graph):
            lowerings.append(graph)
            return lower(graph)

        monkeypatch.setattr(cut_module, "compile_graph", counted)
        for module in ("repro.core.prune_kernel", "repro.core.topk_core"):
            monkeypatch.setattr(
                importlib.import_module(module), "compile_graph", forbidden
            )
        result = cut_optimize(g, 3, 0.5)
        assert lowerings == [g]
        assert result.cuts_found > 0
        assert result.fringe_nodes_peeled > 0

    def test_pinned_cuts_and_component_order(self):
        # Pins the sweep (start node, tie-breaks) and the output order
        # (by lowest node id): a change to any of them shows up here.
        g = _three_blocks()
        result = cut_optimize(g, 3, 0.5)
        assert result.cuts_found == 2
        assert result.edges_removed == 9
        assert result.fringe_nodes_peeled == 1
        assert [c.nodes() for c in result.components] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12],
        ]
        kept = sum(c.num_edges for c in result.components)
        assert kept + result.edges_removed == g.num_edges

    def test_second_sweep_from_last_absorbed_node(self):
        # The sweep from node 0 flags no boundary; the second sweep,
        # started at the node the first absorbed last (5), cuts {1, 3}
        # off, and the fringe peel then splits that pair.
        g = make_second_sweep_graph()
        result = cut_optimize(g, 2, 0.3)
        assert result.cuts_found == 1
        assert result.edges_removed == 5
        assert result.fringe_nodes_peeled == 2
        assert [c.nodes() for c in result.components] == [
            [0, 2, 4, 5, 6], [1], [3],
        ]

    def test_weak_bridge_severed(self, two_groups):
        result = cut_optimize(two_groups, 3, 0.7)
        comp_sets = [set(c.nodes()) for c in result.components]
        groups_a = {"a1", "a2", "a3", "a4"}
        groups_b = {"b1", "b2", "b3", "b4"}
        assert any(groups_a <= cs and not (groups_b & cs) for cs in comp_sets)
        assert result.cuts_found >= 1
        assert result.edges_removed >= 1

    def test_strong_graph_untouched(self):
        g = make_clique(6, 0.95)
        result = cut_optimize(g, 3, 0.5)
        assert result.cuts_found == 0
        assert len(result.components) == 1
        assert result.components[0] == g

    def test_disconnected_input(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (3, 4, 0.9)])
        result = cut_optimize(g, 1, 0.5)
        assert len(result.components) == 2

    def test_empty_graph(self):
        result = cut_optimize(UncertainGraph(), 3, 0.5)
        assert result.components == []

    def test_all_nodes_preserved(self):
        g = make_random_graph(15, 0.4, seed=3)
        result = cut_optimize(g, 3, 0.3)
        seen = [u for c in result.components for u in c.nodes()]
        assert sorted(seen) == sorted(g.nodes())

    def test_components_are_edge_disjoint_pieces(self):
        g = make_random_graph(15, 0.4, seed=9)
        result = cut_optimize(g, 3, 0.3)
        total_edges = sum(c.num_edges for c in result.components)
        assert total_edges == g.num_edges - result.edges_removed

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,tau", [(2, 0.3), (3, 0.1), (3, 0.6)])
    def test_lemma5_no_maximal_clique_lost(self, seed, k, tau):
        g = make_random_graph(12, 0.5, seed=seed)
        cliques = brute_force_maximal_cliques(g, k, tau)
        result = cut_optimize(g, k, tau)
        comp_sets = [set(c.nodes()) for c in result.components]
        for clique in cliques:
            assert any(clique <= cs for cs in comp_sets), (
                f"maximal clique {set(clique)} split by cut optimization"
            )

    def test_parameter_validation(self, triangle):
        with pytest.raises(ParameterError):
            cut_optimize(triangle, -1, 0.5)
        with pytest.raises(ParameterError):
            cut_optimize(triangle, 2, 1.5)
