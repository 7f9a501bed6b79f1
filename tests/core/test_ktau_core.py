"""Unit tests for DPCore / DPCore+ / tau-core numbers."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    UncertainGraph,
    dp_core,
    dp_core_plus,
    tau_core_numbers,
    tau_degree,
)
from repro.errors import ParameterError
from tests.conftest import make_clique, make_random_graph
from tests.core.oracles import tau_core_numbers_oracle
from tests.core.support import uncertain_graphs


class TestDPCoreBasics:
    def test_k_zero_keeps_all_nodes(self, two_groups):
        assert dp_core(two_groups, 0, 0.5) == set(two_groups.nodes())
        assert dp_core_plus(two_groups, 0, 0.5) == set(two_groups.nodes())

    def test_empty_graph(self):
        assert dp_core(UncertainGraph(), 2, 0.5) == set()
        assert dp_core_plus(UncertainGraph(), 2, 0.5) == set()

    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        dp_core(two_groups, 3, 0.7)
        dp_core_plus(two_groups, 3, 0.7)
        assert two_groups == before

    def test_bad_parameters(self, triangle):
        with pytest.raises(ParameterError):
            dp_core(triangle, -1, 0.5)
        with pytest.raises(ParameterError):
            dp_core_plus(triangle, 1, 0.0)

    def test_strong_clique_survives(self, two_groups):
        core = dp_core_plus(two_groups, 3, 0.7)
        assert {"a1", "a2", "a3", "a4"} <= core
        assert {"b1", "b2", "b3", "b4"} <= core

    def test_weak_hub_peeled(self, two_groups):
        # The hub has 4 edges at p=0.3: Pr(deg >= 3) is far below 0.7.
        core = dp_core_plus(two_groups, 3, 0.7)
        assert "hub" not in core

    def test_high_tau_empties_graph(self, two_groups):
        assert dp_core_plus(two_groups, 3, 1.0) == set()

    def test_certain_clique_survives_tau_one(self):
        g = make_clique(5, 1.0)
        assert dp_core_plus(g, 4, 1.0) == set(g.nodes())
        assert dp_core(g, 4, 1.0) == set(g.nodes())


class TestCoreIsFixpoint:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_member_meets_threshold(self, seed):
        g = make_random_graph(14, 0.5, seed=seed)
        k, tau = 3, 0.3
        core = dp_core_plus(g, k, tau)
        if core:
            sub = g.induced_subgraph(core)
            for u in core:
                assert tau_degree(sub, u, tau) >= k

    @pytest.mark.parametrize("seed", range(6))
    def test_maximality_one_step(self, seed):
        # No single excluded node could join the core: its tau-degree in
        # core + {v} stays below k (necessary condition of maximality).
        g = make_random_graph(12, 0.55, seed=seed)
        k, tau = 3, 0.3
        core = dp_core_plus(g, k, tau)
        for v in set(g.nodes()) - core:
            sub = g.induced_subgraph(core | {v})
            assert tau_degree(sub, v, tau) < k


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("tau", [0.05, 0.3, 0.8])
    def test_dp_core_equals_dp_core_plus(self, seed, tau):
        g = make_random_graph(15, 0.5, seed=seed)
        for k in range(0, 6):
            assert dp_core(g, k, tau) == dp_core_plus(g, k, tau)

    def test_agreement_with_probability_one_edges(self):
        g = UncertainGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(0, 2, 1.0)
        g.add_edge(2, 3, 0.5)
        for k in range(4):
            for tau in (0.2, 0.5, 1.0):
                assert dp_core(g, k, tau) == dp_core_plus(g, k, tau)

    def test_agreement_with_high_probability_edges(self):
        # Stress the near-1 rebuild path of the deletion updates.
        g = make_random_graph(14, 0.6, seed=5, prob_low=0.95, prob_high=1.0)
        for k in range(2, 7):
            assert dp_core(g, k, 0.3) == dp_core_plus(g, k, 0.3)


class TestTauCoreNumbers:
    def test_consistent_with_cores(self):
        g = make_random_graph(12, 0.5, seed=2)
        tau = 0.3
        xi = tau_core_numbers(g, tau)
        for k in range(0, 5):
            assert {u for u, x in xi.items() if x >= k} == dp_core_plus(
                g, k, tau
            )

    def test_bounded_by_deterministic_core(self):
        from repro.deterministic.core_decomposition import core_numbers

        g = make_random_graph(12, 0.5, seed=4)
        xi = tau_core_numbers(g, 0.4)
        cores = core_numbers(g)
        for u in g:
            assert xi[u] <= cores[u]

    def test_isolated_node(self):
        g = UncertainGraph(nodes=[1])
        assert tau_core_numbers(g, 0.5) == {1: 0}

    def test_monotone_in_tau(self):
        # Higher tau can only lower a node's tau-core number.
        g = make_random_graph(12, 0.5, seed=6)
        low = tau_core_numbers(g, 0.1)
        high = tau_core_numbers(g, 0.8)
        for u in g:
            assert high[u] <= low[u]

    @settings(max_examples=40, deadline=None)
    @given(graph=uncertain_graphs(), tau=st.sampled_from((0.05, 0.3, 0.6)))
    def test_equals_the_per_k_oracle(self, graph, tau):
        # One restricted peel per k reproduces the naive (k, tau)-cores.
        assert tau_core_numbers(graph, tau) == tau_core_numbers_oracle(
            graph, tau
        )
