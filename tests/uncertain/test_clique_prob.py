"""Unit tests for clique probability and the (k, tau)-clique predicates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    PreparedGraph,
    UncertainGraph,
    clique_probability,
    is_clique,
    is_k_tau_clique,
    is_maximal_k_tau_clique,
    is_tau_clique,
)
from repro.errors import ParameterError
from tests.core.support import uncertain_graphs


class TestIsClique:
    def test_triangle_is_clique(self, triangle):
        assert is_clique(triangle, ["a", "b", "c"])

    def test_missing_edge(self, path_graph):
        assert not is_clique(path_graph, [0, 1, 2])

    def test_edge_is_clique(self, path_graph):
        assert is_clique(path_graph, [0, 1])

    def test_singleton_and_empty(self, triangle):
        assert is_clique(triangle, ["a"])
        assert is_clique(triangle, [])

    def test_duplicates_ignored(self, triangle):
        assert is_clique(triangle, ["a", "b", "a"])


class TestCliqueProbability:
    def test_triangle_product(self, triangle):
        expected = 0.9 * 0.8 * 0.5
        assert clique_probability(triangle, ["a", "b", "c"]) == pytest.approx(
            expected
        )

    def test_pair(self, triangle):
        assert clique_probability(triangle, ["a", "b"]) == pytest.approx(0.9)

    def test_empty_set_is_one(self, triangle):
        assert clique_probability(triangle, []) == 1.0

    def test_singleton_is_one(self, triangle):
        assert clique_probability(triangle, ["a"]) == 1.0

    def test_non_adjacent_pairs_skipped(self, path_graph):
        # Eq. (2) multiplies only edges that exist.
        assert clique_probability(path_graph, [0, 1, 2]) == pytest.approx(
            0.9 * 0.9
        )

    def test_monotone_under_addition(self, two_groups):
        base = clique_probability(two_groups, ["a1", "a2"])
        bigger = clique_probability(two_groups, ["a1", "a2", "a3"])
        assert bigger <= base

    def test_larger_clique(self):
        g = UncertainGraph()
        members = list(range(6))
        import itertools

        for u, v in itertools.combinations(members, 2):
            g.add_edge(u, v, 0.9)
        assert clique_probability(g, members) == pytest.approx(0.9 ** 15)


class TestIsTauClique:
    def test_threshold_met(self, triangle):
        assert is_tau_clique(triangle, ["a", "b", "c"], 0.36)

    def test_threshold_not_met(self, triangle):
        assert not is_tau_clique(triangle, ["a", "b", "c"], 0.37)

    def test_non_clique_fails(self, path_graph):
        assert not is_tau_clique(path_graph, [0, 1, 2], 0.01)

    def test_bad_tau(self, triangle):
        with pytest.raises(ParameterError):
            is_tau_clique(triangle, ["a", "b"], 0.0)

    def test_knife_edge_tolerance(self, triangle):
        # Exactly at the product: tolerance must make it pass.
        prob = 0.9 * 0.8 * 0.5
        assert is_tau_clique(triangle, ["a", "b", "c"], prob)


class TestIsKTauClique:
    def test_size_must_exceed_k(self, triangle):
        assert is_k_tau_clique(triangle, ["a", "b", "c"], 2, 0.3)
        assert not is_k_tau_clique(triangle, ["a", "b", "c"], 3, 0.3)

    def test_probability_still_required(self, triangle):
        assert not is_k_tau_clique(triangle, ["a", "b", "c"], 2, 0.99)

    def test_k_zero(self, triangle):
        assert is_k_tau_clique(triangle, ["a"], 0, 0.5)

    def test_bad_k(self, triangle):
        with pytest.raises(ParameterError):
            is_k_tau_clique(triangle, ["a", "b"], -1, 0.5)


class TestIsMaximal:
    def test_group_is_maximal(self, two_groups):
        assert is_maximal_k_tau_clique(
            two_groups, ["a1", "a2", "a3", "a4"], 3, 0.7
        )

    def test_subset_is_not_maximal(self, two_groups):
        assert not is_maximal_k_tau_clique(
            two_groups, ["a1", "a2", "a3"], 2, 0.7
        )

    def test_non_clique_is_not_maximal(self, path_graph):
        assert not is_maximal_k_tau_clique(path_graph, [0, 1, 2], 1, 0.1)

    def test_empty_set_is_not_maximal(self, triangle):
        assert not is_maximal_k_tau_clique(triangle, [], 0, 0.5)

    def test_tau_constrained_maximality(self):
        # A 3-clique whose extension to the 4th node fails only on tau.
        g = UncertainGraph()
        import itertools

        for u, v in itertools.combinations(range(3), 2):
            g.add_edge(u, v, 0.9)
        for u in range(3):
            g.add_edge(u, 3, 0.4)
        # CPr(0,1,2) = 0.729; adding 3 multiplies by 0.4^3 = 0.064.
        assert is_maximal_k_tau_clique(g, [0, 1, 2], 2, 0.5)
        # With a permissive tau the same set is extendable, so the
        # maximal clique is all four nodes.
        assert not is_maximal_k_tau_clique(g, [0, 1, 2], 2, 0.04)
        assert is_maximal_k_tau_clique(g, [0, 1, 2, 3], 2, 0.04)


#: A triangle whose probability lies at tau's floor: multiplied in
#: another member order, ``{4, 5, 8}``'s product falls on the other side.
KNIFE_EDGE = (
    [(4, 5, 0.9), (4, 8, 0.4), (5, 8, 0.9999999)],
    0.35999996436000004,
)


def _predicates(graph, members, k, tau):
    session = PreparedGraph(graph)
    return (
        clique_probability(graph, members),
        is_tau_clique(graph, members, tau),
        is_k_tau_clique(graph, members, k, tau),
        is_maximal_k_tau_clique(graph, members, k, tau),
        session.is_extendable(members, tau),
        session.containing_clique_exists(members, k, tau),
    )


class TestCanonicalProduct:
    def test_knife_edge_triangle(self):
        edges, tau = KNIFE_EDGE
        g = UncertainGraph(edges)
        session = PreparedGraph(g)
        assert is_tau_clique(g, [8, 5, 4], tau)
        for pair in ([5, 8], [8, 5]):
            assert not is_maximal_k_tau_clique(g, pair, 0, tau)
            assert session.is_extendable(pair, tau)
        assert is_maximal_k_tau_clique(g, [5, 4, 8], 0, tau)
        assert _predicates(g, [8, 4, 5], 0, tau) == _predicates(
            g, [4, 5, 8], 0, tau
        )

    @settings(max_examples=60, deadline=None)
    @given(graph=uncertain_graphs(), data=st.data())
    def test_every_predicate_ignores_member_order(self, graph, data):
        nodes = list(graph)
        members = data.draw(
            st.lists(st.sampled_from(nodes), unique=True, max_size=5),
            label="members",
        )
        # A tau at the members' own product (or at an extension's, one
        # node more) puts the floor where orders disagree.
        extra = data.draw(st.sampled_from(nodes), label="extra")
        tau = clique_probability(
            graph, members + data.draw(st.sampled_from([[], [extra]]))
        )
        k = data.draw(st.integers(0, 3), label="k")
        shuffled = data.draw(st.permutations(members), label="order")
        assert _predicates(graph, shuffled, k, tau) == _predicates(
            graph, members, k, tau
        )
