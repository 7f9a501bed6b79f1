"""Regression tests for bugs found and fixed during development.

Each test reconstructs the minimal scenario of a real defect so the fix
cannot silently regress.  The headline one is the knife-edge numerical
divergence between DPCore and DPCore+ (see the ktau_core module
docstring).
"""

import math

import pytest

from repro import (
    UncertainGraph,
    cut_optimize,
    dp_core,
    dp_core_plus,
    muce_plus_plus,
    tau_degree,
    topk_core,
)
from tests.conftest import make_clique


class TestKnifeEdgeCoreAgreement:
    """DPCore and DPCore+ once disagreed on one node of a large graph:
    chained Eq. (4)/(6) updates with p ~ 0.98 amplified rounding error
    until a borderline peel decision flipped.  Fixed by verify-on-peel
    plus a final fresh sweep."""

    def _chain_graph(self):
        # A node with many ~0.98 edges whose tau-degree sits exactly at
        # the peel boundary while its neighbors get peeled one by one.
        g = UncertainGraph()
        p = 1.0 - math.exp(-4.0)  # ~0.9817, the dblp-style hot weight
        hub_neighbors = list(range(1, 30))
        for v in hub_neighbors:
            g.add_edge(0, v, p)
        # Sparse support so the neighbors peel in a long cascade.
        for v in hub_neighbors[:-1]:
            g.add_edge(v, v + 1, 0.39)
        return g

    @pytest.mark.parametrize("k", [3, 5, 8, 12])
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.5])
    def test_cores_agree_on_high_probability_chains(self, k, tau):
        g = self._chain_graph()
        assert dp_core(g, k, tau) == dp_core_plus(g, k, tau)


class TestProbabilityOneEdges:
    """Eq. (4)/(6) divide by (1 - p): p = 1.0 must route through the
    rebuild fallback instead of dividing by zero."""

    def test_peeling_with_certain_edges(self):
        g = make_clique(5, 1.0)
        g.add_edge(0, 99, 1.0)
        for k in range(1, 5):
            assert dp_core(g, k, 1.0) == dp_core_plus(g, k, 1.0)

    def test_tau_degree_with_certain_edges(self):
        g = UncertainGraph(edges=[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 0.5)])
        assert tau_degree(g, 0, 1.0) == 2
        assert tau_degree(g, 0, 0.5) == 3


class TestHubFringeCut:
    """cut_optimize once needed one full sweep per weakly-attached node
    on hub graphs (O(V) sweeps); the TopKCore fringe peel fixed it and
    must keep handling this shape."""

    def test_star_with_core(self):
        g = make_clique(6, 0.95)
        # 40 weak satellites on one hub node.
        for i in range(100, 140):
            g.add_edge(0, i, 0.3)
        result = cut_optimize(g, 3, 0.5)
        # All satellites are peeled as single-node cuts.
        assert result.fringe_nodes_peeled >= 40
        biggest = max(result.components, key=lambda c: c.num_nodes)
        assert set(biggest.nodes()) == set(range(6))

    def test_cliques_survive_fringe_peel(self):
        # CPr of the 6-clique is 0.95^15 = 0.463: pick tau below it so
        # the full team is the unique answer despite 20 satellites.
        g = make_clique(6, 0.95)
        for i in range(100, 120):
            g.add_edge(i % 6, i, 0.3)
        cliques = set(muce_plus_plus(g, 3, 0.4))
        assert cliques == {frozenset(range(6))}


class TestBoundaryExplosionShape:
    """A near-tau team must fragment into predictable maximal cliques,
    not be silently lost (dataset-calibration regression)."""

    def test_team_just_below_tau_yields_drop_one_cliques(self):
        size = 6
        # Choose p so the full team misses tau but drop-one teams pass:
        # p^15 = 0.035 < tau = 0.05 <= p^10 = 0.107.
        p = 0.8
        tau = 0.05
        g = make_clique(size, p)
        cliques = set(muce_plus_plus(g, 3, tau))
        # All 5-subsets are maximal (each has CPr p^10 >= tau, and the
        # full 6-team fails).
        assert all(len(c) == 5 for c in cliques)
        assert len(cliques) == 6

    def test_team_above_tau_is_single_clique(self):
        g = make_clique(6, 0.95)
        cliques = set(muce_plus_plus(g, 3, 0.4))
        assert cliques == {frozenset(range(6))}


class TestTopKCoreDuplicateProbabilities:
    """The peeling removes probabilities from sorted lists by value;
    duplicate values must remove exactly one entry."""

    def test_many_equal_probabilities(self):
        g = make_clique(5, 0.7)
        for i in range(100, 104):
            g.add_edge(0, i, 0.7)  # duplicates of the clique value
        result = topk_core(g, 3, 0.3)
        assert set(result.nodes) == set(range(5))

    def test_cascading_duplicates(self):
        g = UncertainGraph()
        # A path of identical probabilities: everything peels at k=2.
        for i in range(6):
            g.add_edge(i, i + 1, 0.9)
        result = topk_core(g, 2, 0.5)
        assert result.nodes == frozenset()


class TestIsolatedNodeRoundTrip:
    """Isolated nodes were once serialised as comments and silently
    dropped on re-read."""

    def test_round_trip(self):
        from repro.uncertain.io import dumps_edge_list, loads_edge_list

        g = UncertainGraph(nodes=["lonely"])
        assert loads_edge_list(dumps_edge_list(g)) == g
