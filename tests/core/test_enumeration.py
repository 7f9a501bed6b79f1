"""Unit and integration tests for MUCE / MUCE+ / MUCE++ (Algorithm 4)."""

import pytest

from repro import (
    EnumerationStats,
    UncertainGraph,
    clique_probability,
    is_maximal_k_tau_clique,
    maximal_cliques,
    muce,
    muce_plus,
    muce_plus_plus,
)
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.deterministic.cliques import bron_kerbosch
from repro.errors import ParameterError
from repro.utils.validation import prob_at_least
from tests.conftest import make_clique, make_random_graph

ALGORITHMS = [muce, muce_plus, muce_plus_plus]


class TestSmallGraphs:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_groups(self, two_groups, algorithm):
        cliques = set(algorithm(two_groups, 3, 0.7))
        assert cliques == {
            frozenset({"a1", "a2", "a3", "a4"}),
            frozenset({"b1", "b2", "b3", "b4"}),
        }

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_graph(self, algorithm):
        assert list(algorithm(UncertainGraph(), 2, 0.5)) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_cliques_above_threshold(self, path_graph, algorithm):
        assert list(algorithm(path_graph, 2, 0.5)) == []

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_single_edge_graph(self, algorithm):
        g = UncertainGraph(edges=[(1, 2, 0.9)])
        assert set(algorithm(g, 1, 0.5)) == {frozenset({1, 2})}

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_k_filters_small_cliques(self, algorithm):
        g = make_clique(3, 0.99)
        assert set(algorithm(g, 2, 0.5)) == {frozenset({0, 1, 2})}
        assert list(algorithm(g, 3, 0.5)) == []

    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        list(muce_plus_plus(two_groups, 3, 0.7))
        assert two_groups == before


class TestOutputProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_every_output_is_maximal(self, seed):
        g = make_random_graph(14, 0.5, seed=seed)
        k, tau = 2, 0.2
        for clique in muce_plus_plus(g, k, tau):
            assert is_maximal_k_tau_clique(g, clique, k, tau)

    @pytest.mark.parametrize("seed", range(6))
    def test_no_duplicates(self, seed):
        g = make_random_graph(14, 0.55, seed=seed)
        cliques = list(muce_plus_plus(g, 2, 0.1))
        assert len(cliques) == len(set(cliques))

    def test_sizes_exceed_k(self):
        g = make_random_graph(14, 0.6, seed=3)
        for clique in muce_plus_plus(g, 3, 0.05):
            assert len(clique) > 3

    def test_probabilities_meet_tau(self):
        g = make_random_graph(14, 0.6, seed=4)
        tau = 0.2
        for clique in muce_plus_plus(g, 2, tau):
            assert prob_at_least(clique_probability(g, clique), tau)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_random_graphs(self, seed, algorithm):
        g = make_random_graph(11, 0.5, seed=seed)
        k, tau = 2, 0.25
        assert set(algorithm(g, k, tau)) == brute_force_maximal_cliques(
            g, k, tau
        )

    @pytest.mark.parametrize("tau", [0.01, 0.2, 0.6, 0.95])
    def test_tau_sweep(self, tau):
        g = make_random_graph(11, 0.6, seed=42)
        for algorithm in ALGORITHMS:
            assert set(algorithm(g, 2, tau)) == brute_force_maximal_cliques(
                g, 2, tau
            )

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
    def test_k_sweep(self, k):
        g = make_random_graph(11, 0.6, seed=43)
        for algorithm in ALGORITHMS:
            assert set(algorithm(g, k, 0.3)) == brute_force_maximal_cliques(
                g, k, 0.3
            )

    def test_high_probability_graph(self):
        # Near-certain edges: reduces to deterministic maximal cliques.
        g = make_random_graph(12, 0.5, seed=7, prob_low=0.999)
        expected = {
            c for c in bron_kerbosch(g) if len(c) >= 3
        }
        got = set(muce_plus_plus(g, 2, 0.05))
        assert got == expected


class TestDeterministicReduction:
    @pytest.mark.parametrize("seed", range(4))
    def test_tiny_tau_equals_bron_kerbosch(self, seed):
        # With tau below any clique product, the probability constraint
        # never bites and MUCE must reduce to Bron-Kerbosch (filtered to
        # size > k).
        g = make_random_graph(10, 0.5, seed=seed, prob_low=0.9)
        k = 1
        expected = {c for c in bron_kerbosch(g) if len(c) > k}
        assert set(muce(g, k, 1e-9)) == expected


class TestConfigurations:
    def test_unknown_pruning_rule(self, triangle):
        with pytest.raises(ValueError):
            list(maximal_cliques(triangle, 1, 0.5, pruning="bogus"))

    def test_parameter_validation(self, triangle):
        with pytest.raises(ParameterError):
            list(maximal_cliques(triangle, -1, 0.5))
        with pytest.raises(ParameterError):
            list(maximal_cliques(triangle, 1, 2.0))

    @pytest.mark.parametrize("pruning", ["topk", "ktau", "none"])
    @pytest.mark.parametrize("cut", [True, False])
    @pytest.mark.parametrize("insearch", [True, False])
    def test_all_switch_combinations_agree(self, pruning, cut, insearch):
        g = make_random_graph(12, 0.55, seed=77)
        k, tau = 2, 0.2
        expected = brute_force_maximal_cliques(g, k, tau)
        got = set(
            maximal_cliques(
                g, k, tau, pruning=pruning, cut=cut, insearch=insearch
            )
        )
        assert got == expected

    def test_stats_populated(self, two_groups):
        stats = EnumerationStats()
        cliques = list(muce_plus_plus(two_groups, 3, 0.7, stats=stats))
        assert stats.cliques == len(cliques) == 2
        assert stats.search_calls > 0
        assert stats.nodes_after_pruning == 8  # hub pruned by TopKCore
        assert stats.components >= 2  # bridge cut severs the groups

    def test_generator_is_lazy(self):
        g = make_random_graph(12, 0.6, seed=5)
        gen = muce_plus_plus(g, 1, 0.05)
        first = next(gen)
        assert isinstance(first, frozenset)
        gen.close()

    def test_nothing_runs_before_first_next(self, monkeypatch):
        # Full laziness regression: neither validation nor the pruning
        # pipeline may execute at call time.  Invalid arguments must not
        # raise until the generator is started, and the pre-search core
        # computation must not be reached at all before then.
        import repro.core.pipeline as pipeline

        g = make_random_graph(8, 0.5, seed=3)
        gen = maximal_cliques(g, -1, 0.5)  # invalid k: no raise yet
        with pytest.raises(ValueError):
            next(gen)

        def boom(*args, **kwargs):
            raise AssertionError("pruning ran before first next()")

        monkeypatch.setattr(pipeline, "prune_stage", boom)
        gen = maximal_cliques(g, 2, 0.3)  # pruning not triggered here
        with pytest.raises(AssertionError, match="pruning ran"):
            next(gen)  # ... only here


class TestInSearchPeel:
    def test_forced_peel_agrees(self, monkeypatch):
        import repro.core.enumeration as enumeration

        monkeypatch.setattr(enumeration, "_INSEARCH_MIN_CANDIDATES", 1)
        g = make_random_graph(12, 0.6, seed=91)
        k, tau = 2, 0.2
        assert set(muce_plus_plus(g, k, tau)) == brute_force_maximal_cliques(
            g, k, tau
        )

    def test_peel_prunes_branches(self, monkeypatch):
        import repro.core.enumeration as enumeration

        monkeypatch.setattr(enumeration, "_INSEARCH_MIN_CANDIDATES", 1)
        g = make_random_graph(14, 0.5, seed=13)
        stats = EnumerationStats()
        list(maximal_cliques(g, 3, 0.3, stats=stats))
        without = EnumerationStats()
        list(maximal_cliques(g, 3, 0.3, insearch=False, stats=without))
        assert stats.search_calls <= without.search_calls
