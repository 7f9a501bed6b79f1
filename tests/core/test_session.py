"""Cache semantics of the :class:`PreparedGraph` query session.

Covers the contract the session layer adds on top of the pipeline:
hit/miss/eviction accounting, the LRU bound, invalidation through the
graph version on every mutator, bit-identical cached-vs-cold outputs
(including stats counters), monotone prune seeding, and the
core-maintainer integration.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro import PreparedGraph, UncertainGraph, max_uc_plus
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maintenance import KTauCoreMaintainer
from repro.core.maximum import MaximumSearchStats
from repro.errors import NodeNotFoundError
from tests.conftest import make_random_graph


def enum_payload(source, k, tau, **kwargs):
    """Cliques + counters from either a session or the free function."""
    stats = EnumerationStats()
    if isinstance(source, PreparedGraph):
        cliques = list(source.maximal_cliques(k, tau, stats=stats, **kwargs))
    else:
        cliques = list(maximal_cliques(source, k, tau, stats=stats, **kwargs))
    return cliques, dict(asdict(stats))


def max_payload(source, k, tau, **kwargs):
    stats = MaximumSearchStats()
    if isinstance(source, PreparedGraph):
        best = source.max_uc_plus(k, tau, stats=stats, **kwargs)
    else:
        best = max_uc_plus(source, k, tau, stats=stats, **kwargs)
    return best, dict(asdict(stats))


class TestAccounting:
    def test_cold_then_warm(self):
        g = make_random_graph(16, 0.5, seed=1)
        session = PreparedGraph(g)
        cold = enum_payload(session, 2, 0.2)
        after_cold = session.cache_info()
        # Even a cold query reuses the unified compile artifact: the
        # prune stage stores it, and the search-view derivation reads it
        # back — exactly one hit, everything else a miss.
        assert after_cold["hits"] == 1
        assert after_cold["misses"] > 0

        warm = enum_payload(session, 2, 0.2)
        after_warm = session.cache_info()
        assert warm == cold
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] > 0
        assert session.cache_stats.hit_rate > 0.0

    def test_maximum_shares_cut_artifact_with_enumeration(self):
        g = make_random_graph(16, 0.5, seed=2)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2)
        misses_before = session.cache_stats.misses
        hits_before = session.cache_stats.hits
        max_payload(session, 2, 0.2)
        # The cut artifact is a hit; only the maximum-specific compile
        # artifact misses.
        assert session.cache_stats.hits > hits_before
        assert session.cache_stats.misses == misses_before + 1

    def test_repeated_negative_anchor_is_cached(self, two_groups):
        session = PreparedGraph(two_groups)
        assert not session.containing_clique_exists(["hub"], 3, 0.7)
        hits_before = session.cache_stats.hits
        assert not session.containing_clique_exists(["hub"], 3, 0.7)
        assert session.cache_stats.hits == hits_before + 1

    def test_max_entries_validated(self, triangle):
        with pytest.raises(ValueError):
            PreparedGraph(triangle, max_entries=0)


class TestEviction:
    def test_lru_bound_holds(self):
        g = make_random_graph(14, 0.5, seed=3)
        session = PreparedGraph(g, max_entries=4)
        for k in range(1, 5):
            for tau in (0.1, 0.2, 0.3):
                enum_payload(session, k, tau)
        info = session.cache_info()
        assert info["entries"] <= 4
        assert info["evictions"] > 0

    def test_evicted_entry_recomputes_identically(self):
        g = make_random_graph(14, 0.5, seed=4)
        bounded = PreparedGraph(g, max_entries=2)
        first = enum_payload(bounded, 2, 0.2)
        for k in (1, 3, 4):
            enum_payload(bounded, k, 0.3)  # churns (2, 0.2) out
        assert enum_payload(bounded, 2, 0.2) == first

    def test_purge_stale_drops_old_versions(self):
        g = make_random_graph(12, 0.5, seed=5)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2)
        assert session.purge_stale() == 0
        # A new disconnected edge supersedes the version-scoped entries
        # but leaves the untouched components' entries live.
        session.graph.add_edge("x", "y", 0.9)
        info = session.retention_info()
        assert info["version_stale"] > 0
        assert info["component_live"] > 0
        assert info["component_stale"] == 0
        assert session.purge_stale() == info["version_stale"]
        assert session.cache_info()["entries"] == info["component_live"]
        # Mutating an existing component stales that component's entries.
        u, v, _ = next(iter(session.graph.edges()))
        session.graph.set_probability(u, v, 0.5)
        assert session.purge_stale() > 0


class TestInvalidation:
    """Every mutator bumps the version; the next query never reuses a
    stale artifact, and matches a cold run on the mutated graph."""

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g: g.add_edge(0, 99, 0.9),
            lambda g: g.remove_edge(*next(iter(g.edges()))[:2]),
            lambda g: g.set_probability(*next(iter(g.edges()))[:2], 0.01),
            lambda g: g.add_node("isolated"),
            lambda g: g.remove_node(0),
        ],
        ids=["add_edge", "remove_edge", "set_probability", "add_node",
             "remove_node"],
    )
    def test_mutator_invalidates(self, mutate):
        g = make_random_graph(14, 0.6, seed=6)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2)
        version_before = session.version
        mutate(session.graph)
        assert session.version > version_before
        assert enum_payload(session, 2, 0.2) == enum_payload(
            g.copy(), 2, 0.2
        )

    def test_anchored_queries_track_mutations(self, two_groups):
        session = PreparedGraph(two_groups)
        assert set(session.cliques_containing("a1", 3, 0.7)) == {
            frozenset({"a1", "a2", "a3", "a4"})
        }
        session.graph.remove_node("a4")
        assert list(session.cliques_containing("a1", 3, 0.7)) == []


class TestBitIdentical:
    """The acceptance bar: cached and cold runs agree on cliques, yield
    order, and stats counters, across randomized query sequences with
    interleaved edge updates."""

    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_sequences_with_updates(self, seed):
        rng = random.Random(1000 + seed)
        g = make_random_graph(15, 0.55, seed=seed)
        session = PreparedGraph(g)
        for step in range(12):
            k = rng.randint(1, 4)
            tau = rng.choice((0.1, 0.2, 0.3, 0.5))
            cold_graph = g.copy()
            if rng.random() < 0.5:
                assert enum_payload(session, k, tau) == enum_payload(
                    cold_graph, k, tau
                )
            else:
                assert max_payload(session, k, tau) == max_payload(
                    cold_graph, k, tau
                )
            if rng.random() < 0.4:
                nodes = list(g.nodes())
                u, v = rng.sample(nodes, 2)
                if g.has_edge(u, v):
                    g.remove_edge(u, v)
                else:
                    g.add_edge(u, v, round(rng.uniform(0.2, 1.0), 6))

    @pytest.mark.parametrize("engine", ["pivot", "legacy"])
    def test_engines_share_prune_artifact(self, engine):
        # One prune path, one compile: after a pivot query, a query on
        # either engine finds the compile, prune and cut entries cached —
        # no miss at all, and no second lowering of the graph.
        g = make_random_graph(15, 0.55, seed=42)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2, engine="pivot")
        before = session.cache_info()
        assert before["full_compiles"] == 1
        assert enum_payload(session, 2, 0.2, engine=engine) == enum_payload(
            g.copy(), 2, 0.2, engine=engine
        )
        after = session.cache_info()
        assert after["misses"] == before["misses"]
        assert after["full_compiles"] == 1

    def test_bitset_engine_is_rejected(self):
        session = PreparedGraph(make_random_graph(8, 0.5, seed=1))
        with pytest.raises(ValueError, match="unknown engine"):
            list(session.maximal_cliques(
                2, 0.2, engine="bitset",  # type: ignore[arg-type]
            ))
        with pytest.raises(ValueError, match="unknown engine"):
            session.max_uc_plus(
                2, 0.2, engine="bitset",  # type: ignore[arg-type]
            )

    def test_warm_anchored_query_identical(self, two_groups):
        session = PreparedGraph(two_groups)
        cold = list(session.cliques_containing("a1", 3, 0.7))
        warm = list(session.cliques_containing("a1", 3, 0.7))
        assert warm == cold

    def test_unknown_node_still_raises(self, triangle):
        session = PreparedGraph(triangle)
        with pytest.raises(NodeNotFoundError):
            list(session.cliques_containing("zzz", 1, 0.5))


class TestMonotoneSeeding:
    """A cached easier core seeds the peel for harder parameters without
    changing any result."""

    @pytest.mark.parametrize("pruning", ["topk", "ktau"])
    def test_ascending_grid_matches_cold(self, pruning):
        g = make_random_graph(16, 0.6, seed=7)
        session = PreparedGraph(g)
        for k in (1, 2, 3, 4):
            for tau in (0.1, 0.3, 0.5):
                seeded = enum_payload(session, k, tau, pruning=pruning)
                cold = enum_payload(g.copy(), k, tau, pruning=pruning)
                assert seeded == cold

    def test_ktau_entry_seeds_topk_but_not_vice_versa(self):
        g = make_random_graph(16, 0.6, seed=8)
        session = PreparedGraph(g)
        # Warm a ktau core, then query topk at harder parameters: by
        # Corollary 1 the seed is sound, and results must match cold.
        enum_payload(session, 2, 0.2, pruning="ktau")
        assert enum_payload(session, 3, 0.3, pruning="topk") == enum_payload(
            g.copy(), 3, 0.3, pruning="topk"
        )
        # And topk entries must not corrupt a later ktau query.
        fresh = PreparedGraph(g)
        enum_payload(fresh, 2, 0.2, pruning="topk")
        assert enum_payload(fresh, 3, 0.3, pruning="ktau") == enum_payload(
            g.copy(), 3, 0.3, pruning="ktau"
        )


class TestMaintainerIntegration:
    def test_maintainer_prewarms_prune_cache(self):
        g = make_random_graph(14, 0.6, seed=9)
        session = PreparedGraph(g)
        maintainer = KTauCoreMaintainer(session, k=2, tau=0.3)
        assert maintainer.session is session

        maintainer.add_edge("p", "q", 0.95)
        hits_before = session.cache_stats.hits
        payload = enum_payload(session, 2, 0.3, pruning="ktau")
        # The prune stage found the republished core (at least one hit
        # for the prune key) and the result matches a cold run.
        assert session.cache_stats.hits > hits_before
        assert payload == enum_payload(session.graph.copy(), 2, 0.3,
                                       pruning="ktau")

    def test_maintainer_updates_flow_through_queries(self):
        g = make_random_graph(14, 0.6, seed=10)
        session = PreparedGraph(g)
        maintainer = KTauCoreMaintainer(session, k=2, tau=0.3)
        rng = random.Random(11)
        for _ in range(6):
            nodes = list(session.graph.nodes())
            u, v = rng.sample(nodes, 2)
            if session.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.add_edge(u, v, round(rng.uniform(0.3, 1.0), 6))
            assert enum_payload(session, 2, 0.3, pruning="ktau") == (
                enum_payload(session.graph.copy(), 2, 0.3, pruning="ktau")
            )

    def test_store_core_rejects_unknown_rule(self, triangle):
        session = PreparedGraph(triangle)
        with pytest.raises(ValueError):
            session.store_core("none", 2, 0.5, set())
