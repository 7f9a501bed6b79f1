"""Cache semantics of the :class:`PreparedGraph` query session.

Covers the contract the session layer adds on top of the pipeline:
hit/miss/eviction accounting, the LRU bound, invalidation through the
graph version on every mutator, bit-identical cached-vs-cold outputs
(including stats counters), prune misses over ascending parameters,
and the core-maintainer integration.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro import PreparedGraph, UncertainGraph, max_uc_plus
from repro.core import enumeration as enumeration_mod
from repro.core import pipeline
from repro.core import session as session_mod
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maintenance import KTauCoreMaintainer
from repro.core.maximum import MaximumSearchStats
from repro.errors import NodeNotFoundError
from tests.conftest import current_lowering, make_random_graph


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


def _stage(key):
    """The stage name of a component-scoped cache key."""
    return key[3]


def _record_lookups(session, monkeypatch):
    """Record ``(key, hit)`` for every cache lookup ``session`` makes."""
    lookups: list[tuple[tuple, bool]] = []
    lookup = session._lookup

    def recording(key):
        value = lookup(key)
        lookups.append((key, value is not session_mod._MISSING))
        return value

    monkeypatch.setattr(session, "_lookup", recording)
    return lookups


class TestAccounting:
    def test_cold_then_warm(self):
        g = make_random_graph(16, 0.5, seed=1)
        session = PreparedGraph(g)
        cold = enum_payload(session, 2, 0.2)
        after_cold = session.cache_info()
        # A cold query resolves the graph's lowering once (a miss: it
        # lowers the graph) and every stage lookup misses: no hit.
        assert after_cold["hits"] == 0
        assert after_cold["misses"] > 0

        warm = enum_payload(session, 2, 0.2)
        after_warm = session.cache_info()
        assert warm == cold
        assert after_warm["misses"] == after_cold["misses"]
        assert after_warm["hits"] > 0
        assert session.cache_stats.hit_rate > 0.0

    @pytest.mark.parametrize("query", ["enum", "max"])
    def test_one_lowering_lookup_per_query(self, monkeypatch, query):
        # The lowering is resolved once per query, views missing or not:
        # every hit or miss beyond the LRU lookups is that one lookup.
        payload = enum_payload if query == "enum" else max_payload
        g = _cliques_with_bridges()
        for session, lowering_hits, lowering_misses in (
            (PreparedGraph(g), 0, 1),  # unlowered: one full lowering
            (PreparedGraph(g), 1, 0),  # fresh session, lowered graph
        ):
            lookups = _record_lookups(session, monkeypatch)
            payload(session, 2, 0.3)
            assert lookups and not any(hit for _, hit in lookups)
            assert session.cache_stats.hits == lowering_hits
            assert session.cache_stats.misses == (
                len(lookups) + lowering_misses
            )
            assert session.cache_stats.full_compiles == lowering_misses
            lookups.clear()
            payload(session, 2, 0.3)  # warm: every lookup hits
            assert lookups and all(hit for _, hit in lookups)
            assert session.cache_stats.hits == (
                lowering_hits + len(lookups) + 1
            )

    def test_maximum_shares_cut_artifact_with_enumeration(self, monkeypatch):
        g = make_random_graph(16, 0.5, seed=2)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2)
        lookups = _record_lookups(session, monkeypatch)
        max_payload(session, 2, 0.2)
        # The prune entries are the enumeration's; the cut is the max
        # query's own (raised to its greedy bound), so only that entry
        # and the search memo miss, once per graph component.
        components = len(pipeline.graph_components(g))
        prune = [hit for key, hit in lookups if _stage(key) == "prune"]
        assert prune and all(prune)
        missed = [_stage(key) for key, hit in lookups if not hit]
        assert sorted(missed) == sorted(["compile_max", "maxcut"] * components)
        lookups.clear()
        max_payload(session, 2, 0.2)
        assert lookups and all(hit for _, hit in lookups)

    def test_enumeration_keeps_one_entry_per_component(self, monkeypatch):
        g = _cliques_with_bridges()
        session = PreparedGraph(g)
        lookups = _record_lookups(session, monkeypatch)
        cold = enum_payload(session, 2, 0.3)
        # The cut entry holds the component's search views: a cold query
        # misses its prune, cut and answers entries once per graph
        # component and looks up nothing else; a repeat hits all three.
        components = len(pipeline.graph_components(g))
        assert components > 1
        answers = sorted(["answers", "cut", "prune"] * components)
        assert sorted(_stage(key) for key, _ in lookups) == answers
        assert not any(hit for _, hit in lookups)
        lookups.clear()
        assert enum_payload(session, 2, 0.3) == cold
        assert sorted(_stage(key) for key, _ in lookups) == answers
        assert all(hit for _, hit in lookups)
        assert cold == enum_payload(PreparedGraph(g.copy()), 2, 0.3)

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
        # A new disconnected edge bumps the version but leaves every
        # cached component live: no session entry is keyed by the
        # version (the lowering lives on the graph, not in the cache).
        session.graph.add_edge("x", "y", 0.9)
        entries = session.cache_info()["entries"]
        assert session.retention_info() == {
            "component_live": entries, "component_stale": 0,
        }
        assert session.purge_stale() == 0
        # Mutating an existing component stales that component's entries.
        u, v, _ = next(iter(session.graph.edges()))
        session.graph.set_probability(u, v, 0.5)
        stale = session.retention_info()["component_stale"]
        assert stale > 0
        assert session.purge_stale() == stale
        assert session.cache_info()["entries"] == entries - stale


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

    def test_repeat_query_shares_prune_artifact(self):
        # One prune path, one compile: a repeat query finds the compile,
        # prune, cut and answers entries cached — no miss at all, and no
        # second lowering of the graph.
        g = make_random_graph(15, 0.55, seed=42)
        session = PreparedGraph(g)
        enum_payload(session, 2, 0.2)
        before = session.cache_info()
        assert before["full_compiles"] == 1
        lowered = current_lowering(g)
        assert enum_payload(session, 2, 0.2) == enum_payload(
            g.copy(), 2, 0.2
        )
        after = session.cache_info()
        assert after["misses"] == before["misses"]
        assert after["full_compiles"] == 1
        assert current_lowering(g) is lowered

    def test_bitset_engine_is_rejected(self):
        # There is one search: an engine= keyword, for any engine name,
        # is no parameter of any query.
        session = PreparedGraph(make_random_graph(8, 0.5, seed=1))
        with pytest.raises(TypeError, match="engine"):
            list(session.maximal_cliques(
                2, 0.2, engine="bitset",  # type: ignore[call-arg]
            ))
        with pytest.raises(TypeError, match="engine"):
            session.max_uc_plus(
                2, 0.2, engine="bitset",  # type: ignore[call-arg]
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


def _cliques_with_bridges() -> UncertainGraph:
    """Three 0.9-probability 5-cliques: the first two joined by a 0.05
    bridge the cut severs, the third a graph component of its own."""
    g = UncertainGraph()
    for base in (0, 10, 20):
        members = range(base, base + 5)
        for u in members:
            for v in members:
                if u < v:
                    g.add_edge(u, v, 0.9)
    g.add_edge(4, 10, 0.05)
    return g


class TestSnapshotsAndRelowering:
    """Search components are label tuples; the subgraphs a search reads
    are snapshots of the version asked at, and cached cut entries stay
    valid through a full re-lower of the compile."""

    @pytest.mark.parametrize("oversized", [False, True])
    def test_mutation_between_yields_keeps_the_asked_version(
        self, monkeypatch, oversized
    ):
        if oversized:
            # Every 5-node piece is above the limit: per-vertex views.
            monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
        expected = list(PreparedGraph(_cliques_with_bridges())
                        .maximal_cliques(2, 0.3))
        assert len(expected) == 3
        g = _cliques_with_bridges()
        cliques = PreparedGraph(g).maximal_cliques(2, 0.3)
        first = next(cliques)
        g.remove_node(22)  # in the last piece, not yet searched
        assert [first, *cliques] == expected

    def test_full_relower_keeps_warm_cut_entries_valid(self, monkeypatch):
        from repro.core import pipeline

        g = _cliques_with_bridges()
        session = PreparedGraph(g)
        list(session.maximal_cliques(2, 0.3))
        session.max_uc_plus(2, 0.3)
        b_key = g.component_key(20)
        # Node removal renumbers every compile id after it: a full
        # re-lower, while component B's epoch is untouched.
        g.remove_node(1)
        assert g.component_key(20) == b_key
        superseded = g._lowering

        cut_calls: list[object] = []
        cut_stage = pipeline.cut_stage

        def counting(*args):
            cut_calls.append(args)
            return cut_stage(*args)

        lookups = _record_lookups(session, monkeypatch)
        monkeypatch.setattr(pipeline, "cut_stage", counting)
        enum = enum_payload(session, 2, 0.3)
        best = max_payload(session, 2, 0.3)
        assert session.cache_stats.full_compiles == 2
        assert current_lowering(g) is not superseded
        # Component A only: its enumeration cut and its max query's cut.
        assert len(cut_calls) == 2
        b_cut = [
            hit for key, hit in lookups
            if key[:4] == ("c", *b_key, "cut")
        ]
        assert b_cut == [True]
        b_maxcut = [
            hit for key, hit in lookups
            if key[:4] == ("c", *b_key, "maxcut")
        ]
        assert b_maxcut == [True]
        assert enum == enum_payload(PreparedGraph(g.copy()), 2, 0.3)
        assert best == max_payload(PreparedGraph(g.copy()), 2, 0.3)


    def test_component_walk_is_shared_per_version(self):
        g = _cliques_with_bridges()
        session = PreparedGraph(g)
        list(session.maximal_cliques(2, 0.3))
        parts = pipeline.graph_components(g)
        session.max_uc_plus(2, 0.3)
        session.store_core("topk", 3, 0.3, frozenset(g.nodes()))
        assert pipeline.graph_components(g) is parts
        g.add_edge(30, 0, 0.9)  # a new node joins component A
        walked = pipeline.graph_components(g)
        assert walked is not parts
        assert walked == pipeline.graph_components(g.copy())


class TestGoldenCounters:
    """The cut's counters and the search's on dblp_like, pinned: one cut
    implementation is left, so these are what tie it to the old one."""

    GOLDEN = {
        (4, 0.05): dict(
            nodes_after_pruning=562, components=3, cuts_found=2,
            cut_edges_removed=62, search_calls=3718, insearch_prunes=9,
            branch_size_prunes=1362, pivot_branches=5077,
            pivot_skipped=11270, cliques=63,
        ),
        (4, 0.2): dict(
            nodes_after_pruning=513, components=34, cuts_found=31,
            cut_edges_removed=710, search_calls=2054, insearch_prunes=0,
            branch_size_prunes=95, pivot_branches=2117,
            pivot_skipped=6741, cliques=124,
        ),
        (8, 0.25): dict(
            nodes_after_pruning=481, components=44, cuts_found=28,
            cut_edges_removed=480, search_calls=2387, insearch_prunes=0,
            branch_size_prunes=147, pivot_branches=2506,
            pivot_skipped=6828, cliques=352,
        ),
    }

    def test_dblp_like_enumeration_counters(self):
        from repro.datasets import load_dataset

        g = load_dataset("dblp_like", scale=1.0)
        for (k, tau), golden in self.GOLDEN.items():
            _, stats = enum_payload(PreparedGraph(g), k, tau)
            assert stats == golden, (k, tau)


class TestMonotoneSeeding:
    """Harder parameters after easier ones in one session: each prune
    miss peels afresh (or bisects the lowering's level index), never
    from a cached easier core, and every result equals a cold run's."""

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
        # A cached ktau core at easier parameters (by Corollary 1 a
        # superset of the topk core) must not change a topk answer.
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

    def test_ascending_tau_builds_the_level_index(self):
        g = make_random_graph(40, 0.3, seed=12)
        k, taus = 2, (0.05, 0.1, 0.2)
        # Lowered up front, so every session over g counts it as a hit.
        pipeline.lowering(g)
        session = PreparedGraph(g)
        payloads, lookups, levels = [], [], []
        for tau in taus:
            before = session.cache_info()
            payloads.append(enum_payload(session, k, tau))
            after = session.cache_info()
            lookups.append([after[f] - before[f] for f in ("hits", "misses")])
            levels.append(current_lowering(g)._topk_levels[k])
        # The first whole-graph peel at k records k, the second builds
        # the index, and the third is a bisect in it.
        assert levels[0] is None
        assert levels[1] is not None
        assert levels[2] is levels[1]
        for tau, payload, counts in zip(taus, payloads, lookups):
            assert payload[0]
            assert payload == enum_payload(PreparedGraph(g.copy()), k, tau)
            # A fresh session over g (sharing its lowering) looks up
            # exactly what the warm query did.
            fresh = PreparedGraph(g)
            enum_payload(fresh, k, tau)
            assert counts == [fresh.cache_info()[f] for f in ("hits", "misses")]


class TestMaintainerIntegration:
    def test_maintainer_update_requeries_only_the_dirty_component(
        self, monkeypatch
    ):
        g = make_random_graph(14, 0.6, seed=9)
        session = PreparedGraph(g)
        maintainer = KTauCoreMaintainer(session, k=2, tau=0.3)
        assert maintainer.session is session
        enum_payload(session, 2, 0.3, pruning="ktau")
        clean = g.component_keys()
        lookups = _record_lookups(session, monkeypatch)

        maintainer.add_edge("p", "q", 0.95)
        cid, epoch = g.component_key("p")
        payload = enum_payload(session, 2, 0.3, pruning="ktau")
        # The maintainer stored nothing: the new component misses its
        # prune, cut and answers keys, and every other component hits
        # all three.
        limit = enumeration_mod.KERNEL_COMPONENT_LIMIT
        gate = enumeration_mod._INSEARCH_MIN_CANDIDATES
        assert [key for key, hit in lookups if not hit] == [
            ("c", cid, epoch, "prune", "ktau", 2, 0.3),
            ("c", cid, epoch, "cut", "ktau", True, 2, 0.3, limit),
            ("c", cid, epoch, "answers", "ktau", True, 2, 0.3, True, gate,
             limit),
        ]
        assert [key[1:3] for key, hit in lookups if hit] == [
            *clean, *clean, *clean
        ]
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
