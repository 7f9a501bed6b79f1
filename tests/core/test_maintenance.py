"""Unit tests for incremental (k, tau)-core maintenance."""

import random

import pytest

from repro import KTauCoreMaintainer, dp_core_plus
from tests.conftest import make_random_graph


class TestBasics:
    def test_initial_core_matches_batch(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        assert maintainer.core == frozenset(
            dp_core_plus(two_groups, 3, 0.7)
        )

    def test_owns_a_copy(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        two_groups.remove_edge("a1", "a2")
        # The maintainer's graph is unaffected by outside mutation.
        assert maintainer.graph.has_edge("a1", "a2")

    def test_graph_property_returns_copy(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        view = maintainer.graph
        view.remove_edge("a1", "a2")
        assert maintainer.graph.has_edge("a1", "a2")

    def test_add_isolated_node(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        maintainer.add_node("new")
        assert "new" not in maintainer.core


class TestDeletion:
    def test_deleting_group_edge_breaks_group(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        core = maintainer.remove_edge("a1", "a2")
        expected = dp_core_plus(maintainer.graph, 3, 0.7)
        assert core == frozenset(expected)
        assert "a1" not in core  # the 4-clique can no longer support k=3

    def test_unrelated_deletion_keeps_core(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        before = maintainer.core
        core = maintainer.remove_edge("hub", "a1")
        assert core == before

    def test_cascading_deletion(self):
        # A 5-clique at p=0.9; deleting one edge drops two nodes below
        # k and the remaining triangle below k too.
        from tests.conftest import make_clique

        g = make_clique(5, 0.9)
        maintainer = KTauCoreMaintainer(g, 3, 0.5)
        assert len(maintainer.core) == 5
        core = maintainer.remove_edge(0, 1)
        assert core == frozenset(dp_core_plus(maintainer.graph, 3, 0.5))


class TestInsertion:
    def test_insertion_grows_core(self):
        from tests.conftest import make_clique

        # A 4-clique plus a pendant that becomes a full member.
        g = make_clique(4, 0.95)
        g.add_node(99)
        maintainer = KTauCoreMaintainer(g, 3, 0.5)
        assert 99 not in maintainer.core
        for v in range(4):
            maintainer.add_edge(99, v, 0.95)
        assert 99 in maintainer.core
        assert maintainer.core == frozenset(
            dp_core_plus(maintainer.graph, 3, 0.5)
        )

    def test_probability_increase(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.9)
        # At tau 0.9 the 0.95-cliques fail (0.95^3 = 0.857): empty core.
        assert maintainer.core == frozenset()
        for u in ("a1", "a2", "a3", "a4"):
            for v in ("a1", "a2", "a3", "a4"):
                if str(u) < str(v):
                    maintainer.set_probability(u, v, 0.99)
        assert maintainer.core == frozenset(
            dp_core_plus(maintainer.graph, 3, 0.9)
        )
        assert "a1" in maintainer.core

    def test_probability_decrease(self, two_groups):
        maintainer = KTauCoreMaintainer(two_groups, 3, 0.7)
        maintainer.set_probability("a1", "a2", 0.1)
        assert maintainer.core == frozenset(
            dp_core_plus(maintainer.graph, 3, 0.7)
        )


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_batch_after_every_update(self, seed):
        rng = random.Random(seed)
        g = make_random_graph(12, 0.45, seed=seed)
        k, tau = 2, 0.3
        maintainer = KTauCoreMaintainer(g, k, tau)
        nodes = g.nodes()
        for step in range(25):
            u, v = rng.sample(nodes, 2)
            work = maintainer.graph
            if work.has_edge(u, v):
                action = rng.choice(["remove", "reweight"])
                if action == "remove":
                    maintainer.remove_edge(u, v)
                else:
                    maintainer.set_probability(
                        u, v, round(rng.uniform(0.05, 1.0), 3)
                    )
            else:
                maintainer.add_edge(u, v, round(rng.uniform(0.05, 1.0), 3))
            expected = dp_core_plus(maintainer.graph, k, tau)
            assert maintainer.core == frozenset(expected), f"step {step}"


# ----------------------------------------------------------------------
# set_probability monotone fast paths (raise-only grows, lower-only
# shrinks) vs a full recompute, on hypothesis update streams — including
# session mode, where the maintainer stores nothing in the session.
# ----------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import PreparedGraph, UncertainGraph  # noqa: E402
from repro.core import enumeration as enumeration_mod  # noqa: E402
from tests.core.test_session import (  # noqa: E402
    _record_lookups,
    enum_payload,
)

_relaxed = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def _graph_and_reweights(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    g = UncertainGraph(nodes=range(n))
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                g.add_edge(u, v, draw(st.floats(min_value=0.1, max_value=0.9)))
                edges.append((u, v))
    if not edges:
        g.add_edge(0, 1, 0.5)
        edges.append((0, 1))
    picks = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=len(edges) - 1),
                st.floats(min_value=0.05, max_value=0.95),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return g, edges, picks


class TestSetProbabilityMonotoneFastPaths:
    @_relaxed
    @given(_graph_and_reweights())
    def test_raise_only_streams_grow_monotonically(self, case):
        g, edges, picks = case
        k, tau = 2, 0.3
        maintainer = KTauCoreMaintainer(g, k, tau)
        for idx, _ in picks:
            u, v = edges[idx]
            work = maintainer.graph
            p = work.probability(u, v)
            raised = min(1.0, p + (1.0 - p) * 0.5)
            previous = maintainer.core
            core = maintainer.set_probability(u, v, raised)
            # The grow fast path can only admit members, never evict.
            assert core >= previous
            assert core == frozenset(dp_core_plus(maintainer.graph, k, tau))

    @_relaxed
    @given(_graph_and_reweights())
    def test_lower_only_streams_shrink_monotonically(self, case):
        g, edges, picks = case
        k, tau = 2, 0.3
        maintainer = KTauCoreMaintainer(g, k, tau)
        for idx, _ in picks:
            u, v = edges[idx]
            p = maintainer.graph.probability(u, v)
            previous = maintainer.core
            core = maintainer.set_probability(u, v, p * 0.5)
            # The shrink fast path can only evict members, never admit.
            assert core <= previous
            assert core == frozenset(dp_core_plus(maintainer.graph, k, tau))

    @_relaxed
    @given(_graph_and_reweights())
    def test_mixed_streams_match_full_recompute(self, case):
        g, edges, picks = case
        k, tau = 2, 0.3
        maintainer = KTauCoreMaintainer(g, k, tau)
        for idx, p in picks:
            u, v = edges[idx]
            core = maintainer.set_probability(u, v, p)
            assert core == frozenset(dp_core_plus(maintainer.graph, k, tau))

    @_relaxed
    @given(_graph_and_reweights())
    def test_session_mode_stores_nothing_and_requeries_the_dirty_component(
        self, case
    ):
        g, edges, picks = case
        k, tau = 2, 0.3
        limit = enumeration_mod.KERNEL_COMPONENT_LIMIT
        gate = enumeration_mod._INSEARCH_MIN_CANDIDATES
        session = PreparedGraph(g)
        maintainer = KTauCoreMaintainer(session, k, tau)
        # A stream with no query leaves the session's cache empty.
        for idx, p in picks:
            maintainer.set_probability(*edges[idx], p)
        info = session.cache_info()
        assert (info["entries"], info["evictions"]) == (0, 0)
        enum_payload(session, k, tau, pruning="ktau")
        with pytest.MonkeyPatch.context() as patch:
            lookups = _record_lookups(session, patch)
            for idx, p in picks:
                u, v = edges[idx]
                core = maintainer.set_probability(u, v, p)
                assert core == frozenset(dp_core_plus(g.copy(), k, tau))
                cid, epoch = g.component_key(u)
                behind = g._lowering.version != g.version
                misses = session.cache_stats.misses
                lookups.clear()
                payload = enum_payload(session, k, tau, pruning="ktau")
                # Only the reweighted component re-peels, re-cuts and
                # re-searches; the lowering misses only when the
                # maintainer left it behind.
                missed = [key for key, hit in lookups if not hit]
                assert missed == [
                    ("c", cid, epoch, "prune", "ktau", k, tau),
                    ("c", cid, epoch, "cut", "ktau", True, k, tau, limit),
                    ("c", cid, epoch, "answers", "ktau", True, k, tau, True,
                     gate, limit),
                ]
                assert session.cache_stats.misses - misses == 3 + behind
                assert payload == enum_payload(
                    PreparedGraph(g.copy()), k, tau, pruning="ktau"
                )


# ----------------------------------------------------------------------
# Session mode: the caller mutates the shared graph behind the
# maintainer's back.  The next update sees the version gap and re-peels
# the whole graph before applying itself.
# ----------------------------------------------------------------------


def enum_cliques(session, k, tau):
    return list(session.maximal_cliques(k, tau, pruning="ktau"))


class TestUnseenMutations:
    def test_remove_node_then_maintainer_update(self):
        g = UncertainGraph()
        for u, v in (("a", "b"), ("a", "c"), ("a", "d"),
                     ("b", "c"), ("b", "d"), ("c", "d"), ("d", "x")):
            g.add_edge(u, v, 0.9)
        session = PreparedGraph(g)
        maintainer = KTauCoreMaintainer(session, 2, 0.3)
        assert "a" in maintainer.core
        g.remove_node("a")
        core = maintainer.add_edge("x", "b", 0.9)
        assert core == frozenset(dp_core_plus(g, 2, 0.3))
        assert enum_cliques(session, 2, 0.3) == enum_cliques(
            PreparedGraph(g.copy()), 2, 0.3
        )

    def test_direct_remove_edge_then_maintainer_update(self, two_groups):
        session = PreparedGraph(two_groups)
        maintainer = KTauCoreMaintainer(session, 3, 0.7)
        assert "a1" in maintainer.core
        # The a-clique loses an edge and with it every member, but the
        # maintainer never sees the update.
        two_groups.remove_edge("a1", "a2")
        core = maintainer.add_edge("b1", "z", 0.5)
        assert "a1" not in core
        assert core == frozenset(dp_core_plus(two_groups, 3, 0.7))
        assert enum_cliques(session, 3, 0.7) == enum_cliques(
            PreparedGraph(two_groups.copy()), 3, 0.7
        )
