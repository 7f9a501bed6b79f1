"""The graph owns its lowering: one compile per graph version, shared.

The whole-graph :class:`~repro.core.prune_kernel.CompiledGraph` lives on
the :class:`~repro.uncertain.graph.UncertainGraph` it lowers
(:func:`repro.core.pipeline.lowering`), not in a session's cache.  Every
session, every free function and the core maintainer over one graph
therefore read one lowering per version, patched forward in place after
a mutation.  This suite pins that sharing contract:

* a second session over a lowered graph compiles nothing and answers
  exactly like the first, counters included;
* a mutation through any one of them costs exactly one delta patch in
  total, and every reader then answers like a fresh session on a copy;
* a patch in place never reaches a reader that holds derived state —
  a ``maximal_cliques`` generator paused between yields, or another
  session's cached views;
* derived graphs, pickles and ``copy`` / ``deepcopy`` start without a
  lowering, so no two graphs ever share one.
"""

from __future__ import annotations

import copy
import pickle
import sys
from dataclasses import asdict
from typing import Any, Callable

import pytest

from repro import (
    KTauCoreMaintainer,
    PreparedGraph,
    UncertainGraph,
    dp_core_plus,
    max_uc_plus,
    maximal_cliques,
)
from repro.core import pipeline, prune_kernel
from repro.core.enumeration import EnumerationStats
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph, compile_graph
from tests.conftest import current_lowering, make_random_graph
from tests.core.support import assert_bit_identical
from tests.core.test_session import _cliques_with_bridges


def _enum(
    session: PreparedGraph, k: int = 2, tau: float = 0.3, **kwargs: Any
) -> Any:
    stats = EnumerationStats()
    cliques = list(session.maximal_cliques(k, tau, stats=stats, **kwargs))
    return cliques, asdict(stats)


def _max(session: PreparedGraph, k: int = 2, tau: float = 0.3) -> Any:
    stats = MaximumSearchStats()
    return session.max_uc_plus(k, tau, stats=stats), asdict(stats)


def _count_full_lowerings(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Record the version of every full lowering from here on."""
    calls: list[int] = []
    compile_stage = pipeline.compile_stage

    def counting(graph: UncertainGraph) -> CompiledGraph:
        calls.append(graph.version)
        return compile_stage(graph)

    monkeypatch.setattr(pipeline, "compile_stage", counting)
    return calls


def _count_compile_graph(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Record the version of every ``compile_graph`` call from here on,
    in every loaded module that binds the name."""
    calls: list[int] = []
    original = prune_kernel.compile_graph

    def counting(graph: UncertainGraph) -> CompiledGraph:
        calls.append(graph.version)
        return original(graph)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(
            module, "compile_graph", None
        ) is original:
            monkeypatch.setattr(module, "compile_graph", counting)
    return calls


# ----------------------------------------------------------------------
# Sharing
# ----------------------------------------------------------------------


def test_two_sessions_share_one_lowering() -> None:
    graph = make_random_graph(16, 0.5, seed=3)
    first, second = PreparedGraph(graph), PreparedGraph(graph)
    cold_enum, cold_max = _enum(first), _max(first)
    lowered = current_lowering(graph)
    assert first.cache_stats.full_compiles == 1

    assert _enum(second) == cold_enum
    assert _max(second) == cold_max
    assert second.cache_stats.full_compiles == 0
    assert second.cache_stats.delta_patches == 0
    assert current_lowering(graph) is lowered


def test_free_functions_and_sessions_lower_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    graph = make_random_graph(16, 0.5, seed=4)
    calls = _count_full_lowerings(monkeypatch)
    cliques = list(maximal_cliques(graph, 2, 0.3))
    best = max_uc_plus(graph, 2, 0.3)
    session = PreparedGraph(graph)
    assert list(session.maximal_cliques(2, 0.3)) == cliques
    assert session.max_uc_plus(2, 0.3) == best
    assert calls == [graph.version]
    assert session.cache_stats.full_compiles == 0


@pytest.mark.parametrize("through", ["session", "maintainer"])
def test_one_mutation_costs_one_delta_patch_in_total(through: str) -> None:
    graph = make_random_graph(16, 0.55, seed=5)
    first, second = PreparedGraph(graph), PreparedGraph(graph)
    _enum(first, tau=0.2)
    _enum(second, tau=0.2)
    lowered = current_lowering(graph)
    u, v = next((u, v) for u, v, _ in graph.edges())
    if through == "session":
        first.graph.set_probability(u, v, 0.95)
    else:
        maintainer = KTauCoreMaintainer(first, k=2, tau=0.2)
        maintainer.remove_edge(u, v)
        assert maintainer.core == frozenset(
            dp_core_plus(graph.copy(), 2, 0.2)
        )

    fresh = PreparedGraph(graph.copy())
    for session in (first, second):
        assert _enum(session, tau=0.2) == _enum(fresh, tau=0.2)
        assert _max(session, tau=0.2) == _max(fresh, tau=0.2)
        assert _enum(session, tau=0.2, pruning="ktau") == _enum(
            fresh, tau=0.2, pruning="ktau"
        )
    assert current_lowering(graph) is lowered
    stats = (first.cache_stats, second.cache_stats)
    assert sum(s.delta_patches for s in stats) == 1
    assert sum(s.full_compiles for s in stats) == 1


def test_small_session_lowers_once_per_version(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Two LRU entries cannot hold a query's working set, but the
    # lowering is not an LRU entry: churn never re-lowers the graph.
    graph = make_random_graph(14, 0.5, seed=6)
    session = PreparedGraph(graph, max_entries=2)
    calls = _count_full_lowerings(monkeypatch)
    for k in (1, 2, 3):
        for tau in (0.1, 0.3):
            _enum(session, k, tau)
            _max(session, k, tau)
    assert session.cache_stats.evictions > 0
    start = graph.version
    assert calls == [start]
    graph.add_edge("p", "q", 0.9)
    _enum(session)
    _max(session)
    assert calls == [start]
    assert session.cache_stats.delta_patches == 1
    graph.remove_node("p")
    _enum(session)
    _max(session)
    assert calls == [start, graph.version]


# ----------------------------------------------------------------------
# The component walk is kept per graph version, like the lowering
# ----------------------------------------------------------------------


def test_fresh_sessions_share_one_walk() -> None:
    graph = _cliques_with_bridges()
    _enum(PreparedGraph(graph))
    held = graph._walk
    assert held is not None and held[0] == graph.version
    for _ in range(3):
        session = PreparedGraph(graph)
        _enum(session)
        _max(session)
        session.store_core("topk", 2, 0.3, frozenset(graph))
    # A walk stores a fresh tuple: none of these sessions walked again.
    assert graph._walk is held
    assert pipeline.graph_components(graph) is held[1]


_MUTATIONS: dict[str, Callable[[UncertainGraph], Any]] = {
    "set_probability": lambda g: g.set_probability(0, 1, 0.5),
    "add_edge": lambda g: g.add_edge(30, 0, 0.9),
    "add_edge_within": lambda g: g.add_edge(0, 10, 0.9),
    "add_edge_merge": lambda g: g.add_edge(0, 20, 0.9),
    "remove_edge": lambda g: g.remove_edge(0, 1),
    "remove_edge_split": lambda g: g.remove_edge(4, 10),
    "add_node": lambda g: g.add_node("loner"),
    "remove_node": lambda g: g.remove_node(0),
}

#: The mutations that change no component's membership, only epochs.
_EPOCH_ONLY = ("set_probability", "add_edge_within", "remove_edge")


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_every_mutation_invalidates_the_walk(mutation: str) -> None:
    graph = _cliques_with_bridges()
    session = PreparedGraph(graph)
    _enum(session)
    parts = pipeline.graph_components(graph)
    _MUTATIONS[mutation](graph)
    walked = pipeline.graph_components(graph)
    assert walked is not parts
    assert graph._walk == (graph.version, walked)
    assert walked == pipeline.graph_components(graph.copy())
    assert _enum(session) == _enum(PreparedGraph(graph.copy()))


@pytest.mark.parametrize("mutation", _EPOCH_ONLY)
def test_epoch_only_mutations_refresh_the_walk_without_walking(
    monkeypatch: pytest.MonkeyPatch, mutation: str
) -> None:
    graph = _cliques_with_bridges()
    parts = pipeline.graph_components(graph)
    _MUTATIONS[mutation](graph)
    expected = pipeline.graph_components(graph.copy())

    def walked(*args: Any) -> Any:
        raise AssertionError("the graph was walked")

    monkeypatch.setattr(UncertainGraph, "component_id", walked)
    monkeypatch.setattr(UncertainGraph, "__iter__", walked)
    refreshed = pipeline.graph_components(graph)
    assert refreshed == expected != parts
    assert graph._walk == (graph.version, refreshed)


# ----------------------------------------------------------------------
# Patching in place never reaches a reader of derived state
# ----------------------------------------------------------------------


@pytest.mark.parametrize("oversized", [False, True], ids=["whole", "oversized"])
@pytest.mark.parametrize("mutation", ["remove_edge", "remove_node"])
def test_second_session_between_yields_keeps_the_asked_version(
    monkeypatch: pytest.MonkeyPatch, oversized: bool, mutation: str
) -> None:
    from repro.core import enumeration as enumeration_mod

    if oversized:
        # Every 5-node piece is above the limit: per-vertex views.
        monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    expected = list(PreparedGraph(_cliques_with_bridges())
                    .maximal_cliques(2, 0.3))
    assert len(expected) == 3
    g = _cliques_with_bridges()
    cliques = PreparedGraph(g).maximal_cliques(2, 0.3)
    first = next(cliques)
    lowered = current_lowering(g)
    # Mutate the last piece, not yet searched, and let a second session
    # resolve the shared lowering before the generator resumes.
    if mutation == "remove_edge":
        g.remove_edge(22, 23)
    else:
        g.remove_node(22)
    second = PreparedGraph(g)
    after = list(second.maximal_cliques(2, 0.3))
    assert after == list(PreparedGraph(g.copy()).maximal_cliques(2, 0.3))
    if mutation == "remove_edge":
        assert second.cache_stats.delta_patches == 1
        assert current_lowering(g) is lowered
    else:
        assert second.cache_stats.full_compiles == 1
    assert [first, *cliques] == expected


def test_cached_views_survive_a_patch_by_another_reader() -> None:
    g = _cliques_with_bridges()
    session = PreparedGraph(g)
    _enum(session)
    _max(session)
    snapshot = pickle.dumps(list(session._cache.values()))
    # A reweight in the third clique, resolved by a free function: the
    # shared lowering is patched in place under the session's entries.
    g.set_probability(20, 21, 0.85)
    list(maximal_cliques(g, 2, 0.3))
    assert pickle.dumps(list(session._cache.values())) == snapshot
    fresh = PreparedGraph(g.copy())
    assert _enum(session) == _enum(fresh)
    assert _max(session) == _max(fresh)
    assert session.cache_stats.delta_patches == 0


def test_resolved_lowering_equals_a_cold_compile() -> None:
    g = make_random_graph(12, 0.5, seed=8)
    lowered, how = pipeline.lowering(g)
    assert how == "full"
    assert pipeline.lowering(g) == (lowered, "current")
    g.add_edge(0, "new", 0.7)
    g.set_probability(0, "new", 0.4)
    edge = next((u, v) for u, v, _ in g.edges() if u != 0)
    g.remove_edge(*edge)
    g.add_node("lone")
    assert pipeline.lowering(g) == (lowered, "delta")
    assert_bit_identical(lowered, compile_graph(g))


def test_a_patch_that_raises_leaves_no_lowering(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    g = make_random_graph(10, 0.5, seed=9)
    lowered, _ = pipeline.lowering(g)
    g.add_edge(0, "new", 0.7)

    def broken(self: CompiledGraph, ops: Any) -> bool:
        raise RuntimeError("patch failed")

    monkeypatch.setattr(CompiledGraph, "apply_delta", broken)
    with pytest.raises(RuntimeError):
        pipeline.lowering(g)
    assert g._lowering is None
    monkeypatch.undo()
    relowered, how = pipeline.lowering(g)
    assert how == "full" and relowered is not lowered


# ----------------------------------------------------------------------
# Derived graphs never share a lowering
# ----------------------------------------------------------------------


_DERIVED: dict[str, Callable[[UncertainGraph], UncertainGraph]] = {
    "copy": lambda g: g.copy(),
    "induced_subgraph": lambda g: g.induced_subgraph(list(g)[:6]),
    "pickle": lambda g: pickle.loads(pickle.dumps(g)),
    "copy.copy": copy.copy,
    "copy.deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("derive", sorted(_DERIVED))
def test_derived_graphs_start_without_a_lowering(derive: str) -> None:
    g = make_random_graph(10, 0.6, seed=10)
    list(maximal_cliques(g, 2, 0.3))
    lowered = current_lowering(g)
    other = _DERIVED[derive](g)
    assert other._lowering is None
    assert list(maximal_cliques(other, 2, 0.3)) == list(
        maximal_cliques(other.copy(), 2, 0.3)
    )
    assert current_lowering(other) is not lowered
    assert current_lowering(g) is lowered


@pytest.mark.parametrize("derive", sorted(_DERIVED))
def test_derived_graphs_start_without_a_walk(derive: str) -> None:
    g = make_random_graph(10, 0.6, seed=10)
    list(PreparedGraph(g).maximal_cliques(2, 0.3))
    walk = g._walk
    assert walk is not None and walk[0] == g.version
    other = _DERIVED[derive](g)
    assert other._walk is None
    assert pipeline.graph_components(other) == pipeline.graph_components(
        other.copy()
    )
    assert g._walk is walk


def test_session_maintainer_lowers_the_shared_graph_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    graph = make_random_graph(16, 0.55, seed=6)
    cold = _enum(PreparedGraph(graph.copy()), tau=0.2)
    calls = _count_compile_graph(monkeypatch)
    session = PreparedGraph(graph)
    maintainer = KTauCoreMaintainer(session, k=2, tau=0.2)
    # The baseline core peels the graph's own lowering, which the
    # first query then reuses.
    lowered = current_lowering(graph)
    assert _enum(session, tau=0.2) == cold
    assert calls == [graph.version]
    assert current_lowering(graph) is lowered
    assert maintainer.core == frozenset(dp_core_plus(graph.copy(), 2, 0.2))


def test_private_maintainer_never_touches_the_source_lowering() -> None:
    g = make_random_graph(14, 0.6, seed=11)
    list(maximal_cliques(g, 2, 0.3))
    lowered = current_lowering(g)
    maintainer = KTauCoreMaintainer(g, k=2, tau=0.3)
    maintainer.add_edge("p", 0, 0.95)
    maintainer.remove_edge(*next((u, v) for u, v, _ in g.edges()))
    assert current_lowering(g) is lowered
    assert "p" not in g


# ----------------------------------------------------------------------
# Anchored queries run on the graph's lowering
# ----------------------------------------------------------------------


def _hub_between_cliques() -> UncertainGraph:
    """A hub ``h`` in two 0.9-probability 5-cliques, a node ``weak``
    whose anchored core is dead at (2, 0.3), and a separate clique."""
    g = UncertainGraph()
    for group in ("a", "b", "c"):
        members = [f"{group}{i}" for i in range(1, 5)]
        if group != "c":
            members.append("h")
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                g.add_edge(u, v, 0.9)
    g.add_edge("weak", "a1", 0.1)
    g.add_edge("weak", "a2", 0.1)
    return g


def _count_anchored_peels(monkeypatch: pytest.MonkeyPatch) -> list[Any]:
    """Record the ``fixed`` set of every anchored peel from here on."""
    from repro.core import session as session_mod

    calls: list[Any] = []
    topk_core = session_mod.topk_core

    def counting(*args: Any, **kwargs: Any) -> Any:
        calls.append(kwargs["fixed"])
        return topk_core(*args, **kwargs)

    monkeypatch.setattr(session_mod, "topk_core", counting)
    return calls


def test_a_dead_anchor_repeats_without_a_peel(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    session = PreparedGraph(_hub_between_cliques())
    calls = _count_anchored_peels(monkeypatch)
    assert list(session.cliques_containing("weak", 2, 0.3)) == []
    assert not session.containing_clique_exists(["weak"], 2, 0.3)
    assert len(calls) == 2
    before = session.cache_info()
    assert list(session.cliques_containing("weak", 2, 0.3)) == []
    assert not session.containing_clique_exists(["weak"], 2, 0.3)
    after = session.cache_info()
    assert len(calls) == 2
    # One lookup each, no lowering resolved.
    assert after["hits"] == before["hits"] + 2
    assert after["misses"] == before["misses"]


def test_anchored_entries_follow_their_component(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    g = _hub_between_cliques()
    session = PreparedGraph(g)
    calls = _count_anchored_peels(monkeypatch)
    cold = list(session.cliques_containing("h", 3, 0.3))
    assert set(cold) == {
        frozenset({"h", "a1", "a2", "a3", "a4"}),
        frozenset({"h", "b1", "b2", "b3", "b4"}),
    }
    assert session.containing_clique_exists(["h", "b1", "b2"], 3, 0.3)
    assert len(calls) == 2

    # Another component's mutation keeps both entries warm.
    g.set_probability("c1", "c2", 0.5)
    assert list(session.cliques_containing("h", 3, 0.3)) == cold
    assert session.containing_clique_exists(["h", "b1", "b2"], 3, 0.3)
    assert len(calls) == 2

    # The anchor's own component's mutations recompute them: {h, b1, b2}
    # can no longer grow past three nodes.
    g.remove_edge("b1", "b3")
    g.remove_edge("b1", "b4")
    fresh = PreparedGraph(g.copy())
    expected = list(fresh.cliques_containing("h", 3, 0.3))
    assert not fresh.containing_clique_exists(["h", "b1", "b2"], 3, 0.3)
    del calls[:]
    assert list(session.cliques_containing("h", 3, 0.3)) == expected
    assert not session.containing_clique_exists(["h", "b1", "b2"], 3, 0.3)
    assert len(calls) == 2


@pytest.mark.parametrize("mutation", ["remove_edge", "remove_node"])
def test_a_paused_anchored_generator_keeps_the_asked_version(
    mutation: str,
) -> None:
    expected = list(PreparedGraph(_hub_between_cliques())
                    .cliques_containing("h", 2, 0.3))
    assert len(expected) == 2
    g = _hub_between_cliques()
    cliques = PreparedGraph(g).cliques_containing("h", 2, 0.3)
    first = next(cliques)
    lowered = current_lowering(g)
    # Break the clique not yet yielded, and let a second session patch
    # (or re-lower) the shared lowering before the generator resumes.
    rest = "b" if "a1" in first else "a"
    if mutation == "remove_edge":
        g.remove_edge(f"{rest}1", f"{rest}2")
    else:
        g.remove_node(f"{rest}1")
    second = PreparedGraph(g)
    after = list(second.cliques_containing("h", 2, 0.3))
    assert after == list(
        PreparedGraph(g.copy()).cliques_containing("h", 2, 0.3)
    )
    assert after != expected
    if mutation == "remove_edge":
        assert second.cache_stats.delta_patches == 1
        assert current_lowering(g) is lowered
    else:
        assert second.cache_stats.full_compiles == 1
    assert [first, *cliques] == expected


def test_an_anchored_query_lowers_an_unlowered_graph_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    g = _hub_between_cliques()
    calls = _count_full_lowerings(monkeypatch)
    first = PreparedGraph(g)
    assert len(list(first.cliques_containing("h", 2, 0.3))) == 2
    assert first.containing_clique_exists(["h", "a1"], 2, 0.3)
    assert calls == [g.version]
    assert first.cache_stats.full_compiles == 1
    lowered = current_lowering(g)

    second = PreparedGraph(g)
    assert _enum(second) == _enum(PreparedGraph(g.copy()))
    assert second.cache_stats.full_compiles == 0
    assert second.cache_stats.delta_patches == 0
    assert current_lowering(g) is lowered
    assert calls == [g.version, g.version]  # the copy's own lowering
