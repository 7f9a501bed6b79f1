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
from repro.core import pipeline
from repro.core.enumeration import Engine, EnumerationStats
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph, compile_graph
from tests.conftest import current_lowering, make_random_graph
from tests.core.test_delta_compile import assert_bit_identical
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
# Patching in place never reaches a reader of derived state
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", ["pivot", "legacy", "oversized"])
@pytest.mark.parametrize("mutation", ["remove_edge", "remove_node"])
def test_second_session_between_yields_keeps_the_asked_version(
    monkeypatch: pytest.MonkeyPatch, case: str, mutation: str
) -> None:
    from repro.core import enumeration as enumeration_mod

    engine: Engine = "legacy" if case == "legacy" else "pivot"
    if case == "oversized":
        # Every 5-node piece is above the limit: legacy fallback.
        monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    expected = list(PreparedGraph(_cliques_with_bridges())
                    .maximal_cliques(2, 0.3, engine=engine))
    assert len(expected) == 3
    g = _cliques_with_bridges()
    cliques = PreparedGraph(g).maximal_cliques(2, 0.3, engine=engine)
    first = next(cliques)
    lowered = current_lowering(g)
    # Mutate the last piece, not yet searched, and let a second session
    # resolve the shared lowering before the generator resumes.
    if mutation == "remove_edge":
        g.remove_edge(22, 23)
    else:
        g.remove_node(22)
    second = PreparedGraph(g)
    after = list(second.maximal_cliques(2, 0.3, engine=engine))
    assert after == list(
        PreparedGraph(g.copy()).maximal_cliques(2, 0.3, engine=engine)
    )
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


def test_private_maintainer_never_touches_the_source_lowering() -> None:
    g = make_random_graph(14, 0.6, seed=11)
    list(maximal_cliques(g, 2, 0.3))
    lowered = current_lowering(g)
    maintainer = KTauCoreMaintainer(g, k=2, tau=0.3)
    maintainer.add_edge("p", 0, 0.95)
    maintainer.remove_edge(*next((u, v) for u, v, _ in g.edges()))
    assert current_lowering(g) is lowered
    assert "p" not in g
