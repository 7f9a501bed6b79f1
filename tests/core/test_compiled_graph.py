"""The per-version lowering shared by both halves of every query.

One :class:`~repro.core.prune_kernel.CompiledGraph` view over the
graph's id rows serves the prune peels, and the search stage derives
per-component :class:`~repro.core.kernel.CompiledComponent` views from
the same rows via :func:`~repro.core.kernel.derive_component_view`.
This suite pins what makes that sound:

* a derived view is **bit-identical** to ``compile_component`` on the
  induced subgraph, for whole components and for arbitrary member
  subsets (pruning removes nodes only);
* a session lowers its graph **once** per version across prune,
  enumeration and maximum queries, and a warm repeat compiles nothing;
* every reader gives the same answer on a copy's fresh view as on the
  graph's own lowering with its level index built.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core import pipeline
from repro.core.enumeration import EnumerationStats
from repro.core.kernel import compile_component
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    distribution_peel,
    survival_peel,
    topk_peel,
)
from repro.deterministic.components import connected_components
from tests.core.support import (
    assert_views_bit_identical,
    lowering_view,
    two_cliques,
    uncertain_graphs,
)


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs())
def test_derived_view_matches_component_compile(
    graph: UncertainGraph,
) -> None:
    artifact = compile_graph(graph)
    for members in connected_components(graph):
        component = graph.induced_subgraph(members)
        derived = lowering_view(artifact, component.nodes())
        assert_views_bit_identical(derived, compile_component(component))


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), data=st.data())
def test_derived_view_matches_on_arbitrary_member_subsets(
    graph: UncertainGraph, data: st.DataObject
) -> None:
    # Pruning removes nodes (never edges among survivors), so the search
    # stage derives views of arbitrary restrictions, not only components.
    members = [u for u in graph if data.draw(st.booleans(), label=str(u))]
    component = graph.induced_subgraph(members)
    derived = lowering_view(compile_graph(graph), component.nodes())
    assert_views_bit_identical(derived, compile_component(component))


def _lowering_of(session: PreparedGraph) -> CompiledGraph:
    """The one lowering a query of ``session`` reads: the graph's own,
    never one in the session's cache."""
    assert not any(
        isinstance(value, CompiledGraph) for value in session._cache.values()
    )
    lowered = session.graph._lowering
    assert isinstance(lowered, CompiledGraph)
    return lowered


def test_session_compiles_once_per_version() -> None:
    # Enumeration, maximum search and a query at other parameters share
    # the graph's one lowering; a mutation patches it forward in place.
    session = PreparedGraph(two_cliques())
    list(session.maximal_cliques(2, 0.3))
    lowered = _lowering_of(session)
    session.max_uc_plus(2, 0.3)
    list(session.maximal_cliques(1, 0.5))
    assert _lowering_of(session) is lowered
    assert session.cache_stats.full_compiles == 1

    session.graph.add_edge("c", "x", 0.7)
    list(session.maximal_cliques(2, 0.3))
    assert _lowering_of(session) is lowered
    assert lowered.version == session.version
    assert session.cache_stats.delta_patches == 1
    assert session.cache_stats.full_compiles == 1


def test_cold_query_times_one_compile_and_warm_times_none() -> None:
    session = PreparedGraph(two_cliques())
    cold = EnumerationStats()
    list(session.maximal_cliques(2, 0.3, stats=cold))
    assert cold.timings.seconds("compile") > 0.0
    lowered = _lowering_of(session)
    # A warm repeat reuses the lowering and the views: no compile lap.
    warm = EnumerationStats()
    list(session.maximal_cliques(2, 0.3, stats=warm))
    assert warm.timings.seconds("compile") == 0.0
    # New parameters derive fresh views but never re-lower the graph.
    list(session.maximal_cliques(1, 0.5))
    assert _lowering_of(session) is lowered
    assert session.cache_stats.full_compiles == 1


def test_cold_maximum_over_a_warm_lowering_times_views_not_compile() -> None:
    # The compile lap times the lowering alone: a fresh session over a
    # graph already lowered builds MaxUC+'s views and colors under the
    # views lap.
    graph = two_cliques()
    pipeline.lowering(graph)
    stats = MaximumSearchStats()
    assert PreparedGraph(graph).max_uc_plus(2, 0.3, stats=stats)
    assert stats.timings.seconds("compile") == 0.0
    assert stats.timings.seconds("views") > 0.0


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from((0.05, 0.2, 0.5)),
    data=st.data(),
)
def test_readers_agree_on_fresh_and_lowered_artifacts(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    members = [u for u in graph if data.draw(st.booleans(), label=f"m{u}")]
    fixed = {u for u in members if data.draw(st.booleans(), label=f"f{u}")}
    frontier = [u for u in members if data.draw(st.booleans(), label=f"q{u}")]
    lowered, _ = pipeline.lowering(graph)
    topk_peel(lowered, k, tau)
    topk_peel(lowered, k, tau)

    for peel, modes in (
        (distribution_peel, ({},)),
        (topk_peel, ({}, {"members": members})),
        (survival_peel, (
            {}, {"members": members},
            {"members": members, "frontier": frontier},
        )),
    ):
        for kwargs in modes:
            # A copy's fresh view per call, against the indexed one.
            fresh = compile_graph(graph.copy())
            assert peel(fresh, k, tau, **kwargs) == peel(
                lowered, k, tau, **kwargs
            )
    assert topk_peel(
        compile_graph(graph.copy()), k, tau, members=members, fixed=fixed
    ) == topk_peel(lowered, k, tau, members=members, fixed=fixed)
    fresh = compile_graph(graph.copy())
    for component in connected_components(graph):
        nodes = list(graph.induced_subgraph(component).nodes())
        assert_views_bit_identical(
            lowering_view(fresh, nodes), lowering_view(lowered, nodes),
        )
