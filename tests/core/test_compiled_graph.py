"""The unified per-version compile artifact.

One :class:`~repro.core.prune_kernel.CompiledGraph` per graph version
serves both halves of every query: the prune peels replay over its flat
CSR, and the search stage derives per-component
:class:`~repro.core.kernel.CompiledComponent` views from the same arrays
via :func:`~repro.core.kernel.derive_component_view` instead of
recompiling each component from its subgraph.  This suite pins the
contracts that make that sound:

* the derived view is **bit-identical** to ``compile_component`` on the
  induced subgraph — same nodes, ids, CSR rows and float values — for
  arbitrary member subsets (pruning removes nodes only, so any
  survivor set is an induced-subgraph restriction);
* a session performs exactly **one** compile per graph version across
  prune, enumeration and maximum queries, kept on the graph;
* the artifact and its component views survive a pickle roundtrip;
* the lowering is lazy: a cold query maps only the rows it reads, and
  every reader — peels, view derivation, delta patches, pickling —
  gives the same result on a partly mapped artifact as on a fully
  mapped one.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings, strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core.kernel import (
    CompiledComponent,
    compile_component,
    derive_component_view,
)
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    distribution_peel,
    survival_peel,
    topk_peel,
)
from repro.deterministic.components import connected_components

PROBABILITY_PALETTE = (0.25, 0.4, 0.4, 0.5, 0.7, 0.7, 0.9, 1.0)


def _labels(n: int, mixed: bool) -> list[object]:
    if not mixed:
        return list(range(n))
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


@st.composite
def uncertain_graphs(draw: st.DrawFn) -> UncertainGraph:
    n = draw(st.integers(min_value=0, max_value=12))
    mixed = draw(st.booleans())
    nodes = _labels(n, mixed)
    graph = UncertainGraph(nodes=nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    return graph


def assert_views_bit_identical(
    derived: CompiledComponent, compiled: CompiledComponent
) -> None:
    """Exact equality on every field the search kernel reads."""
    assert derived.nodes == compiled.nodes
    assert derived.index == compiled.index
    assert derived.adj == compiled.adj
    assert derived.full_mask == compiled.full_mask
    assert derived.rows == compiled.rows
    assert derived.prob == compiled.prob
    assert list(derived.row_offsets) == list(compiled.row_offsets)
    assert list(derived.nbr_ids) == list(compiled.nbr_ids)
    assert list(derived.nbr_probs) == list(compiled.nbr_probs)


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs())
def test_derived_view_matches_component_compile(
    graph: UncertainGraph,
) -> None:
    artifact = compile_graph(graph)
    for members in connected_components(graph):
        component = graph.induced_subgraph(members)
        derived = derive_component_view(artifact, list(component.nodes()))
        assert_views_bit_identical(derived, compile_component(component))


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), data=st.data())
def test_derived_view_matches_on_arbitrary_member_subsets(
    graph: UncertainGraph, data: st.DataObject
) -> None:
    # Pruning removes nodes (never edges among survivors), so the stage
    # hands derive_component_view member sets that are arbitrary
    # restrictions of the compiled graph — not only whole components.
    nodes = list(graph.nodes())
    members = [u for u in nodes if data.draw(st.booleans(), label=str(u))]
    artifact = compile_graph(graph)
    component = graph.induced_subgraph(members)
    derived = derive_component_view(artifact, list(component.nodes()))
    assert_views_bit_identical(derived, compile_component(component))


def _two_triangles() -> UncertainGraph:
    graph = UncertainGraph()
    for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
        graph.add_edge(u, v, 0.9)
    for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
        graph.add_edge(u, v, 0.8)
    return graph


def _compile_entries(session: PreparedGraph) -> list[CompiledGraph]:
    """The lowerings a query of ``session`` can read: the one its graph
    carries, never one in the session's cache."""
    assert not any(
        isinstance(value, CompiledGraph) for value in session._cache.values()
    )
    lowered = session.graph._lowering
    return [lowered] if isinstance(lowered, CompiledGraph) else []


def test_session_compiles_once_per_version() -> None:
    # Enumeration, maximum search and a repeat query at different
    # parameters all share the graph's one lowering; a mutation bumps
    # the version and that lowering is delta-patched forward in place —
    # the same object, now at the new version, with no second full
    # lowering.
    graph = _two_triangles()
    session = PreparedGraph(graph)
    list(session.maximal_cliques(2, 0.3))
    (lowered,) = _compile_entries(session)
    session.max_uc_plus(2, 0.3)
    list(session.maximal_cliques(1, 0.5))
    assert _compile_entries(session) == [lowered]
    assert session.cache_stats.full_compiles == 1

    session.graph.add_edge("c", "x", 0.7)
    list(session.maximal_cliques(2, 0.3))
    assert _compile_entries(session) == [lowered]
    assert lowered.version == session.version
    assert session.cache_stats.delta_patches == 1
    assert session.cache_stats.full_compiles == 1


def test_cold_query_times_one_compile_and_warm_times_none() -> None:
    from repro.core.enumeration import EnumerationStats

    session = PreparedGraph(_two_triangles())
    cold = EnumerationStats()
    list(session.maximal_cliques(2, 0.3, stats=cold))
    assert cold.timings.seconds("compile") > 0.0
    warm = EnumerationStats()
    # A warm repeat reuses artifact and views: the compile lap stays 0.
    list(session.maximal_cliques(2, 0.3, stats=warm))
    assert warm.timings.seconds("compile") == 0.0
    # New parameters still derive fresh views (a nonzero compile lap)
    # but never re-lower the graph: one compile entry, no new lowering.
    fresh_params = EnumerationStats()
    list(session.maximal_cliques(1, 0.5, stats=fresh_params))
    assert len(_compile_entries(session)) == 1


def component_members(compiled: CompiledGraph) -> list[list[object]]:
    """Each connected component's labels in id order, read from the
    artifact's own (fully lowered) rows."""
    compiled._finish_lowering()
    rf = compiled.row_offsets
    seen = bytearray(compiled.n)
    members: list[list[object]] = []
    for start in range(compiled.n):
        if seen[start]:
            continue
        seen[start] = 1
        part = [start]
        for u in part:
            for v in compiled.nbr_ids[rf[u]:rf[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    part.append(v)
        members.append([compiled.nodes[i] for i in sorted(part)])
    return members


def assert_component_views_equal(a: CompiledGraph, b: CompiledGraph) -> None:
    """The search view of every component of ``b`` is bit-identical when
    derived from ``a``: together the views cover every row in full."""
    for members in component_members(b):
        assert_views_bit_identical(
            derive_component_view(a, members),
            derive_component_view(b, members),
        )


def assert_artifacts_equal(a: CompiledGraph, b: CompiledGraph) -> None:
    """Exact equality of two artifacts once both are fully lowered."""
    assert a.nodes == b.nodes
    assert a.version == b.version
    assert a.index == b.index
    assert a.sort_rank == b.sort_rank
    assert list(a.row_offsets) == list(b.row_offsets)
    assert list(a.nbr_probs) == list(b.nbr_probs)
    assert_component_views_equal(a, b)
    a._finish_lowering()
    b._finish_lowering()
    assert a.nbr_labels is None and b.nbr_labels is None
    assert list(a.nbr_ids) == list(b.nbr_ids)
    assert list(a.core_ids()) == list(b.core_ids())


def test_compiled_graph_pickle_roundtrip() -> None:
    graph = _two_triangles()
    artifact = compile_graph(graph)
    clone = pickle.loads(pickle.dumps(artifact))
    assert isinstance(clone, CompiledGraph)
    # Derived views from the clone match the original's.
    members = ["a", "b", "c"]
    assert_views_bit_identical(
        derive_component_view(clone, members),
        derive_component_view(artifact, members),
    )
    assert_artifacts_equal(clone, artifact)


def test_compiled_component_pickle_roundtrip() -> None:
    graph = _two_triangles()
    comp = compile_component(graph)
    clone = pickle.loads(pickle.dumps(comp))
    assert clone.nodes == comp.nodes
    assert clone.index == comp.index
    assert clone.adj == comp.adj
    assert clone.prob == comp.prob
    assert clone.rows == comp.rows
    assert clone.full_mask == comp.full_mask
    assert list(clone.row_offsets) == list(comp.row_offsets)
    assert list(clone.nbr_ids) == list(comp.nbr_ids)
    assert list(clone.nbr_probs) == list(comp.nbr_probs)


# ----------------------------------------------------------------------
# Lazy lowering
# ----------------------------------------------------------------------


def _mapped_rows(cpg: CompiledGraph) -> list[int]:
    """Ids of the non-empty rows whose neighbour ids are mapped."""
    rf = cpg.row_offsets
    return [
        i for i in range(cpg.n)
        if rf[i] < rf[i + 1] and cpg.nbr_ids[rf[i]] is not None
    ]


def _clique_with_tail() -> UncertainGraph:
    # A 0.9-probability 5-clique with a 30-node path of 0.1 edges hung
    # off it: at (k=3, tau=0.3) the top-k prefilter condemns every path
    # node from its probabilities alone.
    graph = UncertainGraph()
    clique = [f"c{i}" for i in range(5)]
    for i, u in enumerate(clique):
        for v in clique[i + 1:]:
            graph.add_edge(u, v, 0.9)
    previous = clique[0]
    for i in range(30):
        graph.add_edge(previous, f"t{i}", 0.1)
        previous = f"t{i}"
    return graph


def test_cold_query_maps_only_the_rows_it_reads() -> None:
    graph = _clique_with_tail()
    session = PreparedGraph(graph)
    cliques = list(session.maximal_cliques(3, 0.3))
    assert [set(c) for c in cliques] == [{f"c{i}" for i in range(5)}]
    assert session.cache_stats.full_compiles == 1
    (artifact,) = _compile_entries(session)
    mapped = _mapped_rows(artifact)
    assert artifact.nbr_labels is not None
    assert 0 < len(mapped) < artifact.n
    rf = artifact.row_offsets
    for i in set(range(artifact.n)) - set(mapped):
        assert all(x is None for x in artifact.nbr_ids[rf[i]:rf[i + 1]])
    # Finishing the lowering reproduces the eagerly mapped ids.
    artifact._finish_lowering()
    index = artifact.index
    assert artifact.nbr_ids == [
        index[v] for u in artifact.nodes for v in graph.incident(u)
    ]


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
    nodes = list(graph.nodes())
    members = [u for u in nodes if data.draw(st.booleans(), label=f"m{u}")]
    fixed = {u for u in members if data.draw(st.booleans(), label=f"f{u}")}
    frontier = [u for u in members if data.draw(st.booleans(), label=f"q{u}")]
    lowered = compile_graph(graph)
    lowered._finish_lowering()

    def both(peel, **kwargs):
        # A fresh artifact per call: the whole-graph peels lower it.
        return (
            peel(compile_graph(graph), k, tau, **kwargs),
            peel(lowered, k, tau, **kwargs),
        )

    for peel in (survival_peel, distribution_peel, topk_peel):
        for kwargs in (
            {},
            {"members": members},
            {"members": members, "frontier": frontier},
        ):
            fresh, full = both(peel, **kwargs)
            assert fresh == full
    fresh, full = both(topk_peel, members=members, fixed=fixed)
    assert fresh == full
    fresh_artifact = compile_graph(graph)
    for component in connected_components(graph):
        members_list = list(graph.induced_subgraph(component).nodes())
        assert_views_bit_identical(
            derive_component_view(fresh_artifact, members_list),
            derive_component_view(lowered, members_list),
        )
    assert fresh_artifact.nbr_labels is not None


def _partly_mapped(graph: UncertainGraph) -> CompiledGraph:
    artifact = compile_graph(graph)
    survivors = topk_peel(artifact, 3, 0.3)
    assert survivors == frozenset(f"c{i}" for i in range(5))
    assert artifact.nbr_labels is not None
    assert 0 < len(_mapped_rows(artifact)) < artifact.n
    return artifact


def test_pickle_roundtrip_of_partly_mapped_artifact() -> None:
    graph = _clique_with_tail()
    artifact = _partly_mapped(graph)
    clone = pickle.loads(pickle.dumps(artifact))
    # The clone keeps the laziness: the same rows are mapped.
    assert clone.nbr_labels is not None
    assert _mapped_rows(clone) == _mapped_rows(artifact)
    assert_artifacts_equal(clone, compile_graph(graph))


def test_apply_delta_on_partly_mapped_artifact() -> None:
    graph = _clique_with_tail()
    artifact = _partly_mapped(graph)
    graph.set_probability("c0", "c1", 0.35)
    graph.add_edge("t3", "c4", 0.8)
    graph.add_edge("t29", "fresh", 0.6)
    graph.remove_edge("t10", "t11")
    graph.add_node("loner")
    ops = graph.mutations_since(artifact.version)
    assert ops is not None
    assert artifact.apply_delta(ops)
    assert_artifacts_equal(artifact, compile_graph(graph))
