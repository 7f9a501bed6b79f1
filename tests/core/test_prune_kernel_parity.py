"""Prune parity: the compiled peels of :mod:`repro.core.prune_kernel`
against the naive fixpoint oracles of :mod:`tests.core.oracles`, one
property per contract.

Verified peeling converges to the unique maximal fixpoint whatever the
peel order, so every peel — ``dp_core``, ``dp_core_plus`` and
``topk_core`` on the whole graph, the latter two restricted by
``members=``, ``dp_core_plus`` seeded by ``frontier=`` and ``topk_core``
aborted by ``fixed=`` — must return exactly the oracle's core of the
(induced) graph.  :mod:`tests.core.test_conformance`
crosses these contracts with warm and delta-patched lowerings.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core.enumeration import maximal_cliques
from repro.core.ktau_core import dp_core, dp_core_plus
from repro.core.prune_kernel import (
    compile_graph,
    distribution_peel,
    survival_peel,
    topk_peel,
)
from repro.core.topk_core import topk_core, topk_core_arrays
from repro.deterministic.core_decomposition import core_numbers
from tests.conftest import current_lowering
from tests.core.oracles import ktau_core_oracle, topk_core_oracle
from tests.core.support import (
    PROBABILITY_PALETTE,
    straddle_graph,
    uncertain_graphs,
)

TAUS = (0.05, 0.2, 0.5)
taus = st.sampled_from(TAUS)
ks = st.integers(min_value=1, max_value=3)


@settings(max_examples=50, deadline=None)
@given(graph=uncertain_graphs(), k=st.integers(min_value=0, max_value=4),
       tau=taus)
def test_peel_engines_identical(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    compiled = compile_graph(graph)
    ktau = ktau_core_oracle(graph, k, tau)
    assert dp_core(graph, k, tau, compiled=compiled) == ktau
    assert dp_core_plus(graph, k, tau, compiled=compiled) == ktau
    core = topk_core(graph, k, tau, compiled=compiled)
    assert core.contains_fixed
    assert core.nodes == topk_core_oracle(graph, k, tau)


@settings(max_examples=40, deadline=None)
@given(graph=uncertain_graphs())
def test_compiled_core_ids_match_core_numbers(graph: UncertainGraph) -> None:
    compiled = compile_graph(graph)
    assert dict(zip(compiled.nodes, compiled.core_ids())) == core_numbers(
        graph
    )


@settings(max_examples=30, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, data=st.data())
def test_seeded_peel_matches_induced_subgraph(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    nodes = graph.nodes()
    members = data.draw(
        st.sets(st.sampled_from(nodes)) if nodes else st.just(set())
    )
    induced = graph.induced_subgraph(members)
    compiled = compile_graph(graph)
    assert survival_peel(
        compiled, k, tau, members=members
    ) == ktau_core_oracle(induced, k, tau)
    assert topk_peel(
        compiled, k, tau, members=members
    ) == topk_core_oracle(induced, k, tau)


@settings(max_examples=30, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, data=st.data())
def test_fixed_abort_parity(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    nodes = graph.nodes()
    fixed = data.draw(
        st.sets(st.sampled_from(nodes), min_size=1) if nodes
        else st.just(set())
    )
    core = topk_core(graph, k, tau, fixed=fixed, compiled=compile_graph(graph))
    oracle = topk_core_oracle(graph, k, tau, fixed)
    assert core.contains_fixed == (oracle is not None)
    assert core.nodes == (oracle or frozenset())


def test_artifact_reuse_across_peels() -> None:
    # One compile serves every peel at every (k, tau) — the session's
    # sharing pattern — and repeated replays stay bit-identical.
    graph = straddle_graph()
    compiled = compile_graph(graph)
    for k, tau in [(1, 0.05), (2, 0.5), (3, 0.2), (2, 0.5)]:
        fresh = compile_graph(graph)
        for peel in (survival_peel, distribution_peel, topk_peel):
            assert peel(compiled, k, tau) == peel(fresh, k, tau)
    assert compiled.version == graph.version


def test_topk_core_arrays_members_none_never_aborts() -> None:
    graph = straddle_graph()
    assert topk_core_arrays(graph, 2, 0.2) == topk_core_oracle(graph, 2, 0.2)


def test_session_shares_one_compile_across_prune_stages() -> None:
    graph = straddle_graph()
    session = PreparedGraph(graph)
    cold = list(session.maximal_cliques(2, 0.2))
    before = session.cache_info()["misses"]
    assert list(session.maximal_cliques(2, 0.2)) == cold
    assert session.cache_info()["misses"] == before  # all hits on replay
    assert session.cache_info()["full_compiles"] == 1
    lowered = current_lowering(graph)
    # A mutation bumps the version; the lowering is patched in place.
    graph.add_edge("pendant", "lone", 0.9)
    fresh = list(session.maximal_cliques(2, 0.2))
    assert session.cache_info()["delta_patches"] == 1
    assert current_lowering(graph) is lowered
    assert fresh == list(maximal_cliques(graph, 2, 0.2))


# ----------------------------------------------------------------------
# Restricted peels on a multi-component lowering
# ----------------------------------------------------------------------


def _beside_a_far_component(graph: UncertainGraph) -> UncertainGraph:
    """A larger component first, then ``graph``: a peel restricted to
    ``graph``'s nodes runs on a lowering mostly made of non-members, and
    its member ids start past the far component's."""
    union = UncertainGraph()
    far = [f"far{i}" for i in range(14)]
    for i, u in enumerate(far):
        for j in range(i + 1, min(i + 6, len(far))):
            p = PROBABILITY_PALETTE[(i + j) % len(PROBABILITY_PALETTE)]
            union.add_edge(u, far[j], p)
    for u in graph:
        union.add_node(u)
    for u, v, p in graph.edges():
        union.add_edge(u, v, p)
    return union


@settings(max_examples=40, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, data=st.data())
def test_restricted_peels_equal_the_induced_subgraph_peels(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    union = _beside_a_far_component(graph)
    compiled = compile_graph(union)
    nodes = graph.nodes()
    subset = data.draw(
        st.lists(st.sampled_from(nodes), unique=True) if nodes
        else st.just([])
    )
    # Fixed nodes inside the members abort the peel when condemned;
    # fixed nodes outside them (here: the far component) never do.
    fixed = data.draw(st.sets(st.sampled_from(union.nodes()), max_size=3))
    for members in (nodes, subset):
        induced = union.induced_subgraph(members)
        oracle = topk_core_oracle(induced, k, tau, fixed)
        assert topk_peel(
            compiled, k, tau, members=members, fixed=fixed
        ) == oracle
        core = topk_core(
            union, k, tau, fixed=fixed, compiled=compiled, members=members
        )
        assert core.contains_fixed == (oracle is not None)
        assert core.nodes == (oracle or frozenset())
        assert topk_peel(
            compiled, k, tau, members=members
        ) == topk_core_oracle(induced, k, tau)
        assert survival_peel(
            compiled, k, tau, members=members
        ) == ktau_core_oracle(induced, k, tau)
    # Restricted peels never read or build the whole-graph level index.
    assert compiled._topk_levels == {}


@settings(max_examples=30, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, data=st.data())
def test_frontier_repeels_equal_the_induced_subgraph_peels(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    # The maintainer's pattern: the previous core is trusted, an edge
    # inside the small component goes, and the re-peel starts from its
    # endpoints only.
    edges = [(u, v) for u, v, _ in graph.edges()]
    if not edges:
        return
    union = _beside_a_far_component(graph)
    members = graph.nodes()
    core = ktau_core_oracle(union.induced_subgraph(members), k, tau)
    u, v = data.draw(st.sampled_from(edges))
    union.remove_edge(u, v)
    expected = ktau_core_oracle(union.induced_subgraph(members), k, tau)
    frontier = [w for w in (u, v) if w in core]
    assert survival_peel(
        compile_graph(union), k, tau, members=core, frontier=frontier
    ) == expected
