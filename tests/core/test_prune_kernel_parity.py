"""Randomized parity: the compiled prune kernel vs the legacy peels.

The arrays engine (:mod:`repro.core.prune_kernel`) promises the *same
set*, not an approximation: verified peeling converges to the unique
maximal fixpoint regardless of peel order, so every peel — ``dp_core``,
``dp_core_plus``, ``topk_core`` — must return exactly the legacy answer
on every graph.  The generated graphs deliberately stress the known
hazards of the flat-array lowering:

* deterministic edges (``p == 1.0``) and probabilities straddling
  ``STABLE_P_LIMIT`` on both sides — ``1 - 1e-7`` takes the stable
  (no-divide) branch, ``1 - 1e-5`` the in-place Eq. (6) division;
* isolated nodes (rows of width zero in the CSR);
* non-integer labels mixed with integers (the dense-id compile must
  respect the graph's own iteration order, not sortability);
* seeded peels (``members=``) versus the legacy induced-subgraph route;
* ``fixed=`` abort parity for Algorithm 3's early exit.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import UncertainGraph
from repro.core.ktau_core import dp_core, dp_core_plus
from repro.core.prune_kernel import (
    compile_graph,
    distribution_peel,
    survival_peel,
    topk_peel,
)
from repro.core.session import PreparedGraph
from repro.core.topk_core import topk_core, topk_core_arrays
from repro.deterministic.core_decomposition import core_numbers

# The palette forces duplicate probabilities, deterministic edges, and
# values on both sides of STABLE_P_LIMIT = 1 - 1e-6 in one graph.
PROBABILITY_PALETTE = (
    0.3,
    0.5,
    0.5,
    0.8,
    1.0,
    1.0 - 1e-7,  # above the limit: stable, Eq. (6) skips the divide
    1.0 - 1e-5,  # below the limit: divided out in place
)
TAUS = (0.05, 0.2, 0.5)


def _labels(n: int, mixed: bool) -> list[object]:
    if not mixed:
        return list(range(n))
    # Half ints, half strings: dense ids must follow graph order.
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


@st.composite
def prune_graphs(draw: st.DrawFn) -> UncertainGraph:
    n = draw(st.integers(min_value=0, max_value=12))
    mixed = draw(st.booleans())
    nodes = _labels(n, mixed)
    graph = UncertainGraph(nodes=nodes)
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    if draw(st.booleans()):
        # A guaranteed isolated node: a zero-width CSR row.
        graph.add_node("isolated")
    return graph


@settings(max_examples=50, deadline=None)
@given(
    graph=prune_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_peel_engines_identical(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    compiled = compile_graph(graph)
    assert dp_core(graph, k, tau, compiled=compiled) == dp_core(
        graph, k, tau, engine="legacy"
    )
    assert dp_core_plus(graph, k, tau, compiled=compiled) == dp_core_plus(
        graph, k, tau, engine="legacy"
    )
    arrays = topk_core(graph, k, tau, compiled=compiled)
    legacy = topk_core(graph, k, tau, engine="legacy")
    assert arrays.nodes == legacy.nodes
    assert arrays.contains_fixed == legacy.contains_fixed


@settings(max_examples=40, deadline=None)
@given(graph=prune_graphs())
def test_compiled_core_ids_match_core_numbers(graph: UncertainGraph) -> None:
    compiled = compile_graph(graph)
    lazy = dict(zip(compiled.nodes, compiled.core_ids()))
    assert lazy == core_numbers(graph)


@settings(max_examples=30, deadline=None)
@given(
    graph=prune_graphs(),
    k=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from(TAUS),
    data=st.data(),
)
def test_seeded_peel_matches_induced_subgraph(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    nodes = graph.nodes()
    members = data.draw(st.sets(st.sampled_from(nodes)) if nodes else st.just(set()))
    induced = graph.induced_subgraph(members)
    compiled = compile_graph(graph)
    assert survival_peel(compiled, k, tau, members=members) == dp_core_plus(
        induced, k, tau, engine="legacy"
    )
    seeded = topk_peel(compiled, k, tau, members=members)
    assert seeded == topk_core(induced, k, tau, engine="legacy").nodes


@settings(max_examples=30, deadline=None)
@given(
    graph=prune_graphs(),
    k=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from(TAUS),
    data=st.data(),
)
def test_fixed_abort_parity(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    nodes = graph.nodes()
    fixed = data.draw(
        st.sets(st.sampled_from(nodes), min_size=1) if nodes else st.just(set())
    )
    arrays = topk_core(graph, k, tau, fixed=fixed, compiled=compile_graph(graph))
    legacy = topk_core(graph, k, tau, fixed=fixed, engine="legacy")
    assert arrays.nodes == legacy.nodes
    assert arrays.contains_fixed == legacy.contains_fixed


def _straddle_graph() -> UncertainGraph:
    """A clique of near-certain edges straddling the stable limit, plus
    a deterministic triangle and a pendant — the Eq. (6) hazard zoo."""
    graph = UncertainGraph()
    near = [1.0 - 1e-7, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-4, 1.0]
    clique = ["a", "b", "c", "d", 0]
    for i, (u, v) in enumerate(itertools.combinations(clique, 2)):
        graph.add_edge(u, v, near[i % len(near)])
    graph.add_edge("a", "t1", 1.0)
    graph.add_edge("b", "t1", 1.0)
    graph.add_edge("t1", "pendant", 0.6)
    graph.add_node("lone")
    return graph


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("tau", [0.05, 0.5, 0.9])
def test_stable_limit_straddle_parity(k: int, tau: float) -> None:
    graph = _straddle_graph()
    compiled = compile_graph(graph)
    assert dp_core_plus(graph, k, tau, compiled=compiled) == dp_core_plus(
        graph, k, tau, engine="legacy"
    )
    assert dp_core(graph, k, tau, compiled=compiled) == dp_core(
        graph, k, tau, engine="legacy"
    )
    arrays = topk_core(graph, k, tau, compiled=compiled)
    assert arrays.nodes == topk_core(graph, k, tau, engine="legacy").nodes


def test_artifact_reuse_across_peels() -> None:
    # One compile serves every peel at every (k, tau) — the session's
    # sharing pattern — and repeated replays stay bit-identical.
    graph = _straddle_graph()
    compiled = compile_graph(graph)
    for k, tau in [(1, 0.05), (2, 0.5), (3, 0.2), (2, 0.5)]:
        fresh = compile_graph(graph)
        assert survival_peel(compiled, k, tau) == survival_peel(fresh, k, tau)
        assert distribution_peel(compiled, k, tau) == distribution_peel(
            fresh, k, tau
        )
        assert topk_peel(compiled, k, tau) == topk_peel(fresh, k, tau)
    assert compiled.version == graph.version


def test_members_requires_arrays_engine() -> None:
    graph = _straddle_graph()
    with pytest.raises(ValueError, match="members"):
        dp_core(graph, 2, 0.2, engine="legacy", members={"a"})
    with pytest.raises(ValueError, match="members"):
        dp_core_plus(graph, 2, 0.2, engine="legacy", members={"a"})


def test_topk_core_arrays_members_none_never_aborts() -> None:
    graph = _straddle_graph()
    result = topk_core_arrays(graph, 2, 0.2)
    assert result == topk_core(graph, 2, 0.2, engine="legacy").nodes


def test_session_shares_one_compile_across_prune_stages() -> None:
    graph = _straddle_graph()
    session = PreparedGraph(graph)
    cold = list(session.maximal_cliques(2, 0.2))
    before = session.cache_info()["misses"]
    warm = list(session.maximal_cliques(2, 0.2))
    assert cold == warm
    assert session.cache_info()["misses"] == before  # all hits on replay
    assert session.cache_info()["full_compiles"] == 1
    # Mutation bumps the version; the artifacts rebuild and still agree.
    session.graph.add_edge("pendant", "lone", 0.9)
    fresh = list(session.maximal_cliques(2, 0.2))
    from repro.core.enumeration import maximal_cliques

    assert fresh == list(maximal_cliques(graph, 2, 0.2))
