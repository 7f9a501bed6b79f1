"""The per-k (Top_k, tau) level index on the graph's lowering.

After the second whole-graph :func:`~repro.core.prune_kernel.topk_peel`
at one ``k``, the :class:`~repro.core.prune_kernel.CompiledGraph` keeps
that core peeled on in ascending top-k product order, with each node's
level; a later whole-graph peel at that ``k``, at or above the index's
base threshold, is a bisect.  This suite pins that:

* every lookup returns exactly the peel's set — against the naive
  fixpoint oracle and a fresh compile — over shuffled tau sequences, a re-base at a
  lower tau, and taus placed exactly at a node's level;
* the first whole-graph peel at ``k`` only records ``k``, the second
  builds the index;
* ``members=`` and ``fixed=`` peels neither read nor write it;
* every delta patch drops it, and copies and pickles of the graph start
  without one;
* a ``maximal_cliques`` generator paused between yields is untouched by
  another session building and reading the index.
"""

from __future__ import annotations

import itertools
import math
import pickle
from dataclasses import asdict
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core import pipeline
from repro.core.enumeration import EnumerationStats
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph, compile_graph, topk_peel
from repro.core.topk_core import topk_core
from repro.utils.validation import threshold_floor
from tests.conftest import current_lowering, make_random_graph
from tests.core.oracles import topk_core_oracle
from tests.core.support import PROBABILITY_PALETTE, labels
from tests.core.test_session import _cliques_with_bridges

TAUS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.8)


@st.composite
def level_graphs(draw: st.DrawFn) -> UncertainGraph:
    """Dense small graphs: duplicate probabilities, ``p == 1.0`` edges,
    mixed int / str labels and, sometimes, an isolated node."""
    nodes = labels(draw(st.integers(min_value=0, max_value=14)),
                   draw(st.booleans()))
    graph = UncertainGraph(nodes=nodes)
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.integers(min_value=0, max_value=3)):
            graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    if draw(st.booleans()):
        graph.add_node("isolated")
    return graph


def _tau_at(level: float) -> float:
    """A tau whose threshold floor is exactly ``level`` when one exists
    (within a few ulps of the inverse), else ``level`` itself."""
    tau = level / (1.0 - 1e-9)
    for _ in range(8):
        floor = threshold_floor(tau)
        if floor == level:
            return tau if tau <= 1.0 else level
        tau = math.nextafter(tau, math.inf if floor < level else 0.0)
    return level


def _check(graph: UncertainGraph, cpg: CompiledGraph, k: int,
           tau: float) -> frozenset[Any]:
    answer = topk_peel(cpg, k, tau)
    assert answer == topk_core_oracle(graph, k, tau)
    assert answer == topk_peel(compile_graph(graph), k, tau)
    return answer


def _index(cpg: CompiledGraph, k: int) -> Any:
    return cpg._topk_levels.get(k)


# ----------------------------------------------------------------------
# Exactness
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    graph=level_graphs(),
    k=st.integers(min_value=1, max_value=4),
    order=st.permutations(TAUS),
    data=st.data(),
)
def test_lookups_equal_the_peel(
    graph: UncertainGraph, k: int, order: list[float], data: st.DataObject
) -> None:
    cpg = compile_graph(graph)
    # Build at 0.5, then descend to 0.2: a re-base, then the shuffle.
    for tau in (0.5, 0.5, 0.2, *order):
        _check(graph, cpg, k, tau)
    index = _index(cpg, k)
    assert index is not None
    assert index[0] == threshold_floor(0.05)
    _, ids, levels, _ = index
    assert levels == sorted(levels)
    assert sorted(ids) == sorted(set(ids))
    if levels:
        # Taus exactly at a node's level, and one ulp either side.
        for level in data.draw(st.lists(st.sampled_from(levels),
                                        min_size=1, max_size=3)):
            for tau in (_tau_at(level), level,
                        math.nextafter(level, 0.0)):
                if 0.0 < tau <= 1.0:
                    _check(graph, cpg, k, tau)


def test_level_boundary_is_inclusive() -> None:
    graph = make_random_graph(24, 0.6, seed=11)
    cpg = compile_graph(graph)
    _check(graph, cpg, 3, 0.05)
    _check(graph, cpg, 3, 0.05)
    _, ids, levels, _ = _index(cpg, 3)
    hits = 0
    for level in sorted(set(levels)):
        tau = _tau_at(level)
        if threshold_floor(tau) != level:
            continue
        hits += 1
        # The node at exactly this level survives: the peel compares
        # ``>=`` against the floor.
        assert cpg.nodes[ids[levels.index(level)]] in _check(
            graph, cpg, 3, tau
        )
    assert hits


# ----------------------------------------------------------------------
# When it is built and read
# ----------------------------------------------------------------------


def test_second_whole_graph_peel_builds_the_index() -> None:
    graph = make_random_graph(30, 0.5, seed=5)
    cpg = compile_graph(graph)
    _check(graph, cpg, 3, 0.2)
    assert cpg._topk_levels == {3: None}
    _check(graph, cpg, 3, 0.3)
    base, ids, levels, _ = _index(cpg, 3)
    assert base == threshold_floor(0.3)
    # Exactly the core at the building tau, each at a level >= its floor.
    assert {cpg.nodes[i] for i in ids} == topk_peel(compile_graph(graph),
                                                     3, 0.3)
    assert all(level >= base for level in levels)
    # A lookup leaves the index as it is; a lower tau re-bases it.
    _check(graph, cpg, 3, 0.5)
    assert _index(cpg, 3)[0] == base
    _check(graph, cpg, 3, 0.1)
    assert _index(cpg, 3)[0] == threshold_floor(0.1)
    # Other k values keep their own entries.
    _check(graph, cpg, 2, 0.2)
    assert cpg._topk_levels[2] is None


def test_a_lookup_runs_no_peel() -> None:
    graph = make_random_graph(30, 0.5, seed=5)
    cpg = compile_graph(graph)
    topk_peel(cpg, 3, 0.2)
    topk_peel(cpg, 3, 0.2)
    # A deliberately wrong index is what a whole-graph call answers from.
    cpg._topk_levels[3] = (threshold_floor(0.2), [0, 1], [0.3, 0.6], {})
    assert topk_peel(cpg, 3, 0.5) == {cpg.nodes[1]}
    assert topk_core(graph, 3, 0.25, compiled=cpg).nodes == set(cpg.nodes[:2])


def test_restricted_peels_neither_read_nor_write_the_index() -> None:
    graph = make_random_graph(30, 0.5, seed=7)
    nodes = graph.nodes()
    members = nodes[: len(nodes) // 2 + 3]
    induced = graph.induced_subgraph(members)
    cpg = compile_graph(graph)
    for _ in range(3):
        assert topk_peel(
            cpg, 3, 0.2, members=members
        ) == topk_core_oracle(induced, 3, 0.2)
        topk_core(graph, 3, 0.2, fixed={nodes[0]}, compiled=cpg)
    assert cpg._topk_levels == {}

    # Wrong index: no node survives any floor.  None of these read it.
    cpg._topk_levels[3] = (0.0, [], [], {})
    oracle = topk_core_oracle(graph, 3, 0.2)
    assert oracle
    assert topk_peel(cpg, 3, 0.2, members=nodes) == oracle
    for anchor in (next(iter(oracle)), nodes[-1]):
        core = topk_core(graph, 3, 0.2, fixed={anchor}, compiled=cpg)
        assert core.contains_fixed == (anchor in oracle)
        assert core.nodes == (oracle if anchor in oracle else frozenset())
    assert cpg._topk_levels == {3: (0.0, [], [], {})}


# ----------------------------------------------------------------------
# Lifetime
# ----------------------------------------------------------------------


def _non_edge(graph: UncertainGraph) -> tuple[Any, Any]:
    for a, b in itertools.combinations(graph.nodes(), 2):
        if not graph.has_edge(a, b):
            return a, b
    raise AssertionError("complete graph")


@pytest.mark.parametrize(
    "op",
    ["set_probability", "add_edge", "remove_edge", "add_node", "remove_node"],
)
def test_every_delta_drops_the_index(op: str) -> None:
    graph = make_random_graph(30, 0.5, seed=9)
    before, _ = pipeline.lowering(graph)
    topk_peel(before, 3, 0.2)
    topk_peel(before, 3, 0.2)
    assert _index(before, 3) is not None
    u, v, _ = next(iter(graph.edges()))
    a, b = _non_edge(graph)
    {
        "set_probability": lambda: graph.set_probability(u, v, 0.99),
        "add_edge": lambda: graph.add_edge(a, b, 0.95),
        "remove_edge": lambda: graph.remove_edge(u, v),
        "add_node": lambda: graph.add_node("fresh"),
        "remove_node": lambda: graph.remove_node(u),
    }[op]()
    after, how = pipeline.lowering(graph)
    assert after is before and how == "delta"
    assert after._topk_levels == {}
    cold = compile_graph(graph.copy())
    for tau in (0.2, 0.3, 0.1, 0.2):
        assert topk_peel(after, 3, tau) == topk_peel(cold, 3, tau)


def test_copies_and_pickles_start_without_an_index() -> None:
    graph = make_random_graph(30, 0.5, seed=9)
    for tau in (0.2, 0.3):
        # Fresh sessions: a warm one would seed its second peel.
        list(PreparedGraph(graph).maximal_cliques(3, tau))
    cpg = current_lowering(graph)
    assert _index(cpg, 3) is not None
    for derived in (graph.copy(), graph.induced_subgraph(graph.nodes()),
                    pickle.loads(pickle.dumps(graph))):
        assert derived._lowering is None
        list(PreparedGraph(derived).maximal_cliques(3, 0.3))
        assert current_lowering(derived)._topk_levels == {3: None}


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------


def test_fresh_sessions_over_one_graph_answer_like_cold_ones() -> None:
    graph = make_random_graph(40, 0.4, seed=21)
    for k, tau in [(2, 0.3), (2, 0.2), (2, 0.5), (3, 0.1), (2, 0.05),
                   (3, 0.2), (3, 0.1), (2, 0.3)]:
        shared, cold = PreparedGraph(graph), PreparedGraph(graph.copy())
        answers = []
        for session in (shared, cold):
            enum_stats, max_stats = EnumerationStats(), MaximumSearchStats()
            cliques = list(session.maximal_cliques(k, tau, stats=enum_stats))
            best = session.max_uc_plus(k, tau, stats=max_stats)
            answers.append((cliques, best, asdict(enum_stats),
                            asdict(max_stats)))
        assert answers[0] == answers[1]
    assert _index(current_lowering(graph), 2) is not None


def test_paused_generator_keeps_its_answer_while_another_session_peels(
) -> None:
    expected = list(PreparedGraph(_cliques_with_bridges())
                    .maximal_cliques(2, 0.3))
    graph = _cliques_with_bridges()
    cliques = PreparedGraph(graph).maximal_cliques(2, 0.3)
    first = next(cliques)
    for tau in (0.5, 0.6, 0.55, 0.2):
        list(PreparedGraph(graph).maximal_cliques(2, tau))
    assert _index(current_lowering(graph), 2) is not None
    assert [first, *cliques] == expected
