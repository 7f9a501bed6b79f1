"""Graphs and exact-equality assertions shared by the core test suites.

One graph strategy and a few fixed graphs feed the conformance matrix,
the parity suites and the lowering contract suites; the bit-identity
assertions compare a graph's rows or a search view with an
independently built one, field by field.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

from hypothesis import strategies as st

from repro import UncertainGraph
from repro.core.cut_pruning import induced_rows
from repro.core.kernel import (
    CompiledComponent,
    CutRows,
    derive_component_view,
)
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.deterministic.components import connected_components
from repro.deterministic.core_decomposition import core_numbers
from repro.uncertain.clique_prob import clique_probability
from repro.uncertain.graph import Node, node_sort_key
from repro.utils.validation import FLOAT_EPS, threshold_floor

#: Few distinct values, so one graph holds many duplicate probabilities,
#: plus deterministic edges and values on both sides of
#: ``STABLE_P_LIMIT = 1 - 1e-6``.
PROBABILITY_PALETTE = (
    0.25,
    0.4,
    0.4,
    0.5,
    0.7,
    0.9,
    1.0,
    1.0 - 1e-7,  # above the limit: stable, Eq. (6) skips the divide
    1.0 - 1e-5,  # below the limit: divided out in place
)


def labels(n: int, mixed: bool) -> list[Node]:
    """``n`` node labels; ``mixed`` makes every other one a string, which
    exercises the (type name, str) node order and graph-order dense ids."""
    if not mixed:
        return list(range(n))
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


def clique_edges(
    nodes: Iterable[Node], p: float
) -> list[tuple[Node, Node, float]]:
    return [(u, v, p) for u, v in itertools.combinations(nodes, 2)]


def two_cliques() -> UncertainGraph:
    """A 0.9 K4 and a 0.8 triangle: two components."""
    return UncertainGraph(
        clique_edges("abcd", 0.9) + clique_edges("xyz", 0.8)
    )


def straddle_graph() -> UncertainGraph:
    """Near-certain edges straddling STABLE_P_LIMIT, a deterministic
    triangle, a pendant and an isolated node: the Eq. (6) hazard zoo."""
    near = [1.0 - 1e-7, 1.0 - 1e-5, 1.0 - 1e-8, 1.0 - 1e-4, 1.0]
    pairs = itertools.combinations(["a", "b", "c", "d", 0], 2)
    graph = UncertainGraph([
        (u, v, near[i % len(near)]) for i, (u, v) in enumerate(pairs)
    ])
    graph.add_edge("a", "t1", 1.0)
    graph.add_edge("b", "t1", 1.0)
    graph.add_edge("t1", "pendant", 0.6)
    graph.add_node("lone")
    return graph


def hub_and_triangle() -> UncertainGraph:
    """Every edge at 0.6: a bisect-by-value removal in a sorted-list
    peel hits an arbitrary duplicate.  The star spokes die under the
    (Top_2, tau)-core, the triangle survives."""
    spokes = [("hub", s, 0.6) for s in ("s1", "s2", "s3", "t1")]
    return UncertainGraph(spokes + clique_edges(("t1", "t2", "t3"), 0.6))


def knife_edge_triangle() -> UncertainGraph:
    """A triangle whose product in one member order clears the floor of
    ``KNIFE_TAU`` and in another does not: decided in the order each
    search happened to meet it, brute force once kept ``{5, 8}`` and the
    MULE search ``{4, 8}`` beside ``{4, 5, 8}``; by the canonical
    product the triangle alone is maximal."""
    graph = UncertainGraph()
    graph.add_edge(4, 5, 0.9)
    graph.add_edge(4, 8, 0.4)
    graph.add_edge(5, 8, 0.9999999)
    return graph


KNIFE_TAU = 0.35999996436000004


def knife_edge_clique(probs: Sequence[float]) -> tuple[UncertainGraph, float]:
    """A clique of ``len(probs) + 1`` nodes whose edges at node 0 carry
    ``probs`` and whose other edges are 1.0, with the tau whose floor is
    exactly its canonical product, ``probs`` multiplied in order.

    Node 0's top-k product multiplies the same values ascending and a
    color budget descending; with ``probs`` in the other order either
    can land an ulp below the floor, though the clique clears it.
    """
    nodes = range(len(probs) + 1)
    graph = UncertainGraph(
        [(0, v, p) for v, p in zip(nodes[1:], probs)]
        + clique_edges(nodes[1:], 1.0)
    )
    product = clique_probability(graph, nodes)
    tau = product / (1.0 - FLOAT_EPS)
    while (floor := threshold_floor(tau)) != product:
        tau = math.nextafter(tau, 0.0 if floor > product else 1.0)
    return graph, tau

#: Relative offsets of tau around the value whose floor is a clique's
#: probability: far above float reassociation error (~1e-16), far below
#: the tolerance band (FLOAT_EPS).
STRADDLE = (1.0 - 1e-12, 1.0, 1.0 + 1e-12)


def seed_graph() -> UncertainGraph:
    """A four-node component and a lone edge: the single-mutation
    fixture of the row-maintenance rows."""
    return UncertainGraph([
        ("a", "b", 0.9), ("b", "c", 0.8), ("a", "c", 0.5), ("c", "d", 0.7),
        ("x", "y", 0.6),
    ])


@st.composite
def uncertain_graphs(draw: st.DrawFn) -> UncertainGraph:
    """3 to 12 nodes in two blocks with no edge between them
    (so most graphs have two or more components), palette probabilities,
    and sometimes an extra isolated node (a zero-width CSR row).

    The node count is drawn uniformly, so most examples are big enough
    to exercise the search, the cut and a restricted peel; the empty
    and one-node graphs are explicit rows of the conformance matrix."""
    n = draw(st.sampled_from(range(3, 13)))
    nodes = labels(n, draw(st.booleans()))
    split = draw(st.integers(min_value=0, max_value=len(nodes)))
    graph = UncertainGraph(nodes=nodes)
    for block in (nodes[:split], nodes[split:]):
        for u, v in itertools.combinations(block, 2):
            if draw(st.booleans()):
                p = draw(st.sampled_from(PROBABILITY_PALETTE))
                graph.add_edge(u, v, p)
    if draw(st.booleans()):
        graph.add_node("isolated")
    return graph


def lowering_view(
    compiled: CompiledGraph, members: Iterable[Node]
) -> CompiledComponent:
    """The search view of ``members``, built as a cut builds it: from
    the rows their ids induce in ``compiled``."""
    ids = sorted(compiled.index[u] for u in members)
    source = CutRows(
        [compiled.nodes[g] for g in ids],
        [compiled.sort_rank[g] for g in ids],
        induced_rows(compiled, ids),
    )
    return derive_component_view(source, range(len(ids)))


def assert_views_bit_identical(
    derived: CompiledComponent, compiled: CompiledComponent
) -> None:
    """Exact equality on every field the search kernel reads."""
    assert derived.nodes == compiled.nodes
    assert derived.adj == compiled.adj
    assert derived.full_mask == compiled.full_mask
    assert derived.rows == compiled.rows


def assert_rows_current(cpg: CompiledGraph, graph: UncertainGraph) -> None:
    """``cpg`` is a view over ``graph``'s own rows at its version, and
    those rows are the graph's: each live node's row equals one rebuilt
    from ``incident()`` in iteration order, each tombstone's is empty
    and outside the index, ``sort_rank`` equals a fresh ranking, the
    core numbers equal the graph's, and every component's search view
    equals one built from a cold copy's rows."""
    rows = cpg.rows
    assert rows is graph.id_rows()
    assert cpg.version == graph.version
    assert list(rows.index) == graph.nodes()
    n = cpg.n
    assert len(rows.gone) == len(rows.nbrs) == len(rows.probs) == n
    assert sorted(rows.index.values()) == list(rows.index.values())
    for u, i in rows.index.items():
        assert rows.labels[i] == u and not rows.gone[i]
        incident = graph.incident(u)
        assert list(rows.nbrs[i]) == [rows.index[v] for v in incident]
        assert list(rows.probs[i]) == list(incident.values())
    for i in set(range(n)) - set(rows.index.values()):
        assert rows.gone[i] and not rows.nbrs[i] and not rows.probs[i]
    ranked = sorted(range(n), key=lambda i: node_sort_key(rows.labels[i]))
    assert cpg.sort_rank == [ranked.index(i) for i in range(n)]
    core = cpg.core_ids()
    assert {u: core[i] for u, i in rows.index.items()} == core_numbers(graph)
    cold = compile_graph(graph.copy())
    for component in connected_components(graph):
        members = [u for u in graph if u in component]
        assert_views_bit_identical(
            lowering_view(cpg, members), lowering_view(cold, members)
        )
