"""Graphs and exact-equality assertions shared by the core test suites.

One graph strategy and a few fixed graphs feed the conformance matrix,
the parity suites and the lowering contract suites; the bit-identity
assertions compare a lowering or a search view with an independently
built one, field by field.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from hypothesis import strategies as st

from repro import UncertainGraph
from repro.core.cut_pruning import induced_rows
from repro.core.kernel import (
    CompiledComponent,
    CutRows,
    derive_component_view,
)
from repro.core.prune_kernel import CompiledGraph
from repro.uncertain.graph import Node

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


def seed_graph() -> UncertainGraph:
    """A four-node component and a lone edge: the delta patch's
    single-op fixture."""
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
    assert list(derived.row_offsets) == list(compiled.row_offsets)
    assert list(derived.nbr_ids) == list(compiled.nbr_ids)
    assert list(derived.nbr_probs) == list(compiled.nbr_probs)


def component_members(compiled: CompiledGraph) -> list[list[Node]]:
    """Each connected component's labels in id order, read from the
    lowering's own (fully mapped) rows."""
    compiled._finish_lowering()
    rf = compiled.row_offsets
    seen = bytearray(compiled.n)
    members: list[list[Node]] = []
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


def assert_bit_identical(a: CompiledGraph, b: CompiledGraph) -> None:
    """Exact equality of two lowerings: labels, version, the
    insertion-order CSR with its exact float sequences, every
    component's search view, the fully mapped ids and the core numbers.

    ``a`` may be partly mapped: its views are derived before either side
    is fully lowered, so its lazily mapped rows are read as they stand.
    """
    assert a.version == b.version
    assert a.nodes == b.nodes
    assert a.index == b.index
    assert a.sort_rank == b.sort_rank
    assert a.row_offsets == b.row_offsets
    assert a.nbr_probs == b.nbr_probs
    for members in component_members(b):
        assert_views_bit_identical(
            lowering_view(a, members), lowering_view(b, members)
        )
    a._finish_lowering()
    assert a.nbr_labels is None and b.nbr_labels is None
    assert a.nbr_ids == b.nbr_ids
    assert list(a.core_ids()) == list(b.core_ids())
