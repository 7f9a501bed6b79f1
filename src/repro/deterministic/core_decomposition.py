"""k-core decomposition of the deterministic graph (Batagelj-Zaversnik).

The paper's Algorithm 2 (``DPCore+``) needs the core number ``c_u`` of every
node as the truncation bound for the new DP, and the degeneracy ``delta``
(the maximum core number) is the quantity its ``O(m * delta)`` complexity is
stated in.  The implementation below is the classic O(m + n) bucket-based
peeling of Batagelj and Zaversnik [27], which also yields a degeneracy
ordering as a by-product.
"""

from __future__ import annotations

from typing import Collection, Hashable, Mapping, TypeVar

from repro.errors import ParameterError
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "core_numbers",
    "core_peel",
    "degeneracy",
    "degeneracy_ordering",
    "k_core",
]

_T = TypeVar("_T", bound=Hashable)


def _core_decomposition(
    graph: UncertainGraph,
) -> tuple[dict[Node, int], list[Node]]:
    """:func:`core_peel` of the graph's adjacency."""
    return core_peel({u: graph.incident(u) for u in graph})


def core_peel(
    adjacency: Mapping[_T, Collection[_T]],
) -> tuple[dict[_T, int], list[_T]]:
    """Bucket-based peeling: returns (core numbers, degeneracy ordering)
    of the graph whose node ``u`` has the neighbours ``adjacency[u]``.

    The ordering lists nodes in the sequence they were peeled, i.e. by
    non-decreasing "remaining degree"; it is a degeneracy ordering: each node
    has at most ``delta`` neighbors appearing later in the list.  Ties go
    by the adjacency's iteration orders alone.
    """
    degrees = {u: len(nbrs) for u, nbrs in adjacency.items()}
    if not degrees:
        return {}, []
    max_degree = max(degrees.values())
    buckets: list[list[_T]] = [[] for _ in range(max_degree + 1)]
    for u, d in degrees.items():
        buckets[d].append(u)

    core: dict[_T, int] = {}
    order: list[_T] = []
    remaining = dict(degrees)
    removed: set[_T] = set()
    current = 0
    # Each node is popped from a bucket at most once per degree decrement,
    # giving the O(m + n) total; stale bucket entries are skipped.
    pointer = 0
    while len(order) < len(degrees):
        if pointer > max_degree:
            break
        bucket = buckets[pointer]
        if not bucket:
            pointer += 1
            continue
        u = bucket.pop()
        if u in removed or remaining[u] != pointer:
            continue  # stale entry: u was re-bucketed at a lower degree
        current = max(current, pointer)
        core[u] = current
        order.append(u)
        removed.add(u)
        for v in adjacency[u]:
            if v in removed:
                continue
            remaining[v] -= 1
            buckets[remaining[v]].append(v)
            if remaining[v] < pointer:
                pointer = remaining[v]
    return core, order


def core_numbers(graph: UncertainGraph) -> dict[Node, int]:
    """Core number ``c_u`` of each node in the deterministic graph."""
    core, _ = _core_decomposition(graph)
    return core


def degeneracy(graph: UncertainGraph) -> int:
    """``delta`` — the maximum core number (0 for an empty/edgeless graph)."""
    core, _ = _core_decomposition(graph)
    if not core:
        return 0
    return max(core.values())


def degeneracy_ordering(graph: UncertainGraph) -> list[Node]:
    """A degeneracy ordering of the nodes (used by Bron-Kerbosch and RDS)."""
    _, order = _core_decomposition(graph)
    return order


def k_core(graph: UncertainGraph, k: int) -> set[Node]:
    """Nodes of the (deterministic) k-core: the maximal subgraph in which
    every node has degree at least ``k`` [22]."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    core, _ = _core_decomposition(graph)
    return {u for u, c in core.items() if c >= k}
