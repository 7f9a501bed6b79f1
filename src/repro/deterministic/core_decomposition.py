"""k-core decomposition of the deterministic graph (Batagelj-Zaversnik).

The paper's Algorithm 2 (``DPCore+``) needs the core number ``c_u`` of every
node as the truncation bound for the new DP, and the degeneracy ``delta``
(the maximum core number) is the quantity its ``O(m * delta)`` complexity is
stated in.  The implementation below is the classic O(m + n) bucket-based
peeling of Batagelj and Zaversnik [27], which also yields a degeneracy
ordering as a by-product.
"""

from __future__ import annotations

from typing import Collection, Sequence

from repro.errors import ParameterError
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "core_numbers",
    "core_peel",
    "degeneracy",
    "degeneracy_ordering",
    "k_core",
]


def _core_decomposition(
    graph: UncertainGraph,
) -> tuple[list[Node], list[int], list[int]]:
    """The graph's nodes, and :func:`core_peel` of its adjacency with
    node ``i`` standing for ``nodes[i]``."""
    nodes = list(graph)
    index = {u: i for i, u in enumerate(nodes)}
    core, order = core_peel(
        [[index[v] for v in graph.incident(u)] for u in nodes]
    )
    return nodes, core, order


def core_peel(rows: Sequence[Collection[int]]) -> tuple[list[int], list[int]]:
    """Bucket-based peeling: returns (core numbers, degeneracy ordering)
    of the graph whose node ``i`` has the neighbours ``rows[i]``.

    The ordering lists nodes in the sequence they were peeled, i.e. by
    non-decreasing "remaining degree"; it is a degeneracy ordering: each node
    has at most ``delta`` neighbors appearing later in the list.  Ties go
    by node index and the rows' iteration orders alone.
    """
    n = len(rows)
    remaining = [len(row) for row in rows]
    buckets: list[list[int]] = [
        [] for _ in range(max(remaining, default=0) + 1)
    ]
    for u, d in enumerate(remaining):
        buckets[d].append(u)
    core = [0] * n
    order: list[int] = []
    removed = bytearray(n)
    current = 0
    # Each node is pushed to a bucket once per degree decrement, giving
    # the O(m + n) total; stale bucket entries are skipped.
    pointer = 0
    while len(order) < n:
        bucket = buckets[pointer]
        if not bucket:
            pointer += 1
            continue
        u = bucket.pop()
        if removed[u] or remaining[u] != pointer:
            continue  # stale entry: u was re-bucketed at a lower degree
        if pointer > current:
            current = pointer
        core[u] = current
        order.append(u)
        removed[u] = 1
        for v in rows[u]:
            if removed[v]:
                continue
            d = remaining[v] - 1
            remaining[v] = d
            buckets[d].append(v)
            if d < pointer:
                pointer = d
    return core, order


def core_numbers(graph: UncertainGraph) -> dict[Node, int]:
    """Core number ``c_u`` of each node in the deterministic graph."""
    nodes, core, _ = _core_decomposition(graph)
    return dict(zip(nodes, core))


def degeneracy(graph: UncertainGraph) -> int:
    """``delta`` — the maximum core number (0 for an empty/edgeless graph)."""
    _, core, _ = _core_decomposition(graph)
    return max(core, default=0)


def degeneracy_ordering(graph: UncertainGraph) -> list[Node]:
    """A degeneracy ordering of the nodes (used by Bron-Kerbosch and RDS)."""
    nodes, _, order = _core_decomposition(graph)
    return [nodes[i] for i in order]


def k_core(graph: UncertainGraph, k: int) -> set[Node]:
    """Nodes of the (deterministic) k-core: the maximal subgraph in which
    every node has degree at least ``k`` [22]."""
    if k < 0:
        raise ParameterError(f"k must be non-negative, got {k}")
    nodes, core, _ = _core_decomposition(graph)
    return {u for u, c in zip(nodes, core) if c >= k}
