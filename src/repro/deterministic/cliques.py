"""Maximal clique enumeration on deterministic graphs (Bron-Kerbosch).

Uncertain (k, tau)-cliques are, in particular, cliques of the deterministic
graph ``~G``; the classic Bron-Kerbosch algorithm [40] with Tomita's greedy
pivoting [7] is the reference for how the set-enumeration search in
:mod:`repro.core.enumeration` generalises the deterministic case
(``tau = 0`` reduces one to the other, which the test suite checks).
"""

from __future__ import annotations

from typing import Iterator

from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["bron_kerbosch"]


def _pivot_expand(
    graph: UncertainGraph,
    clique: list[Node],
    candidates: set[Node],
    excluded: set[Node],
) -> Iterator[frozenset[Node]]:
    """Recursive Bron-Kerbosch step with Tomita's max-degree pivot."""
    if not candidates and not excluded:
        yield frozenset(clique)
        return
    # Pivot: the node of C + X with the most neighbors inside C.  Only
    # candidates outside N(pivot) need to be branched on.
    pivot = max(
        candidates | excluded,
        key=lambda u: sum(1 for v in graph.neighbors(u) if v in candidates),
    )
    pivot_nbrs = set(graph.neighbors(pivot))
    for u in list(candidates - pivot_nbrs):
        u_nbrs = set(graph.neighbors(u))
        clique.append(u)
        yield from _pivot_expand(
            graph, clique, candidates & u_nbrs, excluded & u_nbrs
        )
        clique.pop()
        candidates.discard(u)
        excluded.add(u)


def bron_kerbosch(graph: UncertainGraph) -> Iterator[frozenset[Node]]:
    """Yield all maximal cliques of the deterministic graph ``~G``."""
    yield from _pivot_expand(graph, [], set(graph.nodes()), set())

