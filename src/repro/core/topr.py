"""Top-r maximal (k, tau)-clique search.

The related-work model of Zou et al. [39] — which the paper's maximal
(k, tau)-clique model simplifies — asks for the *r largest* maximal
cliques rather than all of them.  This module provides that query on top
of the paper's machinery: one MUCE++ enumeration (every prune, the cut
and the in-search peel), whose cliques are ranked.  Maximality is a
global property, so no clique can be skipped before it is enumerated.

This is an extension beyond the paper's pseudo-code (its Section VII
discusses the model); it demonstrates how the pruning framework composes.
"""

from __future__ import annotations

import heapq

from repro.core.enumeration import maximal_cliques
from repro.errors import ParameterError
from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["top_r_maximal_cliques"]


def _clique_order_key(clique: frozenset[Node]) -> tuple[int, list[str]]:
    """Deterministic ranking: larger first, then lexicographic members."""
    return (-len(clique), sorted(str(v) for v in clique))


def top_r_maximal_cliques(
    graph: UncertainGraph,
    r: int,
    k: int,
    tau: float,
) -> list[frozenset[Node]]:
    """The ``r`` largest maximal (k, tau)-cliques, largest first.

    Ties are broken deterministically by the lexicographic order of the
    member names, so repeated runs return identical lists.  Fewer than
    ``r`` cliques are returned when the graph has fewer maximal
    (k, tau)-cliques.

    Implementation: the ``r`` smallest of one session enumeration
    (:func:`~repro.core.enumeration.maximal_cliques`) under the ranking
    key, kept in a bounded heap.
    """
    if r <= 0:
        raise ParameterError(f"r must be positive, got {r}")
    return heapq.nsmallest(
        r, maximal_cliques(graph, k, tau), key=_clique_order_key
    )
