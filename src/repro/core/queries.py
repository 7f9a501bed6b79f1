"""Query layer: targeted maximal-clique questions.

Downstream applications rarely want *all* maximal (k, tau)-cliques; they
ask focused questions: "which reliable groups contain this user?", "can
this candidate set be extended?", "is this set itself one of the answers?".
This module answers those without a full enumeration by reusing the
fixed-set variant of Algorithm 3 (the ``V_I`` parameter the paper
introduces exactly for anchored searches) and restricting the
set-enumeration to the anchor's neighborhood.

The functions here are one-shot wrappers over the session layer: each
call builds a throwaway :class:`~repro.core.session.PreparedGraph` and
delegates to the method of the same name.  An anchored query runs on
the graph's own lowering, which every query on the graph shares, so
only the first query on a graph pays for lowering it; callers issuing
repeated queries should still hold a session, which also caches each
anchored query's cut and search views.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.session import PreparedGraph
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "cliques_containing",
    "is_extendable",
    "containing_clique_exists",
]


def cliques_containing(
    graph: UncertainGraph,
    node: Node,
    k: int,
    tau: float,
) -> Iterator[frozenset[Node]]:
    """Yield every maximal (k, tau)-clique of ``graph`` containing ``node``.

    Restricts the search to the closed neighborhood of ``node``: any
    clique containing the node lives there, and any extender of such a
    clique is adjacent to the node, hence also lives there — so maximal
    cliques containing ``node`` are in exact bijection between the full
    graph and the neighborhood.  The neighborhood is further pruned
    with the anchored (Top_k, tau)-core (Algorithm 3's ``V_I``), which
    aborts immediately when the node itself cannot survive.
    """
    return PreparedGraph(graph).cliques_containing(node, k, tau)


def is_extendable(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    tau: float,
) -> bool:
    """Whether some single node can extend ``nodes`` to a larger
    tau-clique (the complement of the maximality condition)."""
    return PreparedGraph(graph).is_extendable(nodes, tau)


def containing_clique_exists(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    k: int,
    tau: float,
) -> bool:
    """Whether some maximal (k, tau)-clique contains all of ``nodes``.

    Equivalent to: ``nodes`` is a tau-clique and can be grown (possibly
    by zero steps) to size above ``k`` while keeping ``CPr >= tau``.
    Decided by an anchored search on the common neighborhood.
    """
    return PreparedGraph(graph).containing_clique_exists(nodes, k, tau)
