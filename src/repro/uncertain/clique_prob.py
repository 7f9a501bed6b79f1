"""Clique probability and the (k, tau)-clique predicates (Definitions 1-3).

These are the semantic ground truth for the whole library: the fast
enumeration and search algorithms are tested against brute-force loops built
from the predicates in this module.

Each set is decided by one *canonical* product: its edges multiplied
pair by pair over its members sorted by
:func:`~repro.uncertain.graph.node_sort_key`.  Floating-point products
depend on their order, so a product in the caller's member order could
put a set whose probability lies at tau's floor on either side of it,
and a set and its one-node extension could disagree with each other.
"""

from __future__ import annotations

from typing import Iterable

from repro.uncertain.graph import Node, UncertainGraph, node_sort_key
from repro.utils.validation import prob_at_least, validate_k, validate_tau

__all__ = [
    "clique_probability",
    "is_clique",
    "is_tau_clique",
    "is_k_tau_clique",
    "is_maximal_k_tau_clique",
]


def is_clique(graph: UncertainGraph, nodes: Iterable[Node]) -> bool:
    """Whether ``nodes`` form a clique in the deterministic graph ``~G``.

    The empty set and singletons are cliques.
    """
    members = list(dict.fromkeys(nodes))
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if not graph.has_edge(u, v):
                return False
    return True


def clique_probability(graph: UncertainGraph, nodes: Iterable[Node]) -> float:
    """``CPr(C, G)`` — Definition 1: the product of probabilities of all
    edges whose endpoints both lie in ``C``, in canonical order.

    Note this is defined for *any* node set: if ``C`` is not a clique in
    ``~G`` the product simply skips the missing pairs, exactly as in the
    paper's Eq. (2).  Callers that need the "is a clique with probability at
    least tau" semantics should combine this with :func:`is_clique` (or use
    :func:`is_tau_clique`, which does both).
    """
    members = sorted(dict.fromkeys(nodes), key=node_sort_key)
    prob = 1.0
    for i, u in enumerate(members):
        incident = graph.incident(u)
        for v in members[i + 1 :]:
            p = incident.get(v)
            if p is not None:
                prob *= p
    return prob


def is_tau_clique(
    graph: UncertainGraph, nodes: Iterable[Node], tau: float
) -> bool:
    """Whether ``nodes`` is a clique in ``~G`` with ``CPr >= tau``, its
    canonical product deciding."""
    tau = validate_tau(tau)
    members = list(nodes)
    return is_clique(graph, members) and prob_at_least(
        clique_probability(graph, members), tau
    )


def is_k_tau_clique(
    graph: UncertainGraph, nodes: Iterable[Node], k: int, tau: float
) -> bool:
    """Definition 2: ``|C| > k`` and ``C`` is a tau-clique."""
    validate_k(k)
    members = list(dict.fromkeys(nodes))
    if len(members) <= k:
        return False
    return is_tau_clique(graph, members, tau)


def is_maximal_k_tau_clique(
    graph: UncertainGraph, nodes: Iterable[Node], k: int, tau: float
) -> bool:
    """Definition 3: a (k, tau)-clique not contained in a larger one.

    Because ``CPr`` is monotone non-increasing under node addition, checking
    single-node extensions suffices: if no ``C + {v}`` is a tau-clique then
    no superset of ``C`` is.  Each extension is decided by its own
    canonical product, so the verdict does not depend on the order
    ``nodes`` lists the members in.
    """
    members = list(dict.fromkeys(nodes))
    if not is_k_tau_clique(graph, members, k, tau):
        return False
    # members is non-empty here: |C| > k >= 0 was just checked.
    member_set = set(members)
    # Only common neighbors of every member can extend the clique; iterate
    # the neighborhood of an arbitrary member and test each candidate.
    anchor = members[0]
    tau = validate_tau(tau)
    for v in graph.neighbors(anchor):
        if v in member_set:
            continue
        if is_tau_clique(graph, members + [v], tau):
            return False
    return True
