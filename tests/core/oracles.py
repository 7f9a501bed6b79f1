"""Independent reference oracles for the search and the peels.

Each oracle is written from the definition, shares no code with the
library beyond the graph type, the node order and the tolerant
threshold test :func:`~repro.utils.validation.prob_at_least`, and is
slow on purpose: nothing is pruned, cached or compiled.

* :func:`mule_maximal_cliques` — the maximal (k, tau)-cliques by a
  MULE-style depth-first search (Mukherjee et al.): a maximal
  (k, tau)-clique is exactly an alpha-maximal clique with alpha = tau
  and more than ``k`` nodes, so the search enumerates the tau-maximal
  cliques with an incremental clique probability and keeps the large
  ones.  It reaches graphs that brute force over every subset cannot.
* :func:`topk_core_oracle` / :func:`ktau_core_oracle` — the
  (Top_k, tau)-core and the (k, tau)-core as naive fixpoints: drop
  every node that fails its rule on the current node set, all at once,
  until none does.  Both rules are monotone under node removal, so the
  greatest fixpoint is the peels' unique core.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable

from repro.core.prune_kernel import node_sort_key
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_at_least

__all__ = [
    "ktau_core_oracle",
    "mule_maximal_cliques",
    "tau_core_numbers_oracle",
    "topk_core_oracle",
]

#: ``(node, product of its edge probabilities to the current clique)``.
Extension = tuple[Node, float]

#: A peel rule's score of a node from its live edge probabilities and k.
Rule = Callable[[list[float], int], float]


def mule_maximal_cliques(
    graph: UncertainGraph, k: int, tau: float
) -> set[frozenset[Node]]:
    """The maximal (k, tau)-cliques of ``graph``.

    The search grows a tau-clique ``clique`` of probability ``prob``.
    ``later`` holds the nodes after the clique's last one in
    ``node_sort_key`` order that still extend it to a tau-clique,
    ``earlier`` the other extenders; each carries its product to the
    clique, so one multiplication tests an extension.  The clique is
    tau-maximal exactly when no node extends it.
    """
    found: set[frozenset[Node]] = set()

    def grow(
        clique: list[Node],
        prob: float,
        later: list[Extension],
        earlier: list[Extension],
    ) -> None:
        if not later and not earlier:
            if len(clique) > k:
                found.add(frozenset(clique))
            return
        for i, (u, pi_u) in enumerate(later):
            grown = prob * pi_u
            row = graph.incident(u)

            def still(pairs: list[Extension]) -> list[Extension]:
                kept = []
                for v, pi_v in pairs:
                    p = row.get(v)
                    if p is None:
                        continue
                    pi = pi_v * p
                    if prob_at_least(grown * pi, tau):
                        kept.append((v, pi))
                return kept

            grow(
                [*clique, u], grown, still(later[i + 1:]),
                still(earlier + later[:i]),
            )

    order = sorted(graph.nodes(), key=node_sort_key)
    grow([], 1.0, [(v, 1.0) for v in order], [])
    return found


def _top_k_product(probs: list[float], k: int) -> float:
    """The product of the ``k`` largest of ``probs`` (Definition 8), 0.0
    when there are fewer than ``k``, multiplied in ascending order."""
    if len(probs) < k:
        return 0.0
    return math.prod(sorted(probs)[len(probs) - k:])


def _at_least(probs: list[float], k: int) -> float:
    """``Pr(at least k of the independent edges exist)``, summed from
    the exact distribution of the edge count."""
    dist = [1.0]
    for p in probs:
        nxt = [0.0] * (len(dist) + 1)
        for j, q in enumerate(dist):
            nxt[j] += q * (1.0 - p)
            nxt[j + 1] += q * p
        dist = nxt
    return sum(dist[k:])


def _fixpoint(
    graph: UncertainGraph, score: Rule, k: int, tau: float
) -> set[Node]:
    alive = set(graph.nodes())
    while True:
        doomed = {
            u for u in alive
            if not prob_at_least(score([
                p for v, p in graph.incident(u).items() if v in alive
            ], k), tau)
        }
        if not doomed:
            return alive
        alive -= doomed


def topk_core_oracle(
    graph: UncertainGraph,
    k: int,
    tau: float,
    fixed: AbstractSet[Node] = frozenset(),
) -> frozenset[Node] | None:
    """The (Top_k, tau)-core (Definition 9), or ``None`` when it misses
    a ``fixed`` node of ``graph`` (Algorithm 3's ``V_I`` abort; fixed
    nodes outside ``graph`` never abort)."""
    core = _fixpoint(graph, _top_k_product, k, tau)
    if any(graph.has_node(u) and u not in core for u in fixed):
        return None
    return frozenset(core)


def ktau_core_oracle(graph: UncertainGraph, k: int, tau: float) -> set[Node]:
    """The (k, tau)-core (Definition 5): every node has at least ``k``
    neighbours in it with probability at least ``tau``."""
    return _fixpoint(graph, _at_least, k, tau)


def tau_core_numbers_oracle(
    graph: UncertainGraph, tau: float
) -> dict[Node, int]:
    """``xi_u`` (Definition 6): the largest ``k`` whose (k, tau)-core
    holds ``u``, one :func:`ktau_core_oracle` per ``k``."""
    xi = {u: 0 for u in graph}
    k = 1
    while core := ktau_core_oracle(graph, k, tau):
        for u in core:
            xi[u] = k
        k += 1
    return xi
