"""Independent reference oracles for the search and the peels.

Each oracle is written from the definition, shares no code with the
library beyond the graph type, the node order and the tolerant
threshold test :func:`~repro.utils.validation.prob_at_least` and the
clique probability :func:`~repro.uncertain.clique_prob.clique_probability`,
and is slow on purpose: nothing is pruned, cached or compiled.

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
* :func:`basic_color_bound`, :func:`advanced_color_bound_one` and
  :func:`advanced_color_bound_two` — §V's color bounds (the basic
  ``col(C)``, Eq. 8's ``r-bar`` and Eq. 9's ``s-bar``) on a dict
  coloring, each the cap on how many candidates can still join a clique
  ``R``; :func:`prefix_budget` is the budget both advanced bounds share,
  the one :func:`repro.core.kernel._prefix_budget` computes against the
  precomputed floor.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable, Iterable, Sequence

from repro.core.prune_kernel import node_sort_key
from repro.uncertain.clique_prob import clique_probability
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_at_least

__all__ = [
    "advanced_color_bound_one",
    "advanced_color_bound_two",
    "basic_color_bound",
    "ktau_core_oracle",
    "mule_maximal_cliques",
    "prefix_budget",
    "tau_core_numbers_oracle",
    "topk_core_oracle",
]

#: Relative distance from an incremental clique product inside which
#: the canonical product decides: far above the reassociation error of
#: a product of a few hundred factors (< 1e-13), far below the
#: tolerance of ``prob_at_least``.
_NEAR = 1e-12

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

    An extension is decided as
    :func:`~repro.core.bruteforce.brute_force_maximal_cliques` decides
    it, by the grown set's canonical product (``CPr`` over its members
    sorted by ``node_sort_key``): the incremental product stands for it
    wherever the two cannot fall on different sides of the floor.
    """
    found: set[frozenset[Node]] = set()

    def at_least(value: float, members: list[Node]) -> bool:
        """Whether the clique ``members``, of incremental product
        ``value``, clears tau; within :data:`_NEAR` of the floor its
        canonical product decides."""
        high = prob_at_least(value * (1.0 + _NEAR), tau)
        if high == prob_at_least(value * (1.0 - _NEAR), tau):
            return high
        canonical = sorted(members, key=node_sort_key)
        return prob_at_least(clique_probability(graph, canonical), tau)

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
                    if at_least(grown * pi, [*clique, u, v]):
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


def basic_color_bound(
    colors: dict[Node, int], candidates: Iterable[Node]
) -> int:
    """``col(C)``: the number of distinct colors among the candidates."""
    return len({colors[v] for v in candidates})


def prefix_budget(values: list[float], clique_prob: float, tau: float) -> int:
    """Longest prefix of descending ``values`` whose product times
    ``clique_prob`` stays at least ``tau``."""
    count = 0
    running = clique_prob
    for value in values:
        running *= value
        if not prob_at_least(running, tau):
            break
        count += 1
    return count


def advanced_color_bound_one(
    colors: dict[Node, int],
    candidates: Sequence[tuple[Node, float]],
    clique_prob: float,
    tau: float,
) -> int:
    """``r-bar`` of Eq. (8): at most one candidate per color joins, and
    the joiners' ``pi_v(R)`` multiply into ``CPr(R)``, so the best case
    takes the per-color maxima in decreasing order.  ``candidates``
    holds ``(node, pi_node)`` pairs."""
    best_per_color: dict[int, float] = {}
    for v, pi in candidates:
        color = colors[v]
        if pi > best_per_color.get(color, 0.0):
            best_per_color[color] = pi
    values = sorted(best_per_color.values(), reverse=True)
    return prefix_budget(values, clique_prob, tau)


def advanced_color_bound_two(
    graph: UncertainGraph,
    colors: dict[Node, int],
    clique: Sequence[Node],
    candidates: Sequence[tuple[Node, float]],
    clique_prob: float,
    tau: float,
) -> int:
    """``s-bar`` of Eq. (9): the least per-member budget ``r_u``, each
    color class adding at most its largest edge at ``u``; the color
    count when the clique is empty."""
    if not clique:
        return basic_color_bound(colors, (v for v, _ in candidates))
    budgets = []
    for u in clique:
        incident = graph.incident(u)
        best_per_color: dict[int, float] = {}
        for v, _ in candidates:
            p = incident.get(v)
            if p is None:
                continue  # v cannot join anyway; ignore for u's budget
            color = colors[v]
            if p > best_per_color.get(color, 0.0):
                best_per_color[color] = p
        values = sorted(best_per_color.values(), reverse=True)
        budgets.append(prefix_budget(values, clique_prob, tau))
    return min(budgets)
