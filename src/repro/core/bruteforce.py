"""Brute-force reference implementations (test oracles).

Exponential-time but obviously-correct versions of everything the fast
algorithms compute.  They power the property-based tests: on random small
graphs, the optimized pipelines must agree with these exactly.
"""

from __future__ import annotations

import itertools

from repro.core.prune_kernel import node_sort_key
from repro.errors import ParameterError
from repro.uncertain.clique_prob import clique_probability, is_clique
from repro.uncertain.graph import Node, UncertainGraph
from repro.uncertain.possible_worlds import exact_degree_distribution
from repro.utils.validation import prob_at_least, validate_k, validate_tau

__all__ = [
    "brute_force_maximal_cliques",
    "brute_force_maximum_clique",
    "brute_force_tau_degree",
]

_MAX_NODES = 22


def brute_force_maximal_cliques(
    graph: UncertainGraph, k: int, tau: float
) -> set[frozenset[Node]]:
    """All maximal (k, tau)-cliques by testing every node subset.

    Only subsets of size ``k + 1`` and above are considered (Definition 2's
    strictly-greater size requirement).  Limited to graphs of at most
    22 nodes.

    Every set, a subset and each of its one-node extensions alike, is
    decided by its canonical product: ``CPr`` over its members sorted by
    :func:`~repro.core.prune_kernel.node_sort_key`.  One product per set
    keeps a knife-edge clique and its subsets consistent: a product in
    another member order can land on the other side of the floor.
    """
    validate_k(k)
    tau = validate_tau(tau)
    nodes = sorted(graph.nodes(), key=node_sort_key)
    if len(nodes) > _MAX_NODES:
        raise ParameterError(
            f"brute force is limited to {_MAX_NODES} nodes, "
            f"graph has {len(nodes)}"
        )

    def tau_clique(members: tuple[Node, ...]) -> bool:
        return is_clique(graph, members) and prob_at_least(
            clique_probability(graph, sorted(members, key=node_sort_key)),
            tau,
        )

    found: set[frozenset[Node]] = set()
    for size in range(k + 1, len(nodes) + 1):
        for subset in itertools.combinations(nodes, size):
            if tau_clique(subset) and not any(
                tau_clique((*subset, v))
                for v in graph.neighbors(subset[0])
                if v not in subset
            ):
                found.add(frozenset(subset))
    return found


def brute_force_maximum_clique(
    graph: UncertainGraph, k: int, tau: float
) -> frozenset[Node] | None:
    """The canonical maximum (k, tau)-clique, or ``None`` when none exists.

    Scans subset sizes from large to small so the first hit is a maximum.
    The nodes are sorted by :func:`~repro.core.prune_kernel.node_sort_key`,
    so combinations come in lexicographic order and the first hit is the
    maximum clique whose sorted members form the lexicographically
    smallest sequence — the tie-break MaxUC+ applies.
    """
    validate_k(k)
    tau = validate_tau(tau)
    nodes = sorted(graph.nodes(), key=node_sort_key)
    if len(nodes) > _MAX_NODES:
        raise ParameterError(
            f"brute force is limited to {_MAX_NODES} nodes, "
            f"graph has {len(nodes)}"
        )
    for size in range(len(nodes), k, -1):
        for subset in itertools.combinations(nodes, size):
            if is_clique(graph, subset) and prob_at_least(
                clique_probability(graph, subset), tau
            ):
                return frozenset(subset)
    return None


def brute_force_tau_degree(
    graph: UncertainGraph, node: Node, tau: float
) -> int:
    """tau-degree from the exact degree distribution (Definition 4)."""
    tau = validate_tau(tau)
    dist = exact_degree_distribution(graph, node)
    survival = 1.0
    best = 0
    for r in range(1, len(dist)):
        survival -= dist[r - 1]
        if prob_at_least(survival, tau):
            best = r
        else:
            break
    return best
