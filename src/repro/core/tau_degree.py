"""tau-degrees of uncertain-graph nodes: both DP algorithms (Section III-A).

Two dynamic programs compute the same quantity by different routes:

* the **old DP** of Bonchi et al. [16] builds the exact degree distribution
  ``Pr(d_u = i)`` via Eq. (3) and derives the tau-degree by a cumulative
  scan — ``O(d_u * tau_deg)`` per node, ``O(m * d_max)`` overall;
* the paper's **new DP** (Algorithm 1) builds the survival probabilities
  ``Pr(d_u >= i)`` directly via Eq. (5), truncated at the node's core number
  ``c_u`` — ``O(d_u * truncated_tau_deg)`` per node, ``O(m * delta)``
  overall, because the truncated tau-degree never exceeds the degeneracy.

The peels run both DPs, and their O(tau_deg) *edge-deletion updates*
(Eqs. 4 and 6), in place over the compiled arrays of
:mod:`repro.core.prune_kernel` (``distribution_peel`` and
``survival_peel``); this module keeps the per-node forms the public
tau-degree functions use.

Numerical note: the deletion updates divide by ``1 - p``, which is
ill-conditioned for ``p`` near 1 and undefined at ``p == 1`` (a legal
probability).  Above ``STABLE_P_LIMIT`` the peels recompute the node's
state from scratch instead — a cheap, rare fallback that keeps the fast
path exact.
"""

from __future__ import annotations

from typing import Sequence

from repro.deterministic.core_decomposition import core_numbers
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_at_least, validate_tau

__all__ = [
    "degree_distribution_dp",
    "survival_dp",
    "tau_degree",
    "all_tau_degrees",
    "truncated_tau_degree",
    "tau_degree_from_distribution",
    "tau_degree_from_survival",
    "STABLE_P_LIMIT",
]

#: The peels' deletion updates recompute from scratch for edge
#: probabilities above this.
STABLE_P_LIMIT = 1.0 - 1e-6


# ----------------------------------------------------------------------
# Old DP of Bonchi et al. [16]: the full degree distribution (Eq. 3)
# ----------------------------------------------------------------------

def degree_distribution_dp(probs: Sequence[float]) -> list[float]:
    """``[Pr(d = 0), ..., Pr(d = len(probs))]`` for independent edges.

    Implements the recurrence ``X(h, i) = p_h X(h-1, i-1) +
    (1 - p_h) X(h-1, i)`` with a single rolling array (descending ``i`` so
    each in-place write only reads not-yet-overwritten ``h-1`` values).
    """
    dist = [1.0] + [0.0] * len(probs)
    for h, p in enumerate(probs, start=1):
        q = 1.0 - p
        for i in range(h, 0, -1):
            dist[i] = p * dist[i - 1] + q * dist[i]
        dist[0] *= q
    return dist


def tau_degree_from_distribution(dist: Sequence[float], tau: float) -> int:
    """Largest ``r`` with ``Pr(d >= r) >= tau`` given ``Pr(d = i)`` values.

    Follows the paper's iterative derivation: start from ``Pr(d >= 0) = 1``
    and subtract point masses until the survival probability drops below
    ``tau``.
    """
    tau = validate_tau(tau)
    survival = 1.0
    r = 0
    for i in range(len(dist) - 1):
        survival -= dist[i]
        if not prob_at_least(survival, tau):
            break
        r = i + 1
    return r


# ----------------------------------------------------------------------
# New DP (Algorithm 1): survival probabilities Pr(d >= i), truncated (Eq. 5)
# ----------------------------------------------------------------------

def survival_dp(probs: Sequence[float], cap: int) -> list[float]:
    """``[Pr(d >= 0), ..., Pr(d >= min(cap, len(probs)))]`` directly.

    Implements Eq. (5): ``Y(h, i) = p_h Y(h-1, i-1) + (1 - p_h) Y(h-1, i)``
    with initial states ``Y(0, 0) = 1`` and ``Y(0, i) = 0`` for ``i >= 1``,
    tracking only columns ``i <= cap`` — the truncation that turns the
    ``O(m * d_max)`` bound into ``O(m * delta)`` when ``cap`` is the core
    number.
    """
    limit = min(cap, len(probs))
    row = [1.0] + [0.0] * limit
    for h, p in enumerate(probs, start=1):
        top = min(h, limit)
        for i in range(top, 0, -1):
            row[i] = p * row[i - 1] + (1.0 - p) * row[i]
        # row[0] stays 1: Pr(d >= 0) = 1 for every h.
    return row


def tau_degree_from_survival(row: Sequence[float], tau: float) -> int:
    """Largest ``i`` with ``row[i] >= tau`` (``row[i] = Pr(d >= i)``)."""
    tau = validate_tau(tau)
    r = 0
    for i in range(1, len(row)):
        if prob_at_least(row[i], tau):
            r = i
        else:
            break
    return r


# ----------------------------------------------------------------------
# Node-level conveniences
# ----------------------------------------------------------------------

def tau_degree(graph: UncertainGraph, node: Node, tau: float) -> int:
    """``tau-deg(u, G)`` (Definition 4) via the old DP."""
    dist = degree_distribution_dp(list(graph.incident(node).values()))
    return tau_degree_from_distribution(dist, tau)


def all_tau_degrees(graph: UncertainGraph, tau: float) -> dict[Node, int]:
    """tau-degrees of every node (old DP, fresh per node)."""
    return {u: tau_degree(graph, u, tau) for u in graph}


def truncated_tau_degree(
    graph: UncertainGraph,
    node: Node,
    tau: float,
    core_number: int | None = None,
) -> int:
    """``min(c_u, tau-deg(u))`` (Definition 7) via Algorithm 1.

    ``core_number`` may be supplied to avoid recomputing the whole core
    decomposition when the caller already has it.
    """
    if core_number is None:
        core_number = core_numbers(graph).get(node, 0)
    row = survival_dp(list(graph.incident(node).values()), core_number)
    return tau_degree_from_survival(row, tau)
