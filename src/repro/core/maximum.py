"""Maximum (k, tau)-clique search: MaxUC, MaxRDS and MaxUC+ (Section V).

All three return one largest (k, tau)-clique (or ``None`` when the graph
has none); they differ in their pruning machinery:

* :func:`max_uc` — branch-and-bound over the same set-enumeration tree as
  the enumerator, pruning only with the candidate-set-size bound
  ``|R| + |C|``;
* :func:`max_rds` — the Miao et al. [21] baseline: Russian Doll Search
  (Ostergard [44]) adapted to tau-cliques.  Subproblem ``i`` searches the
  suffix ``{v_i, ..., v_n}`` of a fixed ordering and may improve on
  subproblem ``i + 1`` by at most one node, which both caps the work per
  subproblem and supplies the ``c[j]`` suffix bounds;
* :func:`max_uc_plus` — the paper's algorithm: (Top_k, tau)-core
  preprocessing, cut optimization, in-search TopKCore pruning, and the
  three color-based upper bounds of :mod:`repro.core.bounds` applied
  cheapest-first (basic, then advanced I, then advanced II).

Size semantics follow Definition 2: a valid answer has more than ``k``
nodes, so searches start from an incumbent size of ``k`` — except
MaxUC+, which starts from a greedy lower bound (see :func:`max_uc_plus`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

from repro.core.kernel import node_sort_key
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.timing import Stopwatch
from repro.utils.validation import (
    prob_at_least,
    threshold_floor,
    validate_k,
    validate_tau,
)

__all__ = [
    "MaximumSearchStats",
    "maximum_clique",
    "max_uc",
    "max_rds",
    "max_uc_plus",
]


@dataclass
class MaximumSearchStats:
    """Counters exposed for the experiment harness (Fig. 5).

    ``timings`` rides along as a *non-field* attribute (attached in
    ``__post_init__``) holding per-phase wall-clock seconds; keeping it
    out of the fields keeps ``asdict``/``==`` over the deterministic
    counters only (the parity suite and the bench check compare those).

    ``lower_bound`` (MaxUC+ only) is the greedy clique size
    ``max_c s_c`` that seeded the incumbent at ``lower_bound - 1``, or 0
    when every graph component's greedy clique had at most ``k + 1``
    nodes and the search started from ``k``.  It is cached with the cut,
    so a warm run reports the cold run's value.
    """

    search_calls: int = 0
    size_bound_prunes: int = 0
    basic_color_prunes: int = 0
    advanced_one_prunes: int = 0
    advanced_two_prunes: int = 0
    insearch_prunes: int = 0
    pivot_branches: int = 0
    pivot_skipped: int = 0
    best_size: int = 0
    lower_bound: int = 0

    def __post_init__(self) -> None:
        self.timings: Stopwatch = Stopwatch()


# ----------------------------------------------------------------------
# MaxUC: candidate-set-size bound only
# ----------------------------------------------------------------------

def max_uc(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: MaximumSearchStats | None = None,
) -> frozenset[Node] | None:
    """Maximum (k, tau)-clique with only the ``|R| + |C|`` bound."""
    validate_k(k)
    tau = validate_tau(tau)
    stats = stats if stats is not None else MaximumSearchStats()
    min_size = k + 1
    tau_floor = threshold_floor(tau)

    best: list[Node] | None = None
    best_size = k  # incumbent: anything <= k nodes does not count

    def search(
        clique: list[Node],
        clique_prob: float,
        candidates: list[tuple[Node, float]],
    ) -> None:
        nonlocal best, best_size
        stats.search_calls += 1
        if len(clique) > best_size:
            best = list(clique)
            best_size = len(clique)
        index = 0
        while index < len(candidates):
            if len(clique) + len(candidates) - index <= best_size:
                stats.size_bound_prunes += 1
                return
            u, pi_u = candidates[index]
            index += 1
            new_prob = clique_prob * pi_u
            incident = graph.incident(u)
            new_candidates = []
            for v, pi_v in candidates[index:]:
                p = incident.get(v)
                if p is None:
                    continue
                pi = pi_v * p
                # Hot path: tau_floor = threshold_floor(tau) fast path.
                if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_candidates.append((v, pi))
            clique.append(u)
            search(clique, new_prob, new_candidates)
            clique.pop()

    ordered = sorted(graph.nodes(), key=node_sort_key)
    search([], 1.0, [(v, 1.0) for v in ordered])
    stats.best_size = best_size if best is not None else 0
    if best is None or len(best) < min_size:
        return None
    return frozenset(best)


# ----------------------------------------------------------------------
# MaxRDS: Russian Doll Search baseline (Miao et al. [21])
# ----------------------------------------------------------------------

def max_rds(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: MaximumSearchStats | None = None,
) -> frozenset[Node] | None:
    """Maximum (k, tau)-clique via Russian Doll Search.

    Nodes are processed in their natural order (as the Miao et al.
    baseline does); subproblem ``i`` looks for tau-cliques containing
    ``v_i`` inside the suffix ``{v_i, ..., v_n}``.  Since a maximum tau-clique of suffix ``i``
    either avoids ``v_i`` (size ``c[i+1]``) or loses ``v_i`` to give a
    tau-clique of suffix ``i + 1`` (size ``<= c[i+1] + 1``), each
    subproblem only ever hunts for one specific target size and stops at
    the first witness.
    """
    validate_k(k)
    tau = validate_tau(tau)
    stats = stats if stats is not None else MaximumSearchStats()
    min_size = k + 1
    tau_floor = threshold_floor(tau)

    order = sorted(graph.nodes(), key=node_sort_key)
    position = {v: i for i, v in enumerate(order)}
    n = len(order)
    c = [0] * (n + 1)
    best: list[Node] | None = None

    for i in range(n - 1, -1, -1):
        v = order[i]
        target = c[i + 1] + 1
        found = False

        def search(
            clique: list[Node],
            clique_prob: float,
            candidates: list[tuple[Node, float]],
        ) -> None:
            nonlocal best, found
            stats.search_calls += 1
            if found:
                return
            if best is None or len(clique) > len(best):
                best = list(clique)
            if len(clique) >= target:
                found = True
                return
            index = 0
            while index < len(candidates) and not found:
                if len(clique) + len(candidates) - index < target:
                    stats.size_bound_prunes += 1
                    return
                u, pi_u = candidates[index]
                index += 1
                # Suffix bound: everything after u lives in suffix
                # pos(u) + 1, so the extension cannot beat c[pos(u) + 1].
                if len(clique) + 1 + c[position[u] + 1] < target:
                    stats.size_bound_prunes += 1
                    return
                new_prob = clique_prob * pi_u
                incident = graph.incident(u)
                new_candidates = []
                for w, pi_w in candidates[index:]:
                    p = incident.get(w)
                    if p is None:
                        continue
                    pi = pi_w * p
                    # Hot path: tau_floor = threshold_floor(tau) fast path.
                    if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_candidates.append((w, pi))
                clique.append(u)
                search(clique, new_prob, new_candidates)
                clique.pop()

        initial = []
        for w, p in sorted(
            graph.incident(v).items(), key=lambda item: position[item[0]]
        ):
            if position[w] > i and prob_at_least(p, tau):
                initial.append((w, p))
        search([v], 1.0, initial)
        c[i] = c[i + 1] + (1 if found else 0)

    stats.best_size = len(best) if best is not None else 0
    if best is None or len(best) < min_size:
        return None
    return frozenset(best)


# ----------------------------------------------------------------------
# MaxUC+: the paper's algorithm with all three color bounds
# ----------------------------------------------------------------------

def max_uc_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: MaximumSearchStats | None = None,
    use_advanced_one: bool = True,
    use_advanced_two: bool = True,
    insearch: bool = True,
) -> frozenset[Node] | None:
    """Maximum (k, tau)-clique with core/cut pruning and color bounds.

    The ``use_advanced_*`` and ``insearch`` switches exist for the
    ablation benchmarks; the defaults reproduce the paper's ``MaxUC+``.
    The per-component search runs on the compiled kernel
    (:func:`repro.core.kernel.maximum_compiled`), with the three color
    bounds of :mod:`repro.core.bounds` in their compiled form.  The
    branch-and-bound's DFS-first output depends on branch order, so the
    search does not pivot and the pivot counters stay zero.

    Incumbent first: per graph component a greedy tau-clique of ``s_c``
    nodes is grown over the (Top_k, tau)-core, and when ``s_c > k + 1``
    the cut runs at ``s_c - 1`` instead of ``k`` (Lemmas 4 and 5 keep
    every clique of ``s_c`` or more nodes); the branch-and-bound starts
    from incumbent ``max_c s_c - 1`` (``stats.lower_bound``).  Of several
    maximum cliques the answer is the canonical one: its members, sorted
    by :func:`~repro.core.kernel.node_sort_key`, form the
    lexicographically smallest sequence — the one
    :func:`~repro.core.bruteforce.brute_force_maximum_clique` returns.

    One-shot convenience wrapper around the staged pipeline.  The
    whole-graph lowering lives on ``graph``, so repeated calls on one
    graph reuse it; queries that should also reuse the prune / cut /
    view artifacts should hold a :class:`repro.core.session.PreparedGraph`
    and call its :meth:`~repro.core.session.PreparedGraph.max_uc_plus`
    (outputs are bit-identical either way).
    """
    # Imported lazily: the session layer imports this module for the
    # stats type, so a top-level import would be a cycle.
    from repro.core.session import PreparedGraph

    return PreparedGraph(graph).max_uc_plus(
        k, tau, stats=stats, use_advanced_one=use_advanced_one,
        use_advanced_two=use_advanced_two, insearch=insearch,
    )


Algorithm = Literal["max_uc", "max_rds", "max_uc_plus"]

_ALGORITHMS = {
    "max_uc": max_uc,
    "max_rds": max_rds,
    "max_uc_plus": max_uc_plus,
}


def maximum_clique(
    graph: UncertainGraph,
    k: int,
    tau: float,
    algorithm: Algorithm = "max_uc_plus",
    stats: MaximumSearchStats | None = None,
) -> frozenset[Node] | None:
    """Front door: find one maximum (k, tau)-clique with the chosen
    algorithm (default: the paper's ``MaxUC+``)."""
    try:
        impl = _ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; "
            f"expected one of {sorted(_ALGORITHMS)}"
        ) from None
    return impl(graph, k, tau, stats=stats)
