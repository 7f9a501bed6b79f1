"""Maximal (k, tau)-clique enumeration: MUCE, MUCE+, MUCE++ (Section IV).

All three algorithms share one backtracking core — the set-enumeration
search of Mukherjee et al. [18], [19] — and differ in how aggressively the
graph is pruned before and during the search:

================  ==================  ====================  ===============
algorithm         preprocessing       cut optimization      in-search prune
================  ==================  ====================  ===============
``muce``          none                no                    no
``muce_plus``     (k, tau)-core       yes                   TopKCore
``muce_plus_plus`` (Top_k, tau)-core  yes                   TopKCore
================  ==================  ====================  ===============

The search state is the classic ``(R, C, X)`` triple: ``R`` the current
tau-clique, ``C`` candidates that can still extend it, ``X`` nodes that can
extend it but were already explored on another branch.  Because the clique
probability is monotone non-increasing under node addition, ``R`` is maximal
exactly when ``C`` and ``X`` are both empty, and candidate filtering is a
single probability product per node.  For every candidate ``v`` we maintain
``pi_v = prod of p(v, w) for w in R`` incrementally, so the filter
``CPr(R + {u} + {v}) >= tau`` costs O(1).

Size semantics: per Definition 2 a (k, tau)-clique has ``|C| > k``; the
implementation therefore uses ``min_size = k + 1`` where the paper's
pseudo-code loosely writes ``>= k`` (see DESIGN.md).

The branch-size prune (Algorithm 4, line 19) skips both the recursion *and*
the ``X`` update for a candidate ``u`` whose branch cannot reach
``min_size`` — sound because the same bound certifies that ``u`` cannot
extend any future (k, tau)-clique of that subtree either.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, Literal

# KERNEL_COMPONENT_LIMIT and the pre-search peels are re-exported module
# attributes by contract: the session/pipeline layer reads them from
# *this* module at call time, and regression tests monkeypatch them (the
# kernel size limit, the peels for the laziness tripwire).
from repro.core.kernel import KERNEL_COMPONENT_LIMIT, node_sort_key
from repro.core.ktau_core import dp_core_plus
from repro.core.topk_core import topk_core_arrays
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.timing import Stopwatch

__all__ = [
    "EnumerationStats",
    "Engine",
    "maximal_cliques",
    "muce",
    "muce_plus",
    "muce_plus_plus",
]

PruningRule = Literal["topk", "ktau", "none"]

#: Search-core selector, shared by every query kind: ``"pivot"`` runs the
#: compiled kernel of :mod:`repro.core.kernel` (absorbing Tomita pivoting
#: for enumeration, :func:`~repro.core.kernel.maximum_compiled` for
#: MaxUC+); ``"legacy"`` the dict-of-dicts recursion that follows the
#: paper's pseudo-code, the reference the kernel is checked against.
#: Pivot enumeration emits the identical *set* of cliques with
#: bit-identical per-clique probabilities, in pivot branch order; the
#: compiled MaxUC+ is bit-identical to legacy in result and counters
#: (see ``tests/core/test_kernel_parity``).
Engine = Literal["pivot", "legacy"]


@dataclass
class EnumerationStats:
    """Counters exposed for the experiment harness (Figs. 3 and 4).

    ``timings`` rides along as a *non-field* attribute (attached in
    ``__post_init__``) holding per-phase wall-clock seconds — prune /
    cut / compile / search.  Keeping it out of the dataclass fields is
    deliberate: wall clocks are nondeterministic, and both the parity
    suite and the bench ``identical_output`` check compare stats via
    ``==`` / ``asdict``, which must see the deterministic counters only.
    """

    nodes_after_pruning: int = 0
    components: int = 0
    cuts_found: int = 0
    cut_edges_removed: int = 0
    search_calls: int = 0
    insearch_prunes: int = 0
    branch_size_prunes: int = 0
    pivot_branches: int = 0
    pivot_skipped: int = 0
    cliques: int = 0

    def __post_init__(self) -> None:
        self.timings: Stopwatch = Stopwatch()


#: Single source of the node order lives in the kernel's compile step;
#: these aliases keep the historical names importable.
_node_sort_key = node_sort_key


def _ordered(nodes: Iterator[Node] | list[Node]) -> list[Node]:
    """Nodes in the library's lexicographic order (Algorithm 4, line 16).

    Only the legacy recursion pays this per-component sort at search
    time; the kernel's compile step establishes the same order once and
    reuses it for ids, candidate iteration, and decompilation.
    """
    return sorted(nodes, key=_node_sort_key)


def maximal_cliques(
    graph: UncertainGraph,
    k: int,
    tau: float,
    pruning: PruningRule = "topk",
    cut: bool = True,
    insearch: bool = True,
    stats: EnumerationStats | None = None,
    engine: Engine = "pivot",
) -> Iterator[frozenset[Node]]:
    """Enumerate all maximal (k, tau)-cliques of ``graph``.

    Parameters
    ----------
    pruning:
        preprocessing rule — ``"topk"`` ((Top_k, tau)-core, Lemma 4),
        ``"ktau"`` ((k, tau)-core via DPCore+, Lemma 1) or ``"none"``.
    cut:
        apply the cut-based optimization to the pruned graph (Lemma 5).
    insearch:
        run the TopKCore prune inside the recursion (Algorithm 4 lines
        12-15).
    stats:
        optional mutable counter object filled in while enumerating.
    engine:
        ``"pivot"`` (default) compiles each component to dense ids and
        bitmask adjacency and searches with absorbing Tomita pivoting —
        the same *set* of cliques with bit-identical per-clique
        probabilities, in pivot branch order; ``"legacy"`` is the
        dict-of-dicts recursion that follows Algorithm 4, the reference
        the pivot engine is checked against.

    Yields each maximal clique exactly once as a frozenset of nodes.

    This is a generator function, so *nothing* — validation, pruning, cut
    optimization, component splitting — happens until the first
    ``next()``; a regression test pins that laziness.

    One-shot convenience wrapper around the staged pipeline.  The
    whole-graph lowering lives on ``graph``, so repeated calls on one
    graph reuse it; queries that should also reuse the prune / cut /
    view artifacts should hold a :class:`repro.core.session.PreparedGraph`
    and call its :meth:`~repro.core.session.PreparedGraph.
    maximal_cliques` (outputs are bit-identical either way).
    """
    # Imported lazily: the session layer imports this module for the
    # stats types and the legacy recursion, so a top-level import would
    # be a cycle.
    from repro.core.session import PreparedGraph

    return PreparedGraph(graph).maximal_cliques(
        k, tau, pruning=pruning, cut=cut, insearch=insearch, stats=stats,
        engine=engine,
    )


#: The in-search peel is skipped for candidate sets smaller than this —
#: on small sets the branch-size prune catches the same dead branches at a
#: fraction of the cost (engineering deviation from Algorithm 4's bare
#: ``|R| < k`` condition; the peel is an optional optimization, so output
#: is unaffected).
_INSEARCH_MIN_CANDIDATES = 24


def _muc(
    component: UncertainGraph,
    clique: list[Node],
    clique_prob: float,
    candidates: list[tuple[Node, float]],
    excluded: list[tuple[Node, float]],
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """The recursive ``MUC`` procedure (Algorithm 4, lines 7-22).

    ``candidates`` and ``excluded`` hold ``(node, pi_node)`` pairs where
    ``pi_node`` is the product of probabilities from the node to every
    member of ``clique``; the invariant ``clique_prob * pi_node >= tau``
    holds for every entry.  ``tau_floor`` is the tolerance-adjusted
    threshold computed once by the driver.
    """
    stats.search_calls += 1
    if not candidates and not excluded:
        if len(clique) >= min_size:
            stats.cliques += 1
            yield frozenset(clique)
        return

    if (
        insearch
        and len(clique) < min_size
        and len(candidates) >= _INSEARCH_MIN_CANDIDATES
    ):
        # Lines 12-15: any maximal clique inside R + C lives in the
        # (Top_k, tau)-core of the induced subgraph, so shrink C to it.
        # (Small candidate sets skip the peel: the branch-size prune below
        # handles them more cheaply — an engineering deviation from the
        # pseudo-code's bare |R| < k condition; see the module docstring.)
        pruned = _insearch_topk_prune(
            component, clique, candidates, k, tau_floor, min_size
        )
        if pruned is None:
            stats.insearch_prunes += 1
            return
        if len(pruned) < len(candidates):
            stats.insearch_prunes += 1
            candidates = pruned

    remaining = candidates
    excluded = list(excluded)
    index = 0
    while index < len(remaining):
        u, pi_u = remaining[index]
        index += 1
        new_prob = clique_prob * pi_u
        clique.append(u)
        incident = component.incident(u)
        get = incident.get
        new_candidates = []
        for v, pi_v in remaining[index:]:
            p = get(v)
            if p is not None:
                pi = pi_v * p
                # Hot path: tau_floor comes from threshold_floor(tau), so
                # this is prob_at_least without the per-edge call.
                if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_candidates.append((v, pi))
        if len(clique) + len(new_candidates) >= min_size:
            new_excluded = []
            for v, pi_v in excluded:
                p = get(v)
                if p is not None:
                    pi = pi_v * p
                    # Same precomputed-floor fast path as the C filter.
                    if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_excluded.append((v, pi))
            yield from _muc(
                component, clique, new_prob, new_candidates, new_excluded,
                k, tau_floor, min_size, insearch, stats,
            )
            clique.pop()
            excluded.append((u, pi_u))
        else:
            # Line 19: the branch cannot reach min_size; the same bound
            # certifies u cannot extend any later clique of this subtree,
            # so u is dropped entirely (no X update needed).
            stats.branch_size_prunes += 1
            clique.pop()


def _insearch_topk_prune(
    component: UncertainGraph,
    clique: list[Node],
    candidates: list[tuple[Node, float]],
    k: int,
    tau_floor: float,
    min_size: int,
) -> list[tuple[Node, float]] | None:
    """(Top_k, tau)-core peel of the subgraph induced by R + C, in place.

    Specialised version of :func:`repro.core.topk_core.topk_core` for the
    in-search prune: works directly on the component's adjacency (no
    subgraph object is materialised) and returns the filtered candidate
    list, or ``None`` when the branch is dead — a clique member was peeled
    (Algorithm 3's ``V_I`` abort) or fewer than ``min_size`` nodes remain.
    """
    member_set = set(clique)
    member_set.update(v for v, _ in candidates)
    fixed = set(clique)

    incident = {u: component.incident(u) for u in member_set}
    probs: dict[Node, list[float]] = {}
    queue: list[Node] = []
    removed: set[Node] = set()
    # Worklist seeding order cannot change the peel's fixpoint, only the
    # visit order of an order-free set computation.
    for u in member_set:  # repro-lint: ignore[RPL009]
        inc = incident[u]
        plist = sorted(p for v, p in inc.items() if v in member_set)
        probs[u] = plist
        if not _pi_k_ok(plist, k, tau_floor):
            if u in fixed:
                return None
            queue.append(u)
            removed.add(u)

    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        inc_u = incident[u]
        for v in inc_u:
            if v not in member_set or v in removed:
                continue
            plist = probs[v]
            idx = bisect.bisect_left(plist, inc_u[v])
            plist.pop(idx)
            if not _pi_k_ok(plist, k, tau_floor):
                if v in fixed:
                    return None
                queue.append(v)
                removed.add(v)

    if len(member_set) - len(removed) < min_size:
        return None
    if not removed:
        return candidates
    return [(v, pi) for v, pi in candidates if v not in removed]


def _pi_k_ok(sorted_probs: list[float], k: int, tau_floor: float) -> bool:
    """Whether the top-k product of an ascending probability list clears
    the threshold."""
    if len(sorted_probs) < k:
        return False
    product = 1.0
    for p in sorted_probs[len(sorted_probs) - k :]:
        product *= p
    # Hot path: raw compare against the precomputed threshold_floor(tau).
    return product >= tau_floor  # repro-lint: ignore[RPL001]


def muce(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
    engine: Engine = "pivot",
) -> Iterator[frozenset[Node]]:
    """The Mukherjee et al. [18], [19] baseline: set-enumeration search with
    monotonicity and branch-size pruning but no core-based pruning."""
    return maximal_cliques(
        graph, k, tau, pruning="none", cut=False, insearch=False,
        stats=stats, engine=engine,
    )


def muce_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
    engine: Engine = "pivot",
) -> Iterator[frozenset[Node]]:
    """Algorithm 4 with the (k, tau)-core pruning rule (``MUCE+``)."""
    return maximal_cliques(
        graph, k, tau, pruning="ktau", cut=True, insearch=True, stats=stats,
        engine=engine,
    )


def muce_plus_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
    engine: Engine = "pivot",
) -> Iterator[frozenset[Node]]:
    """Algorithm 4 with the (Top_k, tau)-core pruning rule (``MUCE++``)."""
    return maximal_cliques(
        graph, k, tau, pruning="topk", cut=True, insearch=True, stats=stats,
        engine=engine,
    )
