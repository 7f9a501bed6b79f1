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
single probability product per node.  For every candidate ``v`` the search
maintains ``pi_v = prod of p(v, w) for w in R`` incrementally, so the filter
``CPr(R + {u} + {v}) >= tau`` costs O(1).  The search runs on the compiled
kernel of :mod:`repro.core.kernel` (Algorithm 4's ``MUC`` recursion with
absorbing Tomita pivoting); ``tests/core/oracles.py`` keeps a plain
MULE-style recursion as the test oracle.

Size semantics: per Definition 2 a (k, tau)-clique has ``|C| > k``; the
implementation therefore uses ``min_size = k + 1`` where the paper's
pseudo-code loosely writes ``>= k`` (see DESIGN.md).

The branch-size prune (Algorithm 4, line 19) skips both the recursion *and*
the ``X`` update for a candidate ``u`` whose branch cannot reach
``min_size`` — sound because the same bound certifies that ``u`` cannot
extend any future (k, tau)-clique of that subtree either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Literal

# KERNEL_COMPONENT_LIMIT and the pre-search peels are re-exported module
# attributes by contract: the session/pipeline layer reads them from
# *this* module at call time, and regression tests monkeypatch them (the
# kernel size limit, the peels for the laziness tripwire).
from repro.core.kernel import KERNEL_COMPONENT_LIMIT
from repro.core.ktau_core import dp_core_plus
from repro.core.topk_core import topk_core_arrays
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.timing import Stopwatch

__all__ = [
    "EnumerationStats",
    "maximal_cliques",
    "muce",
    "muce_plus",
    "muce_plus_plus",
]

PruningRule = Literal["topk", "ktau", "none"]


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


def maximal_cliques(
    graph: UncertainGraph,
    k: int,
    tau: float,
    pruning: PruningRule = "topk",
    cut: bool = True,
    insearch: bool = True,
    stats: EnumerationStats | None = None,
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

    Each search component is searched on a view with dense ids and
    bitmask adjacency by the compiled kernel, with absorbing Tomita
    pivoting, so cliques come out in pivot branch order.  Yields each
    maximal clique exactly once as a frozenset of nodes.

    This is a generator function, so *nothing* — validation, pruning, cut
    optimization, component splitting — happens until the first
    ``next()``; a regression test pins that laziness.

    One-shot convenience wrapper around the staged pipeline.  The
    whole-graph lowering lives on ``graph``, so repeated calls on one
    graph reuse it; queries that should also reuse the prune / cut /
    view artifacts and each graph component's answers should hold a
    :class:`repro.core.session.PreparedGraph` and call its
    :meth:`~repro.core.session.PreparedGraph.maximal_cliques` (outputs
    are bit-identical either way).
    """
    # Imported lazily: the session layer imports this module for the
    # stats types, so a top-level import would be a cycle.
    from repro.core.session import PreparedGraph

    return PreparedGraph(graph).maximal_cliques(
        k, tau, pruning=pruning, cut=cut, insearch=insearch, stats=stats,
    )


#: The in-search peel is skipped for candidate sets smaller than this —
#: on small sets the branch-size prune catches the same dead branches at a
#: fraction of the cost (engineering deviation from Algorithm 4's bare
#: ``|R| < k`` condition; the peel is an optional optimization, so output
#: is unaffected).
_INSEARCH_MIN_CANDIDATES = 24


def muce(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
) -> Iterator[frozenset[Node]]:
    """The Mukherjee et al. [18], [19] baseline: set-enumeration search with
    monotonicity and branch-size pruning but no core-based pruning."""
    return maximal_cliques(
        graph, k, tau, pruning="none", cut=False, insearch=False,
        stats=stats,
    )


def muce_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
) -> Iterator[frozenset[Node]]:
    """Algorithm 4 with the (k, tau)-core pruning rule (``MUCE+``)."""
    return maximal_cliques(
        graph, k, tau, pruning="ktau", cut=True, insearch=True, stats=stats,
    )


def muce_plus_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: EnumerationStats | None = None,
) -> Iterator[frozenset[Node]]:
    """Algorithm 4 with the (Top_k, tau)-core pruning rule (``MUCE++``)."""
    return maximal_cliques(
        graph, k, tau, pruning="topk", cut=True, insearch=True, stats=stats,
    )
