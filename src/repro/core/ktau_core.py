"""(k, tau)-core computation: ``DPCore`` (baseline) and ``DPCore+`` (Alg. 2).

The (k, tau)-core (Definition 5) is the maximum node set in which every node
has tau-degree at least ``k`` within the induced subgraph.  By Lemma 1 it
contains every maximal (k, tau)-clique, making it the first pruning stage of
the enumeration pipeline.

Both algorithms are peelings — repeatedly delete any node whose (truncated)
tau-degree falls below ``k`` — and differ only in the per-node state.  Both
run over the graph's flat compiled form (:mod:`repro.core.prune_kernel`):

* :func:`dp_core` (the Bonchi et al. [16] baseline) keeps the degree
  distribution ``Pr(d_u = i)`` per node up to the current tau-degree and
  updates it with Eq. (4); ``O(m * d_max)`` total.
* :func:`dp_core_plus` (the paper's Algorithm 2) first discards nodes whose
  deterministic core number is below ``k``, then keeps only the truncated
  survival row ``Pr(d_u >= i), i <= min(c_u, k)`` per node, updated with
  Eq. (6); ``O(m * delta)`` total.

Numerical robustness
--------------------
The Eq. (4) / Eq. (6) deletion updates divide by ``1 - p``; with
high-probability edges this amplifies rounding error, and a long chain of
updates can flip a knife-edge peel decision — making the two algorithms
disagree on borderline nodes.  Both peelings therefore (a) *verify before
peeling*: when an incremental update claims a node dropped below ``k``, its
state is recomputed fresh from its surviving edges before it is condemned,
and (b) run a *final verification sweep* that recomputes every survivor
fresh and continues peeling until a clean fixpoint.  Fresh computations are
plain forward DPs with no divisions, so both algorithms converge to the
same canonical core (checked by the test suite and asserted by the
experiment harness).  The extra work preserves the stated complexities:
one fresh rebuild per peeled node plus one sweep per round.
"""

from __future__ import annotations

from typing import Iterable

from repro.uncertain.graph import Node, UncertainGraph
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    distribution_peel,
    survival_peel,
)
from repro.utils.validation import validate_tau

__all__ = ["dp_core", "dp_core_plus", "tau_core_numbers"]


def dp_core(
    graph: UncertainGraph,
    k: int,
    tau: float,
    compiled: CompiledGraph | None = None,
) -> set[Node]:
    """The (k, tau)-core via the state-of-the-art DP peeling of [16].

    Per-node state is the ``Pr(d = i)`` prefix up to the current
    tau-degree, built lazily column-by-column (``O(d_u * tau_deg)``) and
    updated on edge deletion with Eq. (4) — the bookkeeping Bonchi et al.
    describe, giving the ``O(m * d_max)`` total the paper quotes.

    The peel runs over a flat compiled form of the graph
    (:func:`repro.core.prune_kernel.distribution_peel`); ``compiled``
    supplies a prebuilt :class:`CompiledGraph` (the graph's shared
    lowering).

    Returns the set of nodes in the core (possibly empty).  The input
    graph is not modified.
    """
    if compiled is None:
        compiled = compile_graph(graph)
    return distribution_peel(compiled, k, tau)


def dp_core_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    compiled: CompiledGraph | None = None,
    members: Iterable[Node] | None = None,
) -> set[Node]:
    """The (k, tau)-core via Algorithm 2 (``NewDPCore`` / ``DPCore+``).

    Three ingredients make this faster than :func:`dp_core`:

    1. nodes whose deterministic core number is below ``k`` can never be
       in the core (``xi_u <= c_u``, Definition 6) and are dropped up
       front;
    2. the per-node DP is truncated at ``min(c_u, k)`` — by Lemma 2
       peeling on *truncated* tau-degrees yields the same core, and the
       truncation bounds every DP row by the degeneracy;
    3. survival probabilities are maintained directly (Eqs. 5 and 6), so
       a deletion update touches only ``O(truncated tau-degree)`` entries.

    The peel runs over a flat compiled form of the graph
    (:func:`repro.core.prune_kernel.survival_peel`, which also owns the
    core-number prefilter via the compiled lazy core decomposition);
    ``compiled`` supplies a prebuilt :class:`CompiledGraph` and
    ``members`` restricts the peel to a node subset without building an
    induced subgraph.
    """
    if compiled is None:
        compiled = compile_graph(graph)
    return survival_peel(compiled, k, tau, members=members)


def tau_core_numbers(graph: UncertainGraph, tau: float) -> dict[Node, int]:
    """tau-core number ``xi_u`` of every node (Definition 6).

    ``xi_u`` is the largest ``k`` such that a (k, tau)-core contains
    ``u``.  Computed by staged peeling at ``k = 1, 2, ...``: the cores
    are nested in ``k``, so each stage is one :func:`dp_core_plus` call
    restricted to the previous stage's survivors, over one compile of
    the graph, and a node first missing at stage ``k`` has
    ``xi = k - 1``.  This is the uncertain analogue of classic core
    decomposition and an extension beyond the paper's pseudo-code (the
    paper defines xi_u but only ever needs fixed-k cores).
    """
    tau = validate_tau(tau)
    xi: dict[Node, int] = {u: 0 for u in graph}
    compiled = compile_graph(graph)
    members: set[Node] | None = None
    k = 1
    while members is None or members:
        members = dp_core_plus(
            graph, k, tau, compiled=compiled, members=members
        )
        for u in members:
            xi[u] = k
        k += 1
    return xi
