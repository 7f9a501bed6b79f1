"""The (Top_k, tau)-core (Section III-B, Algorithm 3).

The top-k product probability of a node (Definition 8) multiplies the ``k``
largest probabilities among its incident edges; the (Top_k, tau)-core is the
maximum node set in which every node keeps a top-k product of at least
``tau`` within the induced subgraph (Definition 9).

By Lemma 4 the core contains every maximal (k, tau)-clique, and by
Corollary 1 it is contained in the (k, tau)-core — i.e. it prunes strictly
more.  Because the top-k product is monotone under subgraphs (Lemma 3), a
simple peeling computes it; the peeling doubles as the in-search pruning of
Algorithm 4 via the ``fixed`` node set: if any fixed node is peeled the
search branch is dead and the peeling aborts early.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Iterable

from repro.core.prune_kernel import (
    CompiledGraph,
    PruneEngine,
    compile_graph,
    topk_peel,
)
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_below, validate_k, validate_tau

if TYPE_CHECKING:  # pragma: no cover - type-only (kernel imports us)
    from repro.core.kernel import CompiledComponent

__all__ = [
    "top_k_product_probability",
    "topk_core",
    "TopKCoreResult",
    "topk_core_arrays",
    "topk_peel_masks",
]


def top_k_product_probability(
    graph: UncertainGraph, node: Node, k: int
) -> float:
    """``pi_k(u, G)`` — Definition 8.

    The product of the ``k`` highest incident-edge probabilities, or 0.0
    when the node has fewer than ``k`` incident edges.  ``k == 0`` gives the
    empty product 1.0.
    """
    validate_k(k)
    probs = sorted(graph.incident(node).values(), reverse=True)
    if len(probs) < k:
        return 0.0
    return math.prod(probs[:k])


@dataclass(frozen=True)
class TopKCoreResult:
    """Outcome of :func:`topk_core`.

    ``nodes`` is the core's node set; ``contains_fixed`` is False when a
    node of the ``fixed`` set was peeled (in which case ``nodes`` is empty,
    matching Algorithm 3's ``(empty, 0)`` return).
    """

    nodes: frozenset[Node]
    contains_fixed: bool

    def __bool__(self) -> bool:
        return self.contains_fixed and bool(self.nodes)


def topk_core(
    graph: UncertainGraph,
    k: int,
    tau: float,
    fixed: AbstractSet = frozenset(),
    engine: PruneEngine = "arrays",
    compiled: CompiledGraph | None = None,
) -> TopKCoreResult:
    """Algorithm 3: compute the (Top_k, tau)-core of ``graph``.

    ``fixed`` is the paper's ``V_I``: if the core fails to contain all of
    it, peeling aborts immediately with ``contains_fixed = False``.  The
    input graph is not modified.

    Runs in ``O(m log d_max)``: per-node incident probabilities are sorted
    once; each edge deletion removes one value from a sorted list and
    re-multiplies a k-prefix.

    ``engine="arrays"`` (the default) runs the peel over a flat compiled
    form of the graph (:func:`repro.core.prune_kernel.topk_peel`);
    ``compiled`` supplies a prebuilt :class:`CompiledGraph` (the
    session layer's shared artifact).  Both engines converge to the same
    canonical core.
    """
    if engine == "arrays":
        if compiled is None:
            compiled = compile_graph(graph)
        survivors = topk_peel(compiled, k, tau, fixed=fixed)
        if survivors is None:
            return TopKCoreResult(frozenset(), False)
        return TopKCoreResult(survivors, True)
    validate_k(k)
    tau = validate_tau(tau)

    # Ascending sorted incident probabilities per node; the top-k product
    # is the product of the last k entries.
    probs: dict[Node, list[float]] = {
        u: sorted(graph.incident(u).values()) for u in graph
    }

    def pi_k(u: Node) -> float:
        values = probs[u]
        if len(values) < k:
            return 0.0
        if k == 0:
            return 1.0
        return math.prod(values[-k:])

    # incident() keys = neighbors, minus the guarded-iterator overhead;
    # this peel reads the caller's graph and never mutates it.
    alive: dict[Node, set[Node]] = {
        u: set(graph.incident(u)) for u in graph
    }
    queue: deque[Node] = deque()
    queued: set[Node] = set()
    for u in graph:
        if prob_below(pi_k(u), tau):
            if u in fixed:
                return TopKCoreResult(frozenset(), False)
            queue.append(u)
            queued.add(u)

    removed: set[Node] = set()
    while queue:
        u = queue.popleft()
        removed.add(u)
        for v in alive[u]:
            alive[v].discard(u)
            if v in queued:
                continue
            p = graph.probability(u, v)
            values = probs[v]
            idx = bisect.bisect_left(values, p)
            values.pop(idx)
            if prob_below(pi_k(v), tau):
                if v in fixed:
                    return TopKCoreResult(frozenset(), False)
                queue.append(v)
                queued.add(v)
        alive[u] = set()

    survivors = frozenset(u for u in graph if u not in removed)
    return TopKCoreResult(survivors, True)


def topk_core_arrays(
    graph: UncertainGraph,
    k: int,
    tau: float,
    compiled: CompiledGraph | None = None,
    members: Iterable[Node] | None = None,
) -> frozenset[Node]:
    """Algorithm 3's peel over a compiled whole-graph array form.

    Array-based fast path for the *pre-search* pruning stage of MUCE++ /
    MaxUC+ (the compiled-engine twin of :func:`topk_core` without the
    ``fixed`` machinery — the pre-search call has no clique yet).  Since
    the prune kernel landed this is a thin delegate to
    :func:`repro.core.prune_kernel.topk_peel`: ``compiled`` supplies a
    prebuilt :class:`CompiledGraph` (the session layer's shared
    artifact) and ``members`` restricts the peel to a node subset without
    building an induced subgraph.  Kept as a named entry point because
    the pipeline's stage router and its tests patch it by name.

    Parity with :func:`topk_core`: the peel condition is monotone under
    node removal, so the surviving fixpoint is unique regardless of peel
    order.  Returns the surviving node set.
    """
    if compiled is None:
        compiled = compile_graph(graph)
    survivors = topk_peel(compiled, k, tau, members=members)
    assert survivors is not None  # no fixed set -> never aborts
    return survivors


def topk_peel_masks(
    comp: CompiledComponent,
    members: int,
    fixed: int,
    k: int,
    tau_floor: float,
) -> int | None:
    """Algorithm 3's peel over a compiled component, as bitmasks.

    Array-based fast path for the *in-search* pruning of Algorithms 4/5:
    ``members`` selects the nodes of the induced subgraph (the search's
    ``R + C``) and ``fixed`` the paper's ``V_I`` (the clique ``R``), both
    as bitmasks over ``comp``'s dense ids.  Returns the surviving node
    mask, or ``None`` as soon as a fixed node is condemned (the branch is
    dead either way, so no work is wasted finishing the peel).

    Parity with :func:`topk_core` / the legacy ``_insearch_topk_prune``:
    the peel condition is monotone under node removal, so the surviving
    fixpoint is unique regardless of peel order, and a fixed node is
    condemned under *some* order iff it is outside that fixpoint — hence
    the abort decision is order-independent too.  Each check multiplies
    the k highest surviving probabilities in ascending order, the exact
    float sequence of ``math.prod(sorted(probs)[-k:])``, and candidates
    are identified by node id (not by value-bisect on a probability
    list), so duplicate probabilities cannot be confused.
    """
    if k == 0:
        # pi_0 is the empty product 1.0, which clears any valid tau.
        return members
    row_offsets = comp.row_offsets
    nbr_ids = comp.nbr_ids
    nbr_probs = comp.nbr_probs
    adj = comp.adj
    alive = members
    stack: list[int] = []

    def survives(u: int) -> bool:
        # Top-k product over surviving neighbors: the CSR row is sorted by
        # descending probability, so the first k live entries are the top
        # k; they are multiplied back-to-front (ascending) to reproduce
        # the legacy float sequence exactly.
        top: list[float] = []
        for i in range(row_offsets[u], row_offsets[u + 1]):
            if alive >> nbr_ids[i] & 1:
                top.append(nbr_probs[i])
                if len(top) == k:
                    product = 1.0
                    for j in range(k - 1, -1, -1):
                        product *= top[j]
                    # Hot path: tau_floor = threshold_floor(tau) fast path.
                    return product >= tau_floor  # repro-lint: ignore[RPL001]
        return False

    base = 0
    scan = members
    while scan:
        chunk = scan & 0xFFFFFFFFFFFFFFFF
        scan >>= 64
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            u = base + low.bit_length() - 1
            if not survives(u):
                if fixed >> u & 1:
                    return None
                alive ^= 1 << u
                stack.append(u)
        base += 64

    while stack:
        u = stack.pop()
        base = 0
        scan = adj[u] & alive
        while scan:
            chunk = scan & 0xFFFFFFFFFFFFFFFF
            scan >>= 64
            while chunk:
                low = chunk & -chunk
                chunk ^= low
                v = base + low.bit_length() - 1
                if not survives(v):
                    if fixed >> v & 1:
                        return None
                    alive ^= 1 << v
                    stack.append(v)
            base += 64

    return alive
