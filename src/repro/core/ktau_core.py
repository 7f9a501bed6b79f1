"""(k, tau)-core computation: ``DPCore`` (baseline) and ``DPCore+`` (Alg. 2).

The (k, tau)-core (Definition 5) is the maximum node set in which every node
has tau-degree at least ``k`` within the induced subgraph.  By Lemma 1 it
contains every maximal (k, tau)-clique, making it the first pruning stage of
the enumeration pipeline.

Both algorithms are peelings — repeatedly delete any node whose (truncated)
tau-degree falls below ``k`` — and differ only in the per-node state:

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

from collections import deque
from typing import Callable, Iterable

from repro.deterministic.core_decomposition import core_numbers
from repro.uncertain.graph import Node, UncertainGraph
from repro.core.prune_kernel import (
    CompiledGraph,
    PruneEngine,
    compile_graph,
    distribution_peel,
    survival_peel,
)
from repro.core.tau_degree import (
    distribution_prefix,
    remove_edge_from_survival,
    survival_dp,
    tau_degree_from_survival,
    update_distribution_prefix,
)
from repro.utils.validation import validate_k, validate_tau

__all__ = ["dp_core", "dp_core_plus", "tau_core_numbers"]

# State = (per-node DP payload, tau_degree).  ``fresh`` rebuilds it from a
# node's incident probabilities; ``update`` applies one edge deletion and
# may return None to request a rebuild.
_State = tuple[object, int]
_FreshFn = Callable[[Node, list[float]], _State]
_UpdateFn = Callable[[object, int, float], "_State | None"]


def _peel(
    work: UncertainGraph,
    k: int,
    tau: float,
    fresh: _FreshFn,
    update: _UpdateFn,
) -> set[Node]:
    """Shared verified-peeling skeleton (mutates ``work``)."""
    state: dict[Node, object] = {}
    tau_deg: dict[Node, int] = {}

    def rebuild(u: Node) -> None:
        state[u], tau_deg[u] = fresh(u, list(work.incident(u).values()))

    queue: deque[Node] = deque()
    queued: set[Node] = set()
    for u in work:
        rebuild(u)
        if tau_deg[u] < k:
            queue.append(u)
            queued.add(u)

    while True:
        while queue:
            u = queue.popleft()
            for v in list(work.incident(u)):
                # _peel owns its scratch graph by contract (see docstring).
                p = work.remove_edge(u, v)  # repro-lint: ignore[RPL004]
                if v in queued:
                    continue  # v is already condemned
                updated = update(state[v], tau_deg[v], p)
                if updated is not None and updated[1] >= k:
                    state[v], tau_deg[v] = updated
                    continue
                # The update requested a rebuild or claims v falls below
                # k: verify with a fresh, division-free computation.
                rebuild(v)
                if tau_deg[v] < k:
                    queue.append(v)
                    queued.add(v)
            # _peel owns its scratch graph by contract (see docstring).
            work.remove_node(u)  # repro-lint: ignore[RPL004]
            state.pop(u, None)

        # Final sweep: recompute every survivor fresh; incremental drift
        # may have left stale states that hide a node below k.
        dirty = False
        for u in work:
            rebuild(u)
            if tau_deg[u] < k:
                queue.append(u)
                queued.add(u)
                dirty = True
        if not dirty:
            return set(work.nodes())


def _require_no_members(members: Iterable[Node] | None) -> None:
    """The legacy peels own their scratch graphs and cannot restrict to a
    member subset — the session layer builds an induced subgraph for them
    instead, so ``members=`` is an arrays-only parameter."""
    if members is not None:
        raise ValueError("members= requires engine='arrays'")


def dp_core(
    graph: UncertainGraph,
    k: int,
    tau: float,
    engine: PruneEngine = "arrays",
    compiled: CompiledGraph | None = None,
    members: Iterable[Node] | None = None,
) -> set[Node]:
    """The (k, tau)-core via the state-of-the-art DP peeling of [16].

    Per-node state is the ``Pr(d = i)`` prefix up to the current
    tau-degree, built lazily column-by-column (``O(d_u * tau_deg)``) and
    updated on edge deletion with Eq. (4) — the bookkeeping Bonchi et al.
    describe, giving the ``O(m * d_max)`` total the paper quotes.

    ``engine="arrays"`` (the default) runs the same verified peel over a
    flat compiled form of the graph
    (:func:`repro.core.prune_kernel.distribution_peel`); ``compiled``
    supplies a prebuilt :class:`CompiledGraph` (the session layer's
    shared artifact) and ``members`` restricts the peel to a node subset
    without building an induced subgraph.  Both engines converge to the
    same canonical core.

    Returns the set of nodes in the core (possibly empty).  The input
    graph is not modified.
    """
    if engine == "arrays":
        if compiled is None:
            compiled = compile_graph(graph)
        return distribution_peel(compiled, k, tau, members=members)
    _require_no_members(members)
    validate_k(k)
    tau = validate_tau(tau)
    work = graph.copy()

    def fresh(u: Node, probs: list[float]) -> _State:
        return distribution_prefix(probs, tau)

    def update(payload: object, deg: int, p: float) -> _State | None:
        return update_distribution_prefix(payload, deg, p, tau)

    return _peel(work, k, tau, fresh, update)


def dp_core_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    engine: PruneEngine = "arrays",
    compiled: CompiledGraph | None = None,
    members: Iterable[Node] | None = None,
    core: dict[Node, int] | None = None,
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

    ``engine="arrays"`` (the default) runs the peel over a flat compiled
    form of the graph (:func:`repro.core.prune_kernel.survival_peel`,
    which also owns the core-number prefilter via the compiled lazy core
    decomposition); ``compiled`` supplies a prebuilt
    :class:`CompiledGraph` and ``members`` restricts the peel to a
    node subset without building an induced subgraph.  With
    ``engine="legacy"`` the peel runs over an int-indexed compiled form
    of the prefiltered graph (:func:`_survival_peel_indexed`) — same
    verified peeling, same canonical fixpoint as :func:`_peel`, but
    without a scratch-graph copy or per-edge hashing of node objects;
    ``core`` may supply precomputed deterministic core numbers (the
    session layer's memoized artifact) to skip the decomposition.
    """
    if engine == "arrays":
        if compiled is None:
            compiled = compile_graph(graph)
        return survival_peel(compiled, k, tau, members=members)
    _require_no_members(members)
    validate_k(k)
    tau = validate_tau(tau)

    if core is None:
        core = core_numbers(graph)
    # A list keeps the core-number dict's graph order; a set here would
    # hand induced_subgraph a hash-ordered node sequence.
    survivors = [u for u, c in core.items() if c >= k]
    work = graph.induced_subgraph(survivors)
    # Caps never exceed k: the peeling only needs to distinguish "below
    # k" from "at least k", and Lemma 2 lets us truncate by c_u as well.
    cap = [min(core[u], k) for u in work.nodes()]
    return _survival_peel_indexed(work, k, tau, cap)


def _survival_peel_indexed(
    work: UncertainGraph, k: int, tau: float, cap: list[int]
) -> set[Node]:
    """Verified survival-row peeling over a compiled int-indexed graph.

    Semantics of :func:`_peel` specialised to the survival-row state of
    ``dp_core_plus``: verify-before-condemn (an incremental update that
    claims a node fell below ``k`` is checked with a fresh, division-free
    DP) plus the final verification sweep, repeated to a clean fixpoint —
    so it converges to the same canonical core.  ``cap[i]`` is the DP
    truncation for the ``i``-th node of ``work.nodes()``.

    Instead of mutating a scratch graph, the peel marks nodes dead in a
    flag array: an edge is gone exactly when either endpoint has been
    processed, and the dead flag is raised *before* the processed node's
    edges are walked, reproducing ``_peel``'s remove-then-update timing
    (a fresh rebuild triggered mid-walk must not see the half-removed
    edge).  Neighbor lists keep the graph's insertion order, so every
    fresh DP multiplies probabilities in the same order as ``_peel``'s
    ``list(work.incident(u).values())``.
    """
    order = list(work.nodes())
    index = {u: i for i, u in enumerate(order)}
    n = len(order)
    nbr_ids: list[list[int]] = []
    nbr_probs: list[list[float]] = []
    for u in order:
        inc = work.incident(u)
        nbr_ids.append([index[v] for v in inc])
        nbr_probs.append(list(inc.values()))

    state: list[list[float]] = [[] for _ in range(n)]
    tau_deg = [0] * n
    dead = bytearray(n)
    queued = bytearray(n)

    def rebuild(i: int) -> None:
        ids = nbr_ids[i]
        ps = nbr_probs[i]
        probs = [ps[j] for j in range(len(ids)) if not dead[ids[j]]]
        row = survival_dp(probs, cap[i])
        state[i] = row
        tau_deg[i] = tau_degree_from_survival(row, tau)

    queue: deque[int] = deque()
    for i in range(n):
        rebuild(i)
        if tau_deg[i] < k:
            queue.append(i)
            queued[i] = 1

    while True:
        while queue:
            i = queue.popleft()
            dead[i] = 1
            ids = nbr_ids[i]
            ps = nbr_probs[i]
            for j in range(len(ids)):
                v = ids[j]
                if dead[v] or queued[v]:
                    continue
                updated = remove_edge_from_survival(
                    state[v], ps[j], tau_deg[v], tau
                )
                if updated is not None and updated[1] >= k:
                    state[v], tau_deg[v] = updated
                    continue
                # The update requested a rebuild or claims v fell below
                # k: verify with a fresh, division-free computation.
                rebuild(v)
                if tau_deg[v] < k:
                    queue.append(v)
                    queued[v] = 1

        # Final sweep: recompute every survivor fresh; incremental drift
        # may have left stale states that hide a node below k.
        dirty = False
        for i in range(n):
            if dead[i]:
                continue
            rebuild(i)
            if tau_deg[i] < k:
                queue.append(i)
                queued[i] = 1
                dirty = True
        if not dirty:
            return {order[i] for i in range(n) if not dead[i]}


def tau_core_numbers(graph: UncertainGraph, tau: float) -> dict[Node, int]:
    """tau-core number ``xi_u`` of every node (Definition 6).

    ``xi_u`` is the largest ``k`` such that a (k, tau)-core contains
    ``u``.  Computed by staged peeling — peel at threshold
    ``k = 1, 2, ...``; a node removed while peeling at threshold ``k``
    has ``xi = k - 1`` — with each stage delegated to the same verified
    peeling the cores use.  This is the uncertain analogue of classic
    core decomposition and an extension beyond the paper's pseudo-code
    (the paper defines xi_u but only ever needs fixed-k cores).
    """
    tau = validate_tau(tau)
    xi: dict[Node, int] = {u: 0 for u in graph}
    core = core_numbers(graph)
    remaining = graph.copy()

    k = 1
    while remaining.num_nodes:
        cap = {u: min(core[u], k) for u in remaining}

        def fresh(u: Node, probs: list[float]) -> _State:
            row = survival_dp(probs, cap[u])
            return row, tau_degree_from_survival(row, tau)

        def update(payload: object, deg: int, p: float) -> _State | None:
            return remove_edge_from_survival(payload, p, deg, tau)

        survivors = _peel(remaining, k, tau, fresh, update)
        for u in xi:
            if u in survivors:
                xi[u] = k
        k += 1

    return xi
