"""Compiled search kernel for the MUCE/MaxUC+ hot paths.

The backtracking searches in :mod:`repro.core.enumeration` and
:mod:`repro.core.maximum` are written over :class:`UncertainGraph`'s
dict-of-dicts adjacency: every candidate filter is a per-edge hash lookup
on arbitrary node objects, every branch rebuilds ``(node, pi)`` tuple
lists for both the candidate set *and* the excluded set, and the
in-search (Top_k, tau)-core peel rebuilds sorted probability lists from
scratch at every recursion level.  This module removes that overhead with
a per-component *compilation step*:

1. nodes are mapped to dense ints ``0 .. n-1`` in the library's
   deterministic order, so the compiled id order doubles as the search
   order — computed exactly once per component;
2. adjacency is materialised several ways: CSR-style flat neighbor and
   probability arrays in per-row descending-probability order (the form
   the in-search core peel consumes without any re-sorting), Python-int
   bitmask rows (one ``n``-bit integer per node, so neighbor
   intersections are a single ``&``), dense probability rows (plain float
   lists indexed by node id, ``0.0`` marking non-edges) for small
   components, and int-keyed probability dicts as the large-component
   fallback.

The pivot enumeration keeps the candidate set ``C`` as a list of
``(id, pi)`` pairs shaped like the legacy loop (measured faster than
bit-extraction for the tree's many small calls) and adds one
mask-powered shortcut the legacy representation cannot afford:

* the excluded set ``X`` is never materialised.  Legacy filters an
  explicit ``X`` list on every branch only to test ``X == empty`` at
  leaves.  The kernel instead maintains ``common``, the intersection of
  ``adj[r]`` over the current clique (one ``&`` per recursion step), and
  a ``banned`` mask of branch-size-pruned candidates (which legacy
  deliberately keeps out of ``X``).  At a leaf (``C`` empty) a node
  ``x`` would sit in legacy's ``X`` iff ``x in common & ~banned`` and
  ``CPr(R) * pi_x(R) >= tau_floor``: every node of the component either
  died on an adjacency filter (not in ``common``), was branch-size
  pruned above (``banned``), or was passed over/threshold-filtered — and
  for those the incremental compares along the path are all implied by
  the final one, because IEEE multiplication by factors ``<= 1`` is
  monotone non-increasing.  Recomputing ``pi_x`` in canonical clique order
  reproduces legacy's float sequence bit for bit, so emission decisions
  match legacy's while the per-branch ``X`` filtering work disappears.

Results are decompiled back to the original node labels.  The pivot
enumeration emits the same *set* of cliques as ``engine="legacy"`` in
its own branch order; :func:`maximum_compiled` produces every
decision-relevant float by the same multiplication sequence as the
legacy closure, so its result and statistics counters are identical to
``engine="legacy"`` (both pinned by ``tests/core/test_kernel_parity.py``).

The entry points are :func:`enum_root_prep`, :func:`pivot_root_plan` and
:func:`enumerate_pivot_range` (the pivoted MUC recursion of Algorithm 4)
and :func:`maximum_compiled` (the MaxUC+ color-bound branch-and-bound);
all operate on one connected component as produced by the pruning/cut
pipeline.  The pre-search (Top_k, tau)-core itself has a compiled twin in
:func:`repro.core.topk_core.topk_core_arrays`.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.core.prune_kernel import CompiledGraph, node_sort_key
from repro.core.topk_core import topk_peel_masks
from repro.uncertain.graph import Node, UncertainGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (types only)
    from repro.core.enumeration import EnumerationStats
    from repro.core.maximum import MaximumSearchStats

__all__ = [
    "CompiledComponent",
    "compile_component",
    "derive_component_view",
    "node_sort_key",
    "iter_bits",
    "enum_root_prep",
    "pivot_root_plan",
    "enumerate_pivot_range",
    "maximum_compiled",
    "KERNEL_COMPONENT_LIMIT",
]

#: Set-bit iteration works through masks 64 bits at a time: each chunk is a
#: machine-word int, so the extraction loop never does big-int arithmetic.
_CHUNK_MASK = 0xFFFFFFFFFFFFFFFF

#: Components up to this many nodes get dense probability rows (n floats
#: per node, 0.0 for non-edges); larger ones fall back to int-keyed dicts
#: to keep compilation O(n + m) and memory bounded.
_DENSE_ROW_LIMIT = 1024

#: Largest component the compiled *enumeration* core accepts.  Above this
#: every bitmask op pays O(n / 64) words even deep in the tree where the
#: candidate sets are tiny (a sparse 9000-node component makes each
#: ``common & adj[u]`` a 141-word operation), which was measured slower
#: than the tuple-list recursion — so the search stage in
#: :mod:`repro.core.pipeline` routes oversized components to the legacy
#: recursion instead.  Matches :data:`_DENSE_ROW_LIMIT`, so the compiled
#: enumeration always has dense probability rows.
KERNEL_COMPONENT_LIMIT = _DENSE_ROW_LIMIT


#: Conservative relative safety margin on the pivot absorption test.
#: Skipping the branches of an absorbed set ``T`` is sound only when the
#: canonical witness chain of every sub-clique would clear the floor;
#: the greedy absorption computes ``CPr(R + T + {u})`` in its own
#: (incremental) multiplication order, so the skip threshold is raised
#: by more than the worst-case reassociation rounding error (bounded by
#: ``#factors * 2^-53 < 1e-10`` within a component of <= 1024 nodes) —
#: a skip can then never lose a clique the legacy engine would emit.
_PIVOT_SAFETY = 1.0 + 1e-9


class CompiledComponent:
    """One component compiled to dense-int, bitmask and CSR form.

    ``nodes[i]`` is the original label of id ``i``; ids follow the
    library's deterministic node order, so ascending-id iteration
    reproduces the legacy candidate order exactly.  The CSR rows
    (``row_offsets`` / ``nbr_ids`` / ``nbr_probs``) are sorted by
    descending probability (ties by id) so a top-k scan reads a prefix.
    ``bits[i]`` caches ``1 << i`` (big-int shifts are not free), and
    ``rows`` holds the dense probability rows for small components
    (``None`` above :data:`_DENSE_ROW_LIMIT`).

    Compiled components are **picklable**, and only the canonical state
    is pickled: the node labels and the CSR arrays (compact ``array``
    buffers).  Every derived form — bitmask rows, dense probability rows,
    int-keyed dicts, cached bit singletons — is rebuilt on unpickle,
    which is faster than serialising an O(n^2) float matrix and keeps the
    payload near the information-theoretic minimum.
    :func:`derive_component_view` builds its views through the same
    ``__setstate__`` path.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "adj",
        "prob",
        "rows",
        "bits",
        "row_offsets",
        "nbr_ids",
        "nbr_probs",
        "full_mask",
    )

    def __init__(self, graph: UncertainGraph) -> None:
        order = sorted(graph.nodes(), key=node_sort_key)
        index = {u: i for i, u in enumerate(order)}
        n = len(order)
        bits = [1 << i for i in range(n)]
        dense = n <= _DENSE_ROW_LIMIT

        adj: list[int] = []
        prob: list[dict[int, float]] = []
        rows: list[list[float]] | None = [] if dense else None
        row_offsets = array("l", [0])
        nbr_ids = array("l")
        nbr_probs = array("d")

        for u in order:
            row: dict[int, float] = {}
            mask = 0
            for v, p in graph.incident(u).items():
                j = index[v]
                row[j] = p
                mask |= bits[j]
            adj.append(mask)
            prob.append(row)
            if rows is not None:
                flat = [0.0] * n
                for j, p in row.items():
                    flat[j] = p
                rows.append(flat)
            for j, p in sorted(row.items(), key=lambda e: (-e[1], e[0])):
                nbr_ids.append(j)
                nbr_probs.append(p)
            row_offsets.append(len(nbr_ids))

        self.nodes = order
        self.index = index
        self.n = n
        self.adj = adj
        self.prob = prob
        self.rows = rows
        self.bits = bits
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.full_mask = (1 << n) - 1 if n else 0

    def __getstate__(self) -> tuple[
        list[Node], array[int], array[int], array[float]
    ]:
        # Labels + CSR only; all derived forms are rebuilt in __setstate__.
        return (self.nodes, self.row_offsets, self.nbr_ids, self.nbr_probs)

    def __setstate__(
        self,
        state: tuple[list[Node], array[int], array[int], array[float]],
    ) -> None:
        order, row_offsets, nbr_ids, nbr_probs = state
        n = len(order)
        bits = [1 << i for i in range(n)]
        adj: list[int] = []
        prob: list[dict[int, float]] = []
        dense = n <= _DENSE_ROW_LIMIT
        rows: list[list[float]] | None = [] if dense else None
        for u in range(n):
            row: dict[int, float] = {}
            mask = 0
            for i in range(row_offsets[u], row_offsets[u + 1]):
                j = nbr_ids[i]
                row[j] = nbr_probs[i]
                mask |= bits[j]
            adj.append(mask)
            prob.append(row)
            if rows is not None:
                flat = [0.0] * n
                for j, p in row.items():
                    flat[j] = p
                rows.append(flat)
        self.nodes = order
        self.index = {u: i for i, u in enumerate(order)}
        self.n = n
        self.adj = adj
        self.prob = prob
        self.rows = rows
        self.bits = bits
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.full_mask = (1 << n) - 1 if n else 0

    def decompile(self, mask: int) -> frozenset[Node]:
        """Original labels of the nodes whose bits are set in ``mask``."""
        nodes = self.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))


def compile_component(graph: UncertainGraph) -> CompiledComponent:
    """Compile ``graph`` (typically one connected component) for search."""
    return CompiledComponent(graph)


def derive_component_view(
    compiled: CompiledGraph, members: Sequence[Node]
) -> CompiledComponent:
    """Build a component's :class:`CompiledComponent` from the unified
    whole-graph artifact, without touching the :class:`UncertainGraph`.

    ``members`` must be the node set of one pipeline component of the
    graph ``compiled`` was lowered from: the pruning stage removes
    *nodes* (edges among survivors are untouched) and every edge the cut
    optimization removes crosses two final components — so filtering the
    whole-graph rows to ``members`` reproduces the component's adjacency
    exactly.  The view is bit-identical to
    ``compile_component(component)``:

    * local ids renumber ``members`` by ascending ``sort_rank``, which
      restricted to any subset equals the component's own
      :func:`node_sort_key` sort;
    * each member's row is filtered to members first, then only the
      kept ``(-probability, local id)`` pairs are sorted — negation
      flips only the sign bit, so the stored floats are the row's own;
    * every derived form (bitmask rows, dense rows, dicts) is rebuilt
      from that CSR by the same code the pickle path uses.

    ``members`` are labels, so a list cached across a full re-lower
    (which renumbers every id) stays valid.

    The view is a deep **snapshot**: its arrays are freshly built, never
    aliases of ``compiled``'s lists.  That independence is load-bearing:
    the session caches views per component while
    :meth:`CompiledGraph.apply_delta` patches the source artifact's rows
    *in place*, and a cached view must not observe later mutations.
    """
    index = compiled.index
    rank = compiled.sort_rank
    gids = sorted((index[u] for u in members), key=rank.__getitem__)
    local: dict[int, int] = {g: i for i, g in enumerate(gids)}
    nodes: list[Node] = [compiled.nodes[g] for g in gids]
    row_offsets = array("l", [0])
    nbr_ids = array("l")
    nbr_probs = array("d")
    get = local.get
    for g in gids:
        ids, ps = compiled.row(g)
        kept = sorted([
            (-p, li) for j, p in zip(ids, ps)
            if (li := get(j)) is not None
        ])
        nbr_ids.extend([li for _, li in kept])
        nbr_probs.extend([-negp for negp, _ in kept])
        row_offsets.append(len(nbr_ids))
    view = CompiledComponent.__new__(CompiledComponent)
    view.__setstate__((nodes, row_offsets, nbr_ids, nbr_probs))
    return view


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order.

    Convenience for cold paths; the hot search loops below inline the same
    chunked extraction to avoid generator overhead.
    """
    base = 0
    while mask:
        chunk = mask & _CHUNK_MASK
        mask >>= 64
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            yield base + low.bit_length() - 1
        base += 64


# ----------------------------------------------------------------------
# Enumeration: root preparation shared by the pivot search
# ----------------------------------------------------------------------

def enum_root_prep(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
) -> list[tuple[int, float]] | None:
    """Root-call bookkeeping of the MUC recursion.

    Performs exactly what the root call does before its branch loop:
    counts the root search call and applies the root in-search core gate
    (Algorithm 4 lines 12-15 with ``R`` empty).  Returns the surviving
    root candidate list, or ``None`` when the whole component is dead
    (root insearch prune); the list then feeds :func:`pivot_root_plan`
    and :func:`enumerate_pivot_range`.
    """
    n = comp.n
    stats.search_calls += 1
    cands = [(v, 1.0) for v in range(n)]
    if n >= insearch_min_candidates and insearch and min_size > 0:
        alive = topk_peel_masks(comp, comp.full_mask, 0, k, tau_floor)
        if alive is None or alive.bit_count() < min_size:
            stats.insearch_prunes += 1
            return None
        if alive != comp.full_mask:
            stats.insearch_prunes += 1
            cands = [e for e in cands if alive >> e[0] & 1]
    return cands


# ----------------------------------------------------------------------
# Pivot engine: Tomita-style greedy pivoting on the MUC recursion
# ----------------------------------------------------------------------
#
# The classic Bron-Kerbosch pivot rule — pick the pivot u maximizing
# |C & Γ(u)| and branch only on C \ Γ(u) — is UNSOUND for (k, tau)-
# cliques as stated: K subset of R + (C & Γ(u)) being structurally
# extendable by u does not imply CPr(K + {u}) >= tau, so K can be
# maximal even though u is adjacent to all of it.  The sound variant
# implemented here is the *absorbing* pivot: after choosing u by
# popcount coverage, greedily grow an absorption set T inside C & Γ(u)
# while R + T + {u} stays a structural clique AND its clique probability
# stays above the (safety-margined) threshold.  Then for every
# K subset of R + T, the superset chain gives
# CPr(K + {u}) >= CPr(R + T + {u}) >= tau, so u extends K and K is not
# maximal — branching on T can be skipped wholesale.  Vertices outside
# T still branch, and the skipped vertices are *carried forward* into
# every child's candidate list (a child of branch q receives
# (C \ branched-so-far) & Γ_tau(q), absorbed members included), which
# preserves the unique-path argument: a clique's next vertex is always
# its first member in branch order, so no clique is reached twice.
#
# Emission stays on the legacy predicate: at a leaf the clique
# probability and every witness chain are *recomputed in canonical
# ascending-id order* — the exact nested float sequence the legacy
# engine builds along its path — so the emitted set of cliques, and
# each clique's probability chain, are bit-identical to
# ``engine="legacy"``.  (The descent filters multiply in pivot path
# order; a filter verdict can in principle differ from the canonical
# one when a partial product lands within ~1 ulp of the threshold
# floor, a measure-zero event documented in docs/performance.md and
# never observed by the parity suites.)  Yield order follows the pivot
# recursion and therefore differs from the legacy engine's; parity is
# on the set.


def pivot_root_plan(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    cands: list[tuple[int, float]],
    stats: EnumerationStats,
) -> list[int]:
    """Choose the root pivot and absorption set for the pivot engine.

    ``cands`` is the surviving root candidate list from
    :func:`enum_root_prep`.  Returns the root *branch list* — the
    candidate ids to branch on, ascending — after absorbing the skipped
    set, and counts the root node's pivot bookkeeping into ``stats``.
    """
    rows = comp.rows
    if rows is None:
        raise ValueError(
            "pivot_root_plan requires a component within "
            f"KERNEL_COMPONENT_LIMIT ({KERNEL_COMPONENT_LIMIT})"
        )
    adj = comp.adj
    bits = comp.bits
    skip_mask = 0
    if len(cands) > 1:
        cand_mask = 0
        for e in cands:
            cand_mask |= bits[e[0]]
        best_u = -1
        best_cover = -1
        for u, _pi_u in cands:
            cover = (adj[u] & cand_mask).bit_count()
            if cover > best_cover:
                best_cover = cover
                best_u = u
        if best_cover > 0:
            skip_floor = tau_floor * _PIVOT_SAFETY
            t_adj = adj[best_u]
            budget = 1.0  # root clique probability
            urow = rows[best_u]
            t_list: list[int] = []
            for v, _pi_v in cands:
                if v == best_u:
                    continue
                bv = bits[v]
                if not bv & t_adj:
                    continue
                prod = budget * urow[v]
                if prod < skip_floor:  # repro-lint: ignore[RPL001]
                    continue
                ok = True
                vrow = rows[v]
                for t in t_list:
                    prod *= vrow[t]
                    if prod < skip_floor:  # repro-lint: ignore[RPL001]
                        ok = False
                        break
                if ok:
                    skip_mask |= bv
                    t_list.append(v)
                    t_adj &= adj[v]
                    budget = prod
    branches = [e[0] for e in cands if not bits[e[0]] & skip_mask]
    stats.pivot_branches += len(branches)
    stats.pivot_skipped += len(cands) - len(branches)
    return branches


def enumerate_pivot_range(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    cands: list[tuple[int, float]],
    branches: list[int],
    stats: EnumerationStats,
) -> list[frozenset[Node]]:
    """Pivot-engine search of every root branch in ``branches``.

    ``cands`` must be the surviving root candidate list from
    :func:`enum_root_prep` and ``branches`` the root branch list from
    :func:`pivot_root_plan`.  Unlike legacy's suffix tails, a pivot
    branch's candidate tail carries the absorbed (skipped) vertices
    *before* it as well, so the root loop filters ``cands`` by a live
    remaining-mask rather than slicing.
    """
    n = comp.n
    rows = comp.rows
    if rows is None:
        raise ValueError(
            "enumerate_pivot_range requires a component within "
            f"KERNEL_COMPONENT_LIMIT ({KERNEL_COMPONENT_LIMIT}), got {n}"
        )
    adj = comp.adj
    bits = comp.bits
    nodes = comp.nodes
    skip_floor = tau_floor * _PIVOT_SAFETY
    out: list[frozenset[Node]] = []
    # Batched stats, flushed once per component (attribute access on the
    # stats object is too slow for the recursion's call volume).
    calls = insearch_prunes = branch_prunes = cliques = 0
    pbranches = pskipped = 0

    def rec(
        clique: list[int],
        clique_len: int,
        clique_prob: float,
        cands: list[tuple[int, float]],
        common: int,
        banned: int,
    ) -> None:
        # One node of the absorbing-pivot recursion.  ``cands`` holds
        # (id, pi) pairs in ascending id order with pi the incremental
        # product to the clique *in pivot path order*; ``common`` is the
        # intersection of adj[r] over the clique and ``banned`` the
        # branch-size-pruned ids (the virtual-X machinery of the module
        # docstring — carried-forward candidates that die on a filter are
        # caught by the leaf witness scan automatically).
        nonlocal calls, insearch_prunes, branch_prunes, cliques
        nonlocal pbranches, pskipped
        calls += 1
        if not cands:
            # Leaf: recompute the canonical ascending-order chain (the
            # float sequence the legacy engine builds along its path)
            # and run the witness scan against it — emission decisions
            # are bit-identical to engine="legacy".
            if clique_len >= min_size:
                order = sorted(clique)
                prob = 1.0
                for j in range(clique_len):
                    vj = order[j]
                    pi = 1.0
                    for i in range(j):
                        pi *= rows[order[i]][vj]
                    prob = prob * pi
                if prob >= tau_floor:  # repro-lint: ignore[RPL001]
                    wit = common & ~banned
                    blocked = False
                    base = 0
                    while wit:
                        chunk = wit & _CHUNK_MASK
                        wit >>= 64
                        while chunk:
                            low = chunk & -chunk
                            chunk ^= low
                            w = base + low.bit_length() - 1
                            pi = 1.0
                            for r in order:
                                pi *= rows[r][w]
                                # Hot path: precomputed threshold_floor.
                                if prob * pi < tau_floor:  # repro-lint: ignore[RPL001]
                                    break
                            else:
                                blocked = True
                                wit = 0
                                break
                        base += 64
                    if not blocked:
                        cliques += 1
                        out.append(frozenset(nodes[x] for x in clique))
            return

        nc = len(cands)
        if nc >= insearch_min_candidates and insearch and clique_len < min_size:
            # In-search (Top_k, tau)-core gate (Algorithm 4 lines
            # 12-15), the mask twin of legacy's sorted-list peel.
            cand_mask = 0
            for e in cands:
                cand_mask |= bits[e[0]]
            clique_mask = 0
            for r in clique:
                clique_mask |= bits[r]
            alive = topk_peel_masks(
                comp, clique_mask | cand_mask, clique_mask, k, tau_floor
            )
            if alive is None or alive.bit_count() < min_size:
                insearch_prunes += 1
                return
            pruned = alive & cand_mask
            if pruned != cand_mask:
                insearch_prunes += 1
                cands = [e for e in cands if pruned >> e[0] & 1]
                nc = len(cands)

        cand_mask = 0
        for e in cands:
            cand_mask |= bits[e[0]]

        # Pivot selection: max structural coverage by popcount, ties to
        # the lowest id (deterministic).  Then greedy absorption: grow T
        # inside C & Γ(u) while R + T + {u} stays a structural clique
        # whose running clique probability clears the safety-margined
        # floor — every sub-clique of R + T is then non-maximal (u
        # extends it), so T never branches.
        skip_mask = 0
        if nc > 1:
            best_u = -1
            best_pi = 1.0
            best_cover = -1
            for u, pi_u in cands:
                cover = (adj[u] & cand_mask).bit_count()
                if cover > best_cover:
                    best_cover = cover
                    best_u = u
                    best_pi = pi_u
            if best_cover > 0:
                t_adj = adj[best_u]
                budget = clique_prob * best_pi
                urow = rows[best_u]
                t_list: list[int] = []
                for v, pi_v in cands:
                    if v == best_u:
                        continue
                    bv = bits[v]
                    if not bv & t_adj:
                        continue
                    prod = budget * pi_v * urow[v]
                    if prod < skip_floor:  # repro-lint: ignore[RPL001]
                        continue
                    ok = True
                    vrow = rows[v]
                    for t in t_list:
                        prod *= vrow[t]
                        if prod < skip_floor:  # repro-lint: ignore[RPL001]
                            ok = False
                            break
                    if ok:
                        skip_mask |= bv
                        t_list.append(v)
                        t_adj &= adj[v]
                        budget = prod

        prune_live = clique_len + 1 < min_size
        need = min_size - clique_len - 1
        child_len = clique_len + 1
        rem_mask = cand_mask
        branched = 0
        for u, pi_u in cands:
            bu = bits[u]
            if bu & skip_mask:
                continue
            branched += 1
            rem_mask ^= bu
            if prune_live and (rem_mask & adj[u]).bit_count() < need:
                # Branch-size prune (Algorithm 4, line 19): the popcount
                # over-approximates the child candidate count (absorbed
                # vertices stay in rem_mask), so the bound is sound.
                branch_prunes += 1
                banned |= bu
                continue
            new_prob = clique_prob * pi_u
            urow = rows[u]
            new_cands = []
            for v, pi_v in cands:
                if not rem_mask & bits[v]:
                    continue  # already branched (or u itself)
                p = urow[v]
                if p:
                    piv = pi_v * p
                    if new_prob * piv >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_cands.append((v, piv))
            if prune_live and len(new_cands) < need:
                branch_prunes += 1
                banned |= bu
                continue
            clique.append(u)
            rec(clique, child_len, new_prob, new_cands, common & adj[u],
                banned)
            clique.pop()
        pbranches += branched
        pskipped += nc - branched

    # Root branch loop over the plan's branch list.  Root pi values are
    # exactly 1.0 and the root clique probability is 1.0.
    need = min_size - 1
    prune_live = min_size > 1
    rem_mask = 0
    for e in cands:
        rem_mask |= bits[e[0]]
    banned = 0
    full = comp.full_mask
    clique: list[int] = []
    for u in branches:
        bu = bits[u]
        rem_mask ^= bu
        if prune_live and (rem_mask & adj[u]).bit_count() < need:
            branch_prunes += 1
            banned |= bu
            continue
        urow = rows[u]
        new_cands = []
        for v, pi_v in cands:
            if not rem_mask & bits[v]:
                continue
            p = urow[v]
            if p:
                piv = pi_v * p
                # Root clique_prob is exactly 1.0: new_prob == pi_u == 1.0.
                if piv >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_cands.append((v, piv))
        if prune_live and len(new_cands) < need:
            branch_prunes += 1
            banned |= bu
            continue
        clique.append(u)
        rec(clique, 1, 1.0, new_cands, full & adj[u], banned)
        clique.pop()

    stats.search_calls += calls
    stats.insearch_prunes += insearch_prunes
    stats.branch_size_prunes += branch_prunes
    stats.cliques += cliques
    stats.pivot_branches += pbranches
    stats.pivot_skipped += pskipped
    return out


# ----------------------------------------------------------------------
# Maximum: the MaxUC+ color-bound branch-and-bound over bitmask state
# ----------------------------------------------------------------------

def maximum_compiled(
    comp: CompiledComponent,
    color: list[int],
    k: int,
    tau_floor: float,
    min_size: int,
    best_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """MaxUC+ search of one *already compiled* component.

    ``color[i]`` is the greedy color of node id ``i``.  Mirrors the
    closure in ``maximum.max_uc_plus`` exactly, including the order in
    which the three color bounds and the in-search peel fire and every
    float they produce (the bounds are the compiled twins of
    :mod:`repro.core.bounds`).  There is no maximality test here, so the
    candidate loop matches legacy's shape with dense rows and the bound
    bookkeeping batched into local counters.
    """
    n = comp.n
    adj = comp.adj
    prob = comp.prob
    rows = comp.rows
    bits = comp.bits
    nodes = comp.nodes
    # Batched stats (flushed once per component; see _CALLS comment).
    calls = size_prunes = basic_prunes = adv1_prunes = 0
    adv2_prunes = ins_prunes = 0

    best: list[Node] | None = None

    def search(
        clique: list[int],
        clique_mask: int,
        clique_prob: float,
        cids: list[int],
        cpis: list[float],
        cand_mask: int,
    ) -> None:
        nonlocal best, best_size, calls, size_prunes, basic_prunes
        nonlocal adv1_prunes, adv2_prunes, ins_prunes
        calls += 1
        clique_len = len(clique)
        if clique_len > best_size:
            best = [nodes[i] for i in clique]
            best_size = clique_len
        if not cids:
            return

        # Bounds, cheapest first (Section V implementation details).
        if clique_len + len({color[v] for v in cids}) <= best_size:
            basic_prunes += 1
            return
        if use_advanced_one:
            best_per_color: dict[int, float] = {}
            for j in range(len(cids)):
                c = color[cids[j]]
                pi_v = cpis[j]
                if pi_v > best_per_color.get(c, 0.0):
                    best_per_color[c] = pi_v
            bound = _prefix_budget(
                sorted(best_per_color.values(), reverse=True),
                clique_prob, tau_floor,
            )
            if clique_len + bound <= best_size:
                adv1_prunes += 1
                return
        if use_advanced_two and clique:
            tightest: int | None = None
            for w in clique:
                wrow = prob[w]
                best_per_color = {}
                for v in cids:
                    p = wrow.get(v)
                    if p is None:
                        continue  # v cannot join anyway; skip for w's budget
                    c = color[v]
                    if p > best_per_color.get(c, 0.0):
                        best_per_color[c] = p
                budget = _prefix_budget(
                    sorted(best_per_color.values(), reverse=True),
                    clique_prob, tau_floor,
                )
                if tightest is None or budget < tightest:
                    tightest = budget
                    if tightest == 0:
                        break
            bound = tightest if tightest is not None else 0
            if clique_len + bound <= best_size:
                adv2_prunes += 1
                return

        if insearch and clique_len < min_size:
            members = clique_mask | cand_mask
            alive = topk_peel_masks(comp, members, clique_mask, k, tau_floor)
            if alive is None or alive.bit_count() < min_size:
                ins_prunes += 1
                return
            if alive != members:
                ins_prunes += 1
                pruned = alive & cand_mask
                if pruned != cand_mask:
                    cand_mask = pruned
                    keep_ids: list[int] = []
                    keep_pis: list[float] = []
                    for j in range(len(cids)):
                        v = cids[j]
                        if pruned >> v & 1:
                            keep_ids.append(v)
                            keep_pis.append(cpis[j])
                    cids = keep_ids
                    cpis = keep_pis

        nc = len(cids)
        rem_mask = cand_mask
        i = 0
        while i < nc:
            if clique_len + nc - i <= best_size:
                size_prunes += 1
                return
            u = cids[i]
            pi_u = cpis[i]
            i += 1
            rem_mask ^= bits[u]
            new_prob = clique_prob * pi_u
            new_ids: list[int] = []
            new_pis: list[float] = []
            new_mask = 0
            if rows is not None:
                urow = rows[u]
                for j in range(i, nc):
                    v = cids[j]
                    p = urow[v]
                    if p:
                        piv = cpis[j] * p
                        # Hot path: tau_floor = threshold_floor(tau).
                        if new_prob * piv >= tau_floor:  # repro-lint: ignore[RPL001]
                            new_ids.append(v)
                            new_pis.append(piv)
                            new_mask |= bits[v]
            else:
                drow = prob[u]
                get = drow.get
                for j in range(i, nc):
                    v = cids[j]
                    dp = get(v)
                    if dp is not None:
                        piv = cpis[j] * dp
                        # Same precomputed-floor fast path, dict fallback.
                        if new_prob * piv >= tau_floor:  # repro-lint: ignore[RPL001]
                            new_ids.append(v)
                            new_pis.append(piv)
                            new_mask |= bits[v]
            clique.append(u)
            search(
                clique, clique_mask | bits[u], new_prob, new_ids, new_pis,
                new_mask,
            )
            clique.pop()

    search([], 0, 1.0, list(range(n)), [1.0] * n, comp.full_mask)
    stats.search_calls += calls
    stats.size_bound_prunes += size_prunes
    stats.basic_color_prunes += basic_prunes
    stats.advanced_one_prunes += adv1_prunes
    stats.advanced_two_prunes += adv2_prunes
    stats.insearch_prunes += ins_prunes
    return best, best_size


def _prefix_budget(
    values: list[float], clique_prob: float, tau_floor: float
) -> int:
    """Longest prefix of descending ``values`` whose running product with
    ``clique_prob`` stays at least tau — the compiled twin of
    :func:`repro.core.bounds._prefix_budget` (same floats, same order)."""
    count = 0
    running = clique_prob
    for value in values:
        running *= value
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        if running < tau_floor:  # repro-lint: ignore[RPL001]
            break
        count += 1
    return count
