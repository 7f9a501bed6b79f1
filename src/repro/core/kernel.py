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
   intersections are a single ``&``), and dense probability rows (plain
   float lists indexed by node id, ``0.0`` marking non-edges).

Every search component is small enough for those forms.  A cut piece
above :data:`KERNEL_COMPONENT_LIMIT` nodes is never compiled whole: it
is searched as one small view per vertex ``v`` — ``v`` plus the
neighbours after it in a degeneracy order of the piece
(:func:`piece_order`, the Eppstein–Löffler–Strash decomposition), so a
view has at most ``degeneracy + 1`` nodes.  Enumeration forces each
view's root branch to ``v`` (:func:`vertex_views`) and drops the
cliques an earlier neighbour extends (:func:`drop_extended`);
MaxUC+ searches each view as one more component.

The pivot enumeration keeps the candidate set ``C`` as a list of
``(id, pi)`` pairs shaped like the paper's ``MUC`` loop (measured faster
than bit-extraction for the tree's many small calls) and adds one
mask-powered shortcut a list-based recursion cannot afford:

* the excluded set ``X`` is never materialised.  The paper's recursion
  filters an explicit ``X`` list on every branch only to test
  ``X == empty`` at leaves.  The kernel instead maintains ``common``,
  the intersection of ``adj[r]`` over the current clique (one ``&`` per
  recursion step), and a ``banned`` mask of branch-size-pruned
  candidates (which the recursion deliberately keeps out of ``X``).  At
  a leaf (``C`` empty) a node ``x`` would sit in ``X`` iff
  ``x in common & ~banned`` and
  ``CPr(R) * pi_x(R) >= tau_floor``: every node of the component either
  died on an adjacency filter (not in ``common``), was branch-size
  pruned above (``banned``), or was passed over/threshold-filtered — and
  for those the incremental compares along the path are all implied by
  the final one, because IEEE multiplication by factors ``<= 1`` is
  monotone non-increasing.  Recomputing ``pi_x`` in canonical clique order
  reproduces the recursion's float sequence bit for bit, so emission
  decisions match it while the per-branch ``X`` filtering work
  disappears.

Results are decompiled back to the original node labels.  The pivot
enumeration emits the *set* of cliques the plain recursion would, in
its own branch order; :func:`maximum_compiled` returns the canonical
maximum clique.  Both are pinned against brute force and the MULE-style
oracle of ``tests/core/oracles.py`` by ``tests/core/test_conformance.py``.

The entry points are :func:`enumerate_pivot_range` (the pivoted MUC
recursion of Algorithm 4) and :func:`maximum_compiled` (the MaxUC+
color-bound branch-and-bound); both search one component or per-vertex
view as produced by the pruning/cut pipeline.  The pre-search
(Top_k, tau)-core itself has a compiled twin in
:func:`repro.core.topk_core.topk_core_arrays`.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from repro.core.cut_pruning import Rows, local_ids
from repro.core.prune_kernel import node_sort_key
from repro.core.topk_core import topk_peel_masks
from repro.deterministic.core_decomposition import core_peel
from repro.uncertain.graph import Node, UncertainGraph

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (types only)
    from repro.core.enumeration import EnumerationStats
    from repro.core.maximum import MaximumSearchStats

__all__ = [
    "CompiledComponent",
    "compile_component",
    "CutRows",
    "derive_component_view",
    "piece_order",
    "VertexView",
    "vertex_views",
    "drop_extended",
    "node_sort_key",
    "iter_bits",
    "enumerate_pivot_range",
    "maximum_compiled",
    "KERNEL_COMPONENT_LIMIT",
]

#: Set-bit iteration works through masks 64 bits at a time: each chunk is a
#: machine-word int, so the extraction loop never does big-int arithmetic.
_CHUNK_MASK = 0xFFFFFFFFFFFFFFFF

#: Largest cut piece the kernel searches as one view.  Above it every
#: bitmask op would pay O(n / 64) words even deep in the tree where the
#: candidate sets are tiny, and the dense rows O(n^2) memory, so
#: :func:`repro.core.pipeline.cut_stage` splits a larger piece into
#: per-vertex views (:func:`vertex_views` for enumeration, sub-pieces
#: for MaxUC+) of at most ``degeneracy + 1`` nodes each.
KERNEL_COMPONENT_LIMIT = 1024


#: Conservative relative safety margin on the pivot absorption test.
#: Skipping the branches of an absorbed set ``T`` is sound only when the
#: canonical witness chain of every sub-clique would clear the floor;
#: the greedy absorption computes ``CPr(R + T + {u})`` in its own
#: (incremental) multiplication order, so the skip threshold is raised
#: by more than the worst-case reassociation rounding error (bounded by
#: ``#factors * 2^-53 < 1e-10`` within a component of <= 1024 nodes) —
#: a skip can then never lose a clique the plain recursion would emit.
_PIVOT_SAFETY = 1.0 + 1e-9


class CompiledComponent:
    """One component compiled to dense-int, bitmask and CSR form.

    ``nodes[i]`` is the original label of id ``i``; ids follow the
    library's deterministic node order, so ascending-id iteration
    follows the ``node_sort_key`` candidate order.  The CSR rows
    (``row_offsets`` / ``nbr_ids`` / ``nbr_probs``) are sorted by
    descending probability (ties by id) so a top-k scan reads a prefix.
    ``bits[i]`` caches ``1 << i`` (big-int shifts are not free), and
    ``rows`` holds the dense probability rows.  These are the only forms
    a kernel reads.

    The constructor compiles a graph from scratch and stays the
    independent oracle the derived views are checked against;
    :meth:`from_rows` builds a view from the node labels and their rows
    alone (:func:`derive_component_view`).
    """

    __slots__ = (
        "nodes",
        "n",
        "adj",
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

        adj: list[int] = []
        rows: list[list[float]] = []
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
            flat = [0.0] * n
            for j, p in row.items():
                flat[j] = p
            rows.append(flat)
            for j, p in sorted(row.items(), key=lambda e: (-e[1], e[0])):
                nbr_ids.append(j)
                nbr_probs.append(p)
            row_offsets.append(len(nbr_ids))

        self.nodes = order
        self.n = n
        self.adj = adj
        self.rows = rows
        self.bits = bits
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.full_mask = (1 << n) - 1 if n else 0

    @classmethod
    def from_rows(
        cls,
        order: list[Node],
        rows: Iterable[Iterable[tuple[int, float]]],
        local: Sequence[int | None],
    ) -> CompiledComponent:
        """The view builder: a component from its labels (in id order)
        and, per id, its ``(neighbour, p)`` entries, where ``local``
        maps a neighbour to its id here (``None``: not a member).

        Each row keeps its member entries as ``(-probability, id)``
        pairs, sorted — negation flips only the sign bit, so the stored
        floats are the row's own — and every form (CSR, bitmask rows,
        dense rows) is built from that sorted row.
        """
        view = cls.__new__(cls)
        n = len(order)
        bits = [1 << i for i in range(n)]
        adj: list[int] = []
        flat_rows: list[list[float]] = []
        row_offsets = array("l", [0])
        nbr_ids = array("l")
        nbr_probs = array("d")
        for row in rows:
            kept = sorted([
                (-p, li) for j, p in row if (li := local[j]) is not None
            ])
            ids = [j for _, j in kept]
            ps = [-negp for negp, _ in kept]
            nbr_ids.extend(ids)
            nbr_probs.extend(ps)
            row_offsets.append(len(nbr_ids))
            mask = 0
            for j in ids:
                mask |= bits[j]
            adj.append(mask)
            flat = [0.0] * n
            for j, p in zip(ids, ps):
                flat[j] = p
            flat_rows.append(flat)
        view.nodes = order
        view.n = n
        view.adj = adj
        view.rows = flat_rows
        view.bits = bits
        view.row_offsets = row_offsets
        view.nbr_ids = nbr_ids
        view.nbr_probs = nbr_probs
        view.full_mask = (1 << n) - 1 if n else 0
        return view

    def decompile(self, mask: int) -> frozenset[Node]:
        """Original labels of the nodes whose bits are set in ``mask``."""
        nodes = self.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))


def compile_component(graph: UncertainGraph) -> CompiledComponent:
    """Compile ``graph`` (typically one connected component) for search."""
    return CompiledComponent(graph)


class CutRows(NamedTuple):
    """Rows a cut read for a set of prune survivors, detached from the
    lowering: local id ``i`` is node ``labels[i]``, of whole-graph
    ``sort_rank`` ``ranks[i]``, and ``rows[i]`` lists its in-set
    ``(local id, p)`` entries
    (:func:`~repro.core.cut_pruning.induced_rows`).

    Every list is the cut's own copy, so views built from it later read
    no live graph or lowering.
    """

    labels: list[Node]
    ranks: list[int]
    rows: Rows


def derive_component_view(
    source: CutRows, members: Sequence[int]
) -> CompiledComponent:
    """Build a component's :class:`CompiledComponent` from the rows a
    cut read, without touching the :class:`UncertainGraph` or the
    lowering.

    ``members`` are local ids in ``source``, as a cut piece holds them,
    and must be the node set of one pipeline component.  The pruning
    stage removes *nodes* (edges among survivors are untouched) and
    every edge the cut optimization removes crosses two final
    components — so the rows ``members`` induce in ``source`` are
    exactly the component's adjacency.  The view is bit-identical to
    ``compile_component(component)``:

    * local ids renumber the members by ascending ``sort_rank``, which
      restricted to any subset equals the component's own
      :func:`node_sort_key` sort;
    * :meth:`CompiledComponent.from_rows` filters each row to the
      members, sorts it and builds every form.

    The view is a deep **snapshot**: its arrays are freshly built, never
    aliases of the source's lists.
    """
    labels, ranks, rows = source
    piece = sorted(members, key=ranks.__getitem__)
    return CompiledComponent.from_rows(
        [labels[i] for i in piece],
        (rows[i] for i in piece),
        local_ids(len(rows), piece),
    )


# ----------------------------------------------------------------------
# Per-vertex views of a piece above the kernel limit
# ----------------------------------------------------------------------

def piece_order(
    rows: Rows, piece: Sequence[int]
) -> tuple[list[int], list[int], list[dict[int, float]]]:
    """A degeneracy order of ``piece``, a sorted list of local ids of
    the cut's ``rows``, and the piece's adjacency.

    Returns ``(order, pos, nbr)`` over places in ``piece``: ``order``
    lists them in degeneracy order, ``pos[x]`` is ``x``'s place in it
    and ``nbr[x]`` maps each neighbour of ``x`` inside the piece to the
    edge's probability.  The Batagelj–Zaversnik peel
    (:func:`~repro.deterministic.core_decomposition.core_peel`) takes
    O(n + m): it repeatedly removes a node of least remaining degree,
    so a node has at most its core number of neighbours after it.  The
    order reads the piece's own rows alone, never a whole-graph peel
    order, so it is the same whatever happens in other components.
    """
    at = {g: x for x, g in enumerate(piece)}
    nbr = [
        {x: p for j, p in rows[g] if (x := at.get(j)) is not None}
        for g in piece
    ]
    _, order = core_peel(nbr)
    pos = [0] * len(piece)
    for i, x in enumerate(order):
        pos[x] = i
    return order, pos, nbr


class VertexView(NamedTuple):
    """One vertex ``v``'s enumeration view of a piece above
    :data:`KERNEL_COMPONENT_LIMIT`.

    ``view`` compiles ``v`` and its later neighbours, ``root`` is
    ``v``'s id in it and ``members[i]`` is view id ``i``'s place in the
    piece.  ``witnesses`` holds the piece adjacency of each earlier
    neighbour ``w`` of ``v`` with more than ``k`` neighbours (keyed by
    place, shared by every view ``w`` is a witness of).
    """

    view: CompiledComponent
    root: int
    members: list[int]
    witnesses: tuple[dict[int, float], ...]


def vertex_views(
    source: CutRows, piece: Sequence[int], k: int
) -> Iterator[VertexView]:
    """The per-vertex enumeration views of one cut piece, in the
    piece's degeneracy order (:func:`piece_order`), each built only
    when the caller asks for it.

    ``piece`` and ``source`` are as for :func:`derive_component_view`.
    A maximal clique holds exactly one
    vertex ``v`` that comes first in the order, and it lies in ``v``'s
    view: ``v`` plus its later neighbours.  Searched with the root
    branch forced to ``v``, the view emits the cliques through ``v``
    that no later neighbour extends; :func:`drop_extended` then drops
    those an earlier one extends, so each maximal clique comes out once.
    A view of ``k`` nodes or fewer holds no (k, tau)-clique and is left
    out.  Each view is built by pairwise lookups in the piece's
    adjacency, O(|view|^2), and is bit-identical to
    ``compile_component`` of its induced subgraph.  Built one at a time,
    a search holds one view of the piece, never all of them.
    """
    labels, ranks, rows = source
    order, pos, nbr = piece_order(rows, piece)
    key = [ranks[g] for g in piece]
    for x in order:
        here = pos[x]
        around = nbr[x]
        members = sorted(
            [x, *(y for y in around if pos[y] > here)], key=key.__getitem__
        )
        if len(members) <= k:
            continue
        view = CompiledComponent.from_rows(
            [labels[piece[y]] for y in members],
            (
                [(j, p) for j, z in enumerate(members)
                 if (p := nbr[y].get(z)) is not None]
                for y in members
            ),
            range(len(members)),
        )
        witnesses = tuple(
            nbr[w] for w in around if pos[w] < here and len(nbr[w]) > k
        )
        yield VertexView(view, members.index(x), members, witnesses)


def drop_extended(
    vv: VertexView, cliques: list[frozenset[Node]], tau_floor: float
) -> list[frozenset[Node]]:
    """The cliques ``vv``'s search emitted that no earlier neighbour
    extends.

    Each test is the kernel's leaf witness test: the clique's canonical
    chain in ascending view id, times ``p(r, w)`` multiplied in that
    same order, against ``tau_floor`` — so each decision is the plain
    recursion's, bit for bit.
    """
    if not vv.witnesses:
        return cliques
    ids = {u: i for i, u in enumerate(vv.view.nodes)}
    root = vv.members[vv.root]  # every witness is adjacent to it
    kept = []
    for clique in cliques:
        order = sorted(map(ids.__getitem__, clique))
        places = [vv.members[r] for r in order]
        others = [r for r in places if r != root]
        prob = _canonical_probability(vv.view.rows, order)
        for wrow in vv.witnesses:
            for r in others:
                if r not in wrow:
                    break  # not adjacent: no extension
            else:
                pi = 1.0
                for r in places:
                    pi *= wrow[r]
                # Hot path: tau_floor = threshold_floor(tau).
                if prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                    break
        else:
            kept.append(clique)
    return kept


def _canonical_probability(
    rows: list[list[float]], order: list[int]
) -> float:
    """A clique's probability as the plain recursion builds it along its
    path: each member's product to the members before it, in ascending
    id order ``order``, folded in that order."""
    prob = 1.0
    for j, vj in enumerate(order):
        pi = 1.0
        for i in order[:j]:
            pi *= rows[i][vj]
        prob = prob * pi
    return prob


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
# Emission stays on the plain recursion's predicate: at a leaf the
# clique probability and every witness chain are *recomputed in
# canonical ascending-id order* — the exact nested float sequence the
# unpivoted recursion builds along its path — so the emitted set of
# cliques, and each clique's probability chain, are bit-identical to
# it.  (The descent filters multiply in pivot path order; a filter
# verdict can in principle differ from the canonical one when a partial
# product lands within ~1 ulp of the threshold floor, a measure-zero
# event documented in docs/performance.md and never observed by the
# parity suites.)  The recursion's own products are not one per set
# either: a clique is decided by its path product and its one-node
# extensions by ``CPr(C) * pi_v(C)``, so where tau's floor lands on a
# clique's probability a clique and one of its subsets can both be
# emitted (docs/performance.md).  Yield order follows the pivot
# recursion; parity is on the set.


def enumerate_pivot_range(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
    root: int | None = None,
) -> list[frozenset[Node]]:
    """Pivot-engine search of one component: its maximal (k, tau)-cliques.

    The root call is one node of the recursion below with ``R`` empty
    and every id a candidate: it counts the root search call, applies
    the root in-search core gate (Algorithm 4 lines 12-15) and picks the
    root pivot.  A per-vertex view (:class:`VertexView`) passes its
    vertex as ``root`` instead: the search then starts from the one
    branch ``R = {root}``, whose candidates are the root's neighbours
    whose edge clears the floor, so it emits the cliques through
    ``root`` that no node of the view extends.
    """
    rows = comp.rows
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
            # float sequence the unpivoted recursion builds along its
            # path) and run the witness scan against it — emission
            # decisions are bit-identical to that recursion's.
            if clique_len >= min_size:
                order = sorted(clique)
                prob = _canonical_probability(rows, order)
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
            # 12-15), as a bitmask peel.
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

    if root is None:
        rec([], 0, 1.0, [(v, 1.0) for v in range(comp.n)], comp.full_mask, 0)
    else:
        # Hot path: tau_floor = threshold_floor(tau); a non-edge is 0.0.
        first = [(v, p) for v, p in enumerate(rows[root]) if p >= tau_floor]  # repro-lint: ignore[RPL001]
        rec([root], 1, 1.0, first, adj[root], 0)

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

    ``color[i]`` is the greedy color of node id ``i``.  The three color
    bounds of Section V fire cheapest first, then the in-search peel:
    the basic ``col(C)``, Eq. (8)'s ``r-bar`` over the per-color maxima
    of the candidates' ``pi``, and Eq. (9)'s ``s-bar``, the least such
    budget over the members' edge rows (``tests/core/oracles.py`` holds
    their definitions on a dict coloring).  There is no
    maximality test here, so the candidate loop is the plain
    branch-and-bound over dense rows, with the bound bookkeeping
    batched into local counters.  ``comp`` is a whole cut
    piece or, for a piece above :data:`KERNEL_COMPONENT_LIMIT`, one of
    its per-vertex sub-pieces; either way it has dense rows.
    """
    n = comp.n
    adj = comp.adj
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
                # A non-neighbour v cannot join anyway: skip it for w's
                # budget.  Probabilities lie in (0, 1], so a row's 0.0
                # marks one.
                best_per_color = {}
                wrow = rows[w]
                for v in cids:
                    p = wrow[v]
                    if p:
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
    ``clique_prob`` stays at least tau: the same floats, multiplied in
    the same order, as ``prefix_budget(values, clique_prob, tau)`` of
    ``tests/core/oracles.py``, compared against the floor."""
    count = 0
    running = clique_prob
    for value in values:
        running *= value
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        if running < tau_floor:  # repro-lint: ignore[RPL001]
            break
        count += 1
    return count
