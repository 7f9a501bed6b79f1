"""Compiled search kernel for the MUCE/MaxUC+ hot paths.

The enumeration (:mod:`repro.core.enumeration`) and the maximum search
(:mod:`repro.core.maximum`) never search :class:`UncertainGraph`'s
dict-of-dicts adjacency, where every candidate filter would be a
per-edge hash lookup on arbitrary node objects.  Each search component
is searched on a *view* (:class:`CompiledComponent`), built from the
rows the cut read (:func:`derive_component_view`; :func:`compile_component`
builds the same view from a subgraph and is the parity oracle):

1. nodes are mapped to dense ints ``0 .. n-1`` in the library's
   deterministic order, so the compiled id order doubles as the search
   order — computed exactly once per component;
2. adjacency is materialised in the two forms the searches read:
   Python-int bitmask rows (one ``n``-bit integer per node, so neighbor
   intersections are a single ``&``) and dense probability rows (plain
   float lists indexed by node id, ``0.0`` marking non-edges).  Nothing
   is sorted when a view is built.  The in-search core peel, the one
   reader that wants each row in descending-probability order, sorts a
   node's row the first time it tests the node and keeps it on the view
   (``CompiledComponent.ranked``); a piece the cut leaves is its own
   (Top_k, tau)-core, so its search skips the peel at the root and most
   views are never sorted at all.

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
  ``x in common & ~banned`` and ``R + {x}`` is a tau-clique: every node
  of the component either died on an adjacency filter (not in
  ``common``), was branch-size pruned above (``banned``), or was passed
  over or threshold-filtered, and the leaf tests those against the
  whole clique, so the per-branch ``X`` filtering work disappears.

Every tau test of the enumeration — a candidate filter and a leaf's
witness test — decides the grown set by its *canonical* product, the
one brute force and :func:`~repro.uncertain.clique_prob.
clique_probability` compute: ``CPr`` over the members in
``node_sort_key`` (ascending id) order, folded row by row.  The
incremental product the search carries decides wherever it lies
outside a relative :data:`_NEAR` band around the floor, which bounds
the reassociation error; inside the band the canonical product is
computed (:func:`_clears`).  A clique and one of its subsets can then
never both be emitted, whatever member order reached them.  The tests
that only discard — the in-search (Top_k, tau)-core peel and MaxUC+'s
color budgets — multiply their own products in their own orders, so
they run at the band's lower edge, ``floor / _NEAR``: they never
discard a set whose canonical product clears the floor.  The
pre-search peels and the cut still test at the floor itself (see
``docs/performance.md``).

Results are decompiled back to the original node labels.  The pivot
enumeration emits the *set* of cliques the plain recursion would, in
its own branch order; :func:`maximum_compiled` returns the canonical
maximum clique.  Both are pinned against brute force and the MULE-style
oracle of ``tests/core/oracles.py`` by ``tests/core/test_conformance.py``.

The entry points are :func:`enumerate_pivot_range` (the pivoted MUC
recursion of Algorithm 4) and :func:`maximum_compiled` (the MaxUC+
color-bound branch-and-bound); both search one component or per-vertex
view as produced by the pruning/cut pipeline.  The in-search
(Top_k, tau)-core peel runs over a view's bitmasks
(:func:`repro.core.topk_core.topk_peel_masks`); the pre-search one runs
over the whole-graph lowering (:func:`repro.core.prune_kernel.topk_peel`).
"""

from __future__ import annotations

from array import array
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Sequence,
)

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
#: candidate sets are tiny, and the dense rows O(n^2) memory, so a
#: larger piece is searched as per-vertex views (:func:`vertex_views`
#: for enumeration, the sub-pieces :func:`repro.core.pipeline.cut_stage`
#: makes for MaxUC+) of at most ``degeneracy + 1`` nodes each.  The
#: session reads it from :mod:`repro.core.enumeration` once per query
#: and hands it to the cut and the search.
KERNEL_COMPONENT_LIMIT = 1024


#: Relative band around the floor inside which an incremental product
#: does not decide.  A clique's canonical product (``CPr`` over its
#: members in ascending id order, row by row, as
#: :func:`~repro.uncertain.clique_prob.clique_probability` folds it) and
#: any incremental product of the same edges differ by less than the
#: reassociation error, ``#factors * 2^-53 < 1e-10`` within a view of
#: <= 1024 nodes.  So an incremental product at or above
#: ``floor * _NEAR`` certifies the canonical one clears the floor, one
#: below ``floor / _NEAR`` certifies it does not, and in between the
#: canonical product is computed.  The pivot absorption skips branches
#: only above ``floor * _NEAR``, so every sub-clique it skips is
#: extended by the pivot by its canonical product too; the in-search
#: peel and the color budgets discard only below ``floor / _NEAR``.
_NEAR = 1.0 + 1e-9


class CompiledComponent:
    """One component compiled to dense ids, bitmask rows and dense rows.

    ``nodes[i]`` is the original label of id ``i``; ids follow the
    library's deterministic node order, so ascending-id iteration
    follows the ``node_sort_key`` candidate order.  ``adj[i]`` is id
    ``i``'s neighbour mask, ``rows[i]`` its dense probability row
    (``0.0`` marks a non-edge) and ``bits[i]`` caches ``1 << i``
    (big-int shifts are not free): the search kernels read these.
    ``ranked[i]`` is the in-search core peel's one form, built on its
    first read of ``i`` (:func:`~repro.core.topk_core.topk_peel_masks`):
    ``i``'s neighbours by descending probability, ties by id, as an
    ``array('l')`` of ids whose probabilities the dense row holds.

    The constructor compiles a graph from scratch, from its own
    ``incident()`` rows and node order, and is the oracle the derived
    views are checked against; :meth:`from_rows` builds a view from the
    node labels and their rows alone (:func:`derive_component_view`).
    Both fill the forms from id-keyed entries the same way.
    """

    __slots__ = ("nodes", "n", "adj", "rows", "bits", "ranked", "full_mask")

    def __init__(self, graph: UncertainGraph) -> None:
        order = sorted(graph.nodes(), key=node_sort_key)
        index = {u: i for i, u in enumerate(order)}
        self._fill(
            order,
            ([(index[v], p) for v, p in graph.incident(u).items()]
             for u in order),
            range(len(order)),
        )

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

        Each member entry sets its bit and its dense-row slot; nothing
        is sorted.
        """
        view = cls.__new__(cls)
        view._fill(order, rows, local)
        return view

    def _fill(
        self,
        order: list[Node],
        rows: Iterable[Iterable[tuple[int, float]]],
        local: Sequence[int | None],
    ) -> None:
        n = len(order)
        bits = [1 << i for i in range(n)]
        adj: list[int] = []
        flat_rows: list[list[float]] = []
        for row in rows:
            mask = 0
            flat = [0.0] * n
            for j, p in row:
                li = local[j]
                if li is not None:
                    mask |= bits[li]
                    flat[li] = p
            adj.append(mask)
            flat_rows.append(flat)
        self.nodes = order
        self.n = n
        self.adj = adj
        self.rows = flat_rows
        self.bits = bits
        self.ranked: list[array[int] | None] = [None] * n
        self.full_mask = (1 << n) - 1 if n else 0

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
    * :meth:`CompiledComponent.from_rows` sets each member entry's bit
      and dense-row slot, skipping the entries of non-members; nothing
      is sorted.

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
    piece.  ``witnesses`` lists the places of ``v``'s earlier
    neighbours with more than ``k`` neighbours.  ``nbr[x]`` maps each
    neighbour of place ``x`` to the edge's probability and ``key[x]``
    is its sort rank; both are the piece's, shared by all its views.
    """

    view: CompiledComponent
    root: int
    members: list[int]
    witnesses: tuple[int, ...]
    nbr: list[dict[int, float]]
    key: list[int]


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
            w for w in around if pos[w] < here and len(nbr[w]) > k
        )
        yield VertexView(view, members.index(x), members, witnesses, nbr, key)


def drop_extended(
    vv: VertexView, cliques: list[frozenset[Node]], tau_floor: float
) -> list[frozenset[Node]]:
    """The cliques ``vv``'s search emitted that no earlier neighbour
    extends.

    Each test is the kernel's leaf witness test: the clique's canonical
    product times ``p(r, w)`` over its members, against ``tau_floor``;
    within :data:`_NEAR` of the floor the canonical product of the
    clique plus ``w`` decides, so each decision is brute force's.
    """
    if not vv.witnesses:
        return cliques
    ids = {u: i for i, u in enumerate(vv.view.nodes)}
    root = vv.members[vv.root]  # every witness is adjacent to it
    nbr, key = vv.nbr, vv.key
    kept = []
    for clique in cliques:
        order = sorted(map(ids.__getitem__, clique))
        places = [vv.members[r] for r in order]
        others = [r for r in places if r != root]
        prob = _clique_product(vv.view.rows, order)
        for w in vv.witnesses:
            wrow = nbr[w]
            for r in others:
                if r not in wrow:
                    break  # not adjacent: no extension
            else:
                pi = prob
                for r in places:
                    pi *= wrow[r]
                if _clears(
                    pi, tau_floor, nbr, [*places, w], key.__getitem__
                ):
                    break
        else:
            kept.append(clique)
    return kept


def _clears(
    value: float,
    tau_floor: float,
    rows: Sequence[Sequence[float] | dict[int, float]],
    members: list[int],
    key: Callable[[int], int] | None = None,
) -> bool:
    """Whether the clique ``members``, whose incremental product is
    ``value``, clears ``tau_floor``: ``value`` decides outside the
    :data:`_NEAR` band, the canonical product (members sorted by
    ``key``, ids by default) inside it."""
    # Off the hot path: the search tests the band inline and calls this
    # only inside it.
    if value < tau_floor / _NEAR:  # repro-lint: ignore[RPL001]
        return False
    if value >= tau_floor * _NEAR:  # repro-lint: ignore[RPL001]
        return True
    order = sorted(members, key=key)
    return _clique_product(rows, order) >= tau_floor  # repro-lint: ignore[RPL001]


def _clique_product(
    rows: Sequence[Sequence[float] | dict[int, float]], order: list[int]
) -> float:
    """The canonical product of the clique ``order`` lists in
    ``node_sort_key`` order: every member's row, from the members after
    it, folded row by row — :func:`~repro.uncertain.clique_prob.
    clique_probability`'s float sequence."""
    prob = 1.0
    for i, u in enumerate(order):
        row = rows[u]
        for v in order[i + 1:]:
            prob *= row[v]
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
# implemented here is the *absorbing* pivot: greedily grow an
# absorption set T inside C & Γ(u) while R + T + {u} stays a structural
# clique AND its clique probability stays above the floor by the _NEAR
# margin.  Then for every K subset of R + T, the superset chain gives
# CPr(K + {u}) >= CPr(R + T + {u}) >= tau, so u extends K and K is not
# maximal — branching on T can be skipped wholesale.
#
# The argument needs only that u is adjacent to R + T with that
# product, not that u is a candidate, so u is either a *candidate
# pivot* (the candidate of largest popcount cover |C & Γ(u)|) or a
# *witness pivot*: a node of common & ~banned outside C — Tomita's
# pivot likewise ranges over SUBG = CAND ∪ FINI — whose product to R
# clears the margined floor.  The candidate pivot absorbs first; a
# witness's absorption is computed only when its cover exceeds the best
# absorption so far (an absorption never exceeds the cover), and the
# search stops trying once every candidate is absorbed, which only a
# witness can do.  The largest absorption wins.  Vertices outside T
# still branch, and the skipped vertices are *carried forward* into
# every child's candidate list (a child of branch q receives
# (C \ branched-so-far) & Γ_tau(q), absorbed members included), which
# preserves the unique-path argument: a clique's next vertex is always
# its first member in branch order, so no clique is reached twice.
#
# Emission is brute force's predicate: every filter and witness test
# decides its set by the canonical product (the module docstring), and
# the absorption clears ``floor * _NEAR``, above the band, so a skipped
# sub-clique is non-maximal by its canonical product too.  Yield order
# follows the pivot recursion; parity is on the set.


def enumerate_pivot_range(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
    root: int | None = None,
    core: bool = False,
) -> list[frozenset[Node]]:
    """Pivot-engine search of one component: its maximal (k, tau)-cliques.

    The root call is one node of the recursion below with ``R`` empty
    and every id a candidate: it counts the root search call, applies
    the root in-search core gate (Algorithm 4 lines 12-15) and picks the
    root pivot.  ``core=True`` says the view is its own (Top_k,
    tau)-core, as the cut leaves its pieces: the root gate, Algorithm 3
    over the whole view, could remove nothing there and is skipped.  A
    per-vertex view (:class:`VertexView`) passes its
    vertex as ``root`` instead: the search then starts from the one
    branch ``R = {root}``, whose candidates are the root's neighbours
    whose edge clears the floor, so it emits the cliques through
    ``root`` that no node of the view extends.
    """
    rows = comp.rows
    adj = comp.adj
    bits = comp.bits
    nodes = comp.nodes
    near_hi = tau_floor * _NEAR
    near_lo = tau_floor / _NEAR
    out: list[frozenset[Node]] = []
    # Batched stats, flushed once per component (attribute access on the
    # stats object is too slow for the recursion's call volume).
    calls = insearch_prunes = branch_prunes = cliques = 0
    pbranches = pskipped = 0

    def absorb(
        cands: list[tuple[int, float]],
        t_adj: int,
        budget: float,
        urow: list[float],
    ) -> int:
        # The greedy absorption set T of a pivot u (candidate or
        # witness) of adjacency t_adj, dense row urow and product
        # ``budget`` to the clique, as a mask: grow T inside C & Γ(u)
        # while R + T + {u} stays a clique whose product, in this
        # multiplication order, clears near_hi.
        skip = 0
        t_list: list[int] = []
        for v, pi_v in cands:
            bv = bits[v]
            if not bv & t_adj:
                continue
            prod = budget * pi_v * urow[v]
            if prod < near_hi:  # repro-lint: ignore[RPL001]
                continue
            vrow = rows[v]
            for t in t_list:
                prod *= vrow[t]
                if prod < near_hi:  # repro-lint: ignore[RPL001]
                    break
            else:
                skip |= bv
                t_list.append(v)
                t_adj &= adj[v]
                budget = prod
        return skip

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
            # Leaf.  The clique is a tau-clique: its last member passed
            # the candidate filter, which decides as the witness test
            # below does — by the canonical product, as brute force
            # decides, read off the incremental product outside the
            # _NEAR band and computed inside it (_clears).
            if clique_len >= min_size:
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
                        pi = clique_prob
                        for r in clique:
                            pi *= rows[r][w]
                            # Hot path: near_lo < threshold_floor(tau).
                            if pi < near_lo:  # repro-lint: ignore[RPL001]
                                break
                        else:
                            if pi >= near_hi or _clears(  # repro-lint: ignore[RPL001]
                                pi, tau_floor, rows, [*clique, w]
                            ):
                                blocked = True
                                wit = 0
                                break
                    base += 64
                if not blocked:
                    cliques += 1
                    out.append(frozenset(nodes[x] for x in clique))
            return

        nc = len(cands)
        if (
            nc >= insearch_min_candidates and insearch
            and clique_len < min_size and (clique_len or not core)
        ):
            # In-search (Top_k, tau)-core gate (Algorithm 4 lines
            # 12-15), as a bitmask peel; not at the root of a core.
            cand_mask = 0
            for e in cands:
                cand_mask |= bits[e[0]]
            clique_mask = 0
            for r in clique:
                clique_mask |= bits[r]
            # At near_lo: a top-k product in its own order may sit a
            # few ulps below a canonical product that clears the floor.
            alive = topk_peel_masks(
                comp, clique_mask | cand_mask, clique_mask, k, near_lo
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

        # Pivot selection (the pivot comment above): the candidate of
        # max popcount cover, ties to the lowest id, absorbs first, then
        # each witness whose cover beats the best absorption so far.
        skip_mask = 0
        absorbed = 0
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
                skip_mask = absorb(
                    cands, adj[best_u], clique_prob * best_pi, rows[best_u]
                )
                absorbed = skip_mask.bit_count()
        wit = common & ~banned & ~cand_mask
        base = 0
        while wit:
            chunk = wit & _CHUNK_MASK
            wit >>= 64
            while chunk:
                low = chunk & -chunk
                chunk ^= low
                w = base + low.bit_length() - 1
                w_adj = adj[w]
                if (w_adj & cand_mask).bit_count() <= absorbed:
                    continue  # its absorption cannot beat the best
                wrow = rows[w]
                budget = clique_prob
                for r in clique:
                    budget *= wrow[r]
                if budget < near_hi:  # repro-lint: ignore[RPL001]
                    continue
                mask = absorb(cands, w_adj, budget, wrow)
                count = mask.bit_count()
                if count > absorbed:
                    skip_mask = mask
                    absorbed = count
                    if count == nc:  # nothing left to branch on
                        wit = 0
                        break
            base += 64

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
                    prod = new_prob * piv
                    # Hot path: near_lo / near_hi bracket the floor.
                    if prod >= near_lo and (  # repro-lint: ignore[RPL001]
                        prod >= near_hi  # repro-lint: ignore[RPL001]
                        or _clears(prod, tau_floor, rows, [*clique, u, v])
                    ):
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
    core: bool = False,
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
    its per-vertex sub-pieces; either way it has dense rows.  A whole
    piece is its own (Top_k, tau)-core (``core=True``), so the in-search
    peel is skipped at its root, as :func:`enumerate_pivot_range` skips
    it.  The advanced bounds and the peel only discard, so they test at
    ``tau_floor / _NEAR`` (the module docstring).
    """
    n = comp.n
    adj = comp.adj
    rows = comp.rows
    bits = comp.bits
    nodes = comp.nodes
    near_hi = tau_floor * _NEAR
    near_lo = tau_floor / _NEAR
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
                clique_prob, near_lo,
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
                    clique_prob, near_lo,
                )
                if tightest is None or budget < tightest:
                    tightest = budget
                    if tightest == 0:
                        break
            bound = tightest if tightest is not None else 0
            if clique_len + bound <= best_size:
                adv2_prunes += 1
                return

        if insearch and clique_len < min_size and (clique_len or not core):
            members = clique_mask | cand_mask
            alive = topk_peel_masks(comp, members, clique_mask, k, near_lo)
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
                    prod = new_prob * piv
                    # Hot path: near_lo / near_hi bracket the floor, and
                    # the canonical product decides between them.
                    if prod >= near_lo and (  # repro-lint: ignore[RPL001]
                        prod >= near_hi  # repro-lint: ignore[RPL001]
                        or _clears(prod, tau_floor, rows, [*clique, u, v])
                    ):
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
    ``clique_prob`` stays at least ``tau_floor``: the same floats,
    multiplied in the same order, as ``prefix_budget(values,
    clique_prob, tau)`` of ``tests/core/oracles.py``, compared against
    the floor it is handed (:func:`maximum_compiled` hands the lower
    edge of the :data:`_NEAR` band)."""
    count = 0
    running = clique_prob
    for value in values:
        running *= value
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        if running < tau_floor:  # repro-lint: ignore[RPL001]
            break
        count += 1
    return count
