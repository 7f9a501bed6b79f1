"""Composable stages of the clique-search flow: compile, prune, cut, search.

The monolithic drivers (``maximal_cliques``, ``max_uc_plus``) are decomposed
here into four explicit stages, each a pure function from graph state and
parameters to a deterministic artifact:

* :func:`compile_stage` — the **single whole-graph lowering**: the
  graph's id rows, built on first read and kept in step by the graph's
  mutators, behind one parameter-free
  :class:`~repro.core.prune_kernel.CompiledGraph` view that serves the
  prune peels, the cut *and* the per-component search views.  The graph
  owns it: :func:`lowering` keeps the view on the graph and advances it
  to each new version, so every session, free function and core
  maintainer over one graph lowers it once.
* :func:`prune_stage` — core-based preprocessing (Lemmas 1 and 4): one
  compiled array peel, whose surviving node set it returns.
* :func:`cut_stage` — cut optimization / component split (Lemma 5) on
  one graph component's survivors (or an anchored query's core), given
  as compile ids; returns the search components as label tuples plus
  the counters the stats objects report, and beside them the rows the
  cut read, detached from the lowering, for the search
  (:func:`search_source` reads them again for a cached cut).  No
  subgraph is built.  For MaxUC+ it also grows a greedy lower bound on
  those rows, raises the cut to it, and splits a piece above the kernel
  size limit it is given into per-vertex sub-pieces.
* :func:`enumeration_search_stage` / :func:`maximum_search_stage` — the
  actual (sequential) search of one graph component's pieces after
  another, each search view built from the cut's rows when the search
  reaches its piece (member-filtered, no recompilation;
  :func:`~repro.core.kernel.compile_component` remains the parity
  oracle).  The enumeration builds each piece's
  :class:`~repro.core.kernel.CompiledComponent` view when its search
  starts, or one small view per vertex at a time for a piece above
  the kernel limit (:func:`~repro.core.kernel.vertex_views`), and
  drops it when the search ends.  MaxUC+ builds a piece's or
  sub-piece's view and greedy coloring together
  (:func:`piece_view`), only for the pieces its incumbent reaches,
  into a memo the session keeps per graph component.  No search reads
  the live graph.

Stage artifacts carry **no wall clocks**, and the only counters a cut
artifact carries are the pre-search ones the stats objects report; the
search counters accrue to the per-run stats object the search stage is
given.  The session caches a graph component's completed enumeration
as its cliques plus the counter deltas its search added, and a replay
adds them back, so a warm run yields bit-identical cliques, yield
order, and stats counters to a cold run.

Inside :mod:`repro.core` the only intended caller is the session layer
(:class:`repro.core.session.PreparedGraph`), which memoizes the artifacts
keyed by the graph's per-component epochs; repro-lint rule RPL007 flags
direct stage calls that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import AbstractSet, Any, Iterable, Iterator, Sequence

from repro.core.cut_pruning import (
    Rows,
    cut_rows,
    greedy_clique_size,
    induced_rows,
    split_rows,
)
from repro.core.enumeration import EnumerationStats
from repro.core.kernel import (
    CompiledComponent,
    CutRows,
    derive_component_view,
    drop_extended,
    enumerate_pivot_range,
    maximum_compiled,
    piece_order,
    vertex_views,
)
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    survival_peel,
    topk_peel,
)
from repro.deterministic.coloring import greedy_coloring_rows
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "CutArtifact",
    "Parts",
    "SearchSource",
    "lowering",
    "graph_components",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "search_source",
    "enumeration_search_stage",
    "piece_view",
    "maximum_search_stage",
]

# benchmarks/e2e/trace.py still wraps these names as search boundaries;
# the enumeration has the one entry, enumerate_pivot_range.
enumerate_root_range = enum_root_prep = pivot_root_plan = _muc = (
    enumerate_pivot_range
)
# ... and times the MaxUC+ coloring under this name (piece_view).
greedy_coloring = greedy_coloring_rows

#: ``(component id, epoch, members)`` per graph component.
Parts = tuple[tuple[int, int, tuple[Node, ...]], ...]

#: What an enumeration searches for one graph component: the rows its
#: cut read, and the pieces that can hold a (k, tau)-clique (more than
#: ``k`` nodes) as local ids in them, in component order.
SearchSource = tuple[CutRows, list[list[int]]]


# ----------------------------------------------------------------------
# Stage 0: compile (shared by prune and search)
# ----------------------------------------------------------------------

def lowering(graph: UncertainGraph) -> tuple[CompiledGraph, str]:
    """The graph's own lowering at its current version, and how it was
    resolved: ``"current"``, ``"delta"`` or ``"full"``.

    The lowering lives on the graph, so every session, free function and
    core maintainer over it shares one.  The first read builds it
    (:func:`compile_stage`, ``"full"``); a current one is returned as it
    stands.  The graph's mutators keep its rows in step, so one that is
    behind only has its memos advanced (:meth:`CompiledGraph.
    apply_delta`, ``"delta"``), whatever the mutations were.  The slot
    is cleared while that runs, so an advance that raises leaves no
    half-advanced view behind.
    """
    held = graph._lowering
    if isinstance(held, CompiledGraph):
        if held.version == graph.version:
            return held, "current"
        graph._lowering = None
        held.apply_delta(graph.version)
        graph._lowering = held
        return held, "delta"
    compiled = compile_stage(graph)
    graph._lowering = compiled
    return compiled, "full"


def graph_components(graph: UncertainGraph) -> Parts:
    """``(component id, epoch, members)`` per component of ``graph``,
    in canonical order.

    Members are in graph iteration order, and components are ordered
    by their first node's insertion position — the one canonical order
    every per-component assembly of the session concatenates in, so a
    warm assembly reproduces a cold run's component order exactly.
    Like the lowering, the walk is kept on the graph (``graph._walk``),
    so every session over it shares one.  The graph drops it only when
    component membership changes; then this walks the graph's
    incremental component map in O(n).  A held walk that is behind the
    graph's version (a reweight, an insert inside one component, a
    delete that splits nothing) gets only its epochs refreshed, in
    O(#components).
    """
    held = graph._walk
    if held is not None:
        version, parts = held
        if version != graph.version:
            epochs = dict(graph.component_keys())
            parts = tuple(
                (cid, epochs[cid], members) for cid, _, members in parts
            )
            graph._walk = (graph.version, parts)
        return parts
    buckets: dict[int, list[Node]] = {}
    order: list[int] = []
    for u in graph:
        cid = graph.component_id(u)
        bucket = buckets.get(cid)
        if bucket is None:
            buckets[cid] = bucket = []
            order.append(cid)
        bucket.append(u)
    parts = tuple(
        (cid, graph.component_key(buckets[cid][0])[1], tuple(buckets[cid]))
        for cid in order
    )
    graph._walk = (graph.version, parts)
    return parts


def compile_stage(graph: UncertainGraph) -> CompiledGraph:
    """Build the graph's id rows, if nothing has yet, and a view over
    them.

    Parameter-free (no ``k``, no ``tau``): one view serves every prune
    of every query *and* every search-view derivation, which is why
    :func:`lowering` keeps this artifact on the graph and
    the session hands it to each :func:`prune_stage` call — including
    the dirty-component re-peels, which replay over the same arrays via
    ``members=`` — and to :func:`cut_stage`, whose rows, read once from
    it, every per-component :class:`CompiledComponent` view is derived
    from instead of recompiling the subgraphs.
    """
    return compile_graph(graph)


def prune_stage(
    compiled: CompiledGraph,
    k: int,
    tau: float,
    rule: str,
    members: Iterable[Node] | None = None,
) -> AbstractSet[Node]:
    """Core-based preprocessing: the nodes of ``compiled`` surviving
    ``rule`` at (k, tau).

    ``rule`` is ``"topk"`` ((Top_k, tau)-core, Lemma 4;
    :func:`~repro.core.prune_kernel.topk_peel`) or ``"ktau"`` ((k,
    tau)-core via DPCore+, Lemma 1;
    :func:`~repro.core.prune_kernel.survival_peel`), run over
    ``compiled``, the :func:`compile_stage` artifact; ``members``
    restricts the peel to a node subset (the session's dirty
    components) without building an induced subgraph.  A whole-graph
    ``topk`` peel at a ``k`` the artifact has peeled before is a lookup
    in its level index.  The peels reach a unique fixpoint *set*, which
    is returned as the peel built it: the session splits it per graph
    component and hands the cut each component's ids in ascending
    order, which is graph iteration order.
    """
    if rule == "topk":
        survivors = topk_peel(compiled, k, tau, members=members)
        assert survivors is not None  # no fixed set: never aborts
        return survivors
    if rule == "ktau":
        return survival_peel(compiled, k, tau, members=members)
    raise ValueError(f"unknown pruning rule {rule!r}")


# ----------------------------------------------------------------------
# Stage 2: cut
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CutArtifact:
    """Outcome of :func:`cut_stage`, ready for memoization.

    ``components`` are the search components as node-label tuples, each
    listing its nodes in graph iteration order — labels, not compile
    ids, which a copy of the graph numbers afresh.  The counter fields carry
    everything the enumeration stats report about the pre-search
    phases, so a warm run fills its stats object identically to the
    cold run that built the artifact.

    A maximum-search artifact also carries ``heads``, each
    component's first node in :func:`~repro.core.prune_kernel.
    node_sort_key` order, and ``lower_bound``, the greedy clique size
    its raised cut was taken at (0 when it cut at ``k``).  Its
    components are the cut's pieces ordered by head, except that a
    piece above the kernel limit is replaced, at its place, by its
    per-vertex sub-pieces.
    """

    components: tuple[tuple[Node, ...], ...]
    cuts_found: int
    edges_removed: int
    nodes_after_pruning: int
    heads: tuple[Node, ...] = ()
    lower_bound: int = 0


def cut_stage(
    compiled: CompiledGraph,
    survivors: Sequence[int],
    k: int,
    tau: float,
    cut: bool,
    limit: int,
    maximum: bool = False,
    core: bool = False,
) -> tuple[CutArtifact, SearchSource]:
    """Split prune survivors, ids of ``compiled``, into search
    components (Lemma 5).

    Their survivor-filtered rows are read once from the compile
    (:func:`~repro.core.cut_pruning.induced_rows`); with ``cut=True``
    the cut optimization runs on them, otherwise a plain
    connected-component split.  Components come out in order of their
    first node in ``survivors`` order:
    ascending ids (graph iteration order) for a graph component, the
    region's adjacency order for an anchored core.  The same rows,
    with the survivors' labels and sort ranks, are returned beside the
    artifact as the :data:`SearchSource` the search builds each piece's
    view from when it reaches it; the lowering is not read again.  The
    session caches the artifact alone, and :func:`search_source` reads
    a cached cut's rows again when a search needs them.

    ``maximum=True`` prepares a MaxUC+ search instead.  A greedy
    tau-clique of ``s`` nodes is grown over the same rows
    (:func:`~repro.core.cut_pruning.greedy_clique_size`).  When
    ``s > k + 1`` the cut runs at ``k' = s - 1``: its fringe peel is the
    (Top_k', tau)-core, which keeps every clique of ``s`` or more nodes
    (Lemma 4), Lemma 5 holds for any ``k'``, and the components of fewer
    than ``s`` nodes are dropped; ``s`` becomes the artifact's
    ``lower_bound``.  Otherwise the cut runs at ``k`` as for
    enumeration.  Either way the pieces are ordered by their first
    node in :func:`~repro.core.prune_kernel.node_sort_key` order, which
    the artifact's ``heads`` record.  A piece of more than ``limit``
    nodes, the kernel size limit the session read for the query,
    becomes, at its place, the sub-pieces ``{v} + later(v)`` of its
    degeneracy order (:func:`~repro.core.kernel.piece_order`) that have
    at least ``k' + 1`` nodes, in reverse order, so the incumbent grows
    early: a maximum clique lies in the sub-piece of its first vertex
    in that order.

    ``core=True`` says the survivors are their own (Top_k, tau)-core at
    ``k``, as the ``topk`` prune's are: the cut then starts its pieces
    stable and skips their first fringe peel
    (:func:`~repro.core.cut_pruning.cut_rows`).  A cut at a raised
    ``k' = s - 1`` ignores it, since the (Top_k', tau)-core is smaller.
    """
    rows = induced_rows(compiled, survivors)
    cuts_found = edges_removed = lower_bound = 0
    cut_k = k
    if maximum and (bound := greedy_clique_size(rows, tau)) > k + 1:
        lower_bound = bound
        cut_k = bound - 1
    if cut:
        pieces, cuts_found, edges_removed, _ = cut_rows(
            rows, cut_k, tau, core and not lower_bound
        )
    else:
        pieces = split_rows(rows)
    nodes, sort_rank = compiled.nodes, compiled.sort_rank
    labels = [nodes[g] for g in survivors]
    rank = [sort_rank[g] for g in survivors]
    heads: tuple[Node, ...] = ()
    if maximum:
        by_head = sorted(
            (piece for piece in pieces if len(piece) >= lower_bound),
            key=lambda piece: min(rank[i] for i in piece),
        )
        pieces = []
        for piece in by_head:
            if len(piece) <= limit:
                pieces.append(piece)
                continue
            order, pos, nbr = piece_order(rows, piece)
            for x in reversed(order):
                sub = [x, *(y for y in nbr[x] if pos[y] > pos[x])]
                if len(sub) > cut_k:
                    pieces.append(sorted(piece[y] for y in sub))
        heads = tuple(
            labels[min(piece, key=rank.__getitem__)] for piece in pieces
        )
    artifact = CutArtifact(
        components=tuple(
            tuple(labels[i] for i in piece) for piece in pieces
        ),
        cuts_found=cuts_found,
        edges_removed=edges_removed,
        nodes_after_pruning=len(survivors),
        heads=heads,
        lower_bound=lower_bound,
    )
    return artifact, (
        CutRows(labels, rank, rows),
        [piece for piece in pieces if len(piece) > k],
    )


def search_source(
    compiled: CompiledGraph, cut: CutArtifact, k: int
) -> SearchSource:
    """The :data:`SearchSource` of a cached ``cut``, read again from
    ``compiled``, the lowering at the version it was cut at.

    The rows are those the searched components' nodes induce, gathered
    as the cut gathers them (:func:`~repro.core.cut_pruning.
    induced_rows`) in ascending id order, so each piece's rows, and the
    views built from them, equal those of the cut that built ``cut``.
    A maximum cut's sub-pieces overlap, so a node is read once however
    many of them hold it.
    """
    index = compiled.index
    searched = [c for c in cut.components if len(c) > k]
    ids = sorted({index[u] for component in searched for u in component})
    at = {g: i for i, g in enumerate(ids)}
    nodes, rank = compiled.nodes, compiled.sort_rank
    return (
        CutRows(
            [nodes[g] for g in ids],
            [rank[g] for g in ids],
            induced_rows(compiled, ids),
        ),
        [[at[index[u]] for u in component] for component in searched],
    )


# ----------------------------------------------------------------------
# Stage 3: search
# ----------------------------------------------------------------------

def enumeration_search_stage(
    source: SearchSource,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    limit: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Run the per-component enumeration over one cut's pieces.

    ``source`` is the cut's :data:`SearchSource`, and its pieces are
    searched in order.  A piece of at most ``limit`` nodes (the kernel
    size limit the cut read) gets its view
    (:func:`~repro.core.kernel.derive_component_view`) when its search
    starts, and the compiled pivot kernel emits its cliques in pivot
    branch order.  A larger piece is searched one
    :class:`~repro.core.kernel.VertexView` at a time, each built when
    its search starts (:func:`~repro.core.kernel.vertex_views`), in the
    piece's degeneracy order: the root branch is forced to the view's
    vertex, and :func:`~repro.core.kernel.drop_extended` drops the
    cliques an earlier neighbour extends.  A view is dropped once its
    search ends, and none reads the lowering: the rows are the cut's
    own copies, so a consumer that mutates the graph between yields
    still gets the answer for the version it asked at.  The search
    counters accrue to ``stats`` as each piece is searched, and the
    ``"search"`` lap covers building the views as well; the session
    runs this stage per graph component into a fresh stats object and
    caches the cliques with those counters, which its replays add back.
    """
    rows, pieces = source
    for piece in pieces:
        t_start = perf_counter()
        out: list[frozenset[Node]] = []
        if len(piece) <= limit:
            out = enumerate_pivot_range(
                derive_component_view(rows, piece), k, tau_floor, min_size,
                insearch, insearch_min_candidates, stats,
            )
        else:
            for vv in vertex_views(rows, piece, k):
                found = enumerate_pivot_range(
                    vv.view, k, tau_floor, min_size, insearch,
                    insearch_min_candidates, stats, vv.root,
                )
                kept = drop_extended(vv, found, tau_floor)
                stats.cliques -= len(found) - len(kept)
                out += kept
        stats.timings.add("search", perf_counter() - t_start)
        yield from out


def piece_view(
    source: CutRows,
    piece: Sequence[int],
    lookups: dict[int, dict[int, float]],
) -> tuple[CompiledComponent, list[int]]:
    """One MaxUC+ piece's or sub-piece's view and color list, from the
    rows its cut read.

    ``piece`` lists local ids of ``source`` in ascending order.  Each
    member's in-piece entries are read from the shorter side: a row no
    longer than the piece is scanned against the piece's members, a
    longer one (a hub's, in a small sub-piece) is looked up pairwise in
    its dict form, which ``lookups`` keeps by local id for every piece
    of ``source``.  The view (:func:`~repro.core.kernel.
    derive_component_view`) and the greedy coloring (largest degree
    first, ties in id order, as :func:`~repro.deterministic.coloring.
    greedy_coloring` colors the induced subgraph) both read those
    entries.  The color list is in view id order, as
    :func:`~repro.core.kernel.maximum_compiled` reads it.
    """
    labels, ranks, rows = source
    at = {g: x for x, g in enumerate(piece)}
    own: Rows = []
    for g in piece:
        row = rows[g]
        if len(row) <= len(piece):
            own.append([
                (x, p) for j, p in row if (x := at.get(j)) is not None
            ])
            continue
        near = lookups.get(g)
        if near is None:
            near = lookups[g] = dict(row)
        own.append([
            (x, p) for x, h in enumerate(piece)
            if (p := near.get(h)) is not None
        ])
    view = derive_component_view(
        CutRows([labels[g] for g in piece], [ranks[g] for g in piece], own),
        range(len(piece)),
    )
    colors = greedy_coloring([[x for x, _ in row] for row in own])
    order = sorted(range(len(piece)), key=lambda x: ranks[piece[x]])
    return view, [colors[x] for x in order]


def maximum_search_stage(
    compiled: CompiledGraph,
    parts: Sequence[tuple[CutArtifact, SearchSource | None, dict[int, Any]]],
    k: int,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """Run the MaxUC+ component loop, building views on demand into
    each part's memo.

    ``parts`` gives each graph component's maximum :func:`cut_stage`
    artifact, the rows that cut read when it ran in this query (``None``
    for a cached cut), and its memo dict (ordinal among its components
    of more than ``k`` nodes -> the view and color list), in canonical
    component order.  Returns ``(best, best_size)``: the canonical
    maximum clique — of the maximum cliques, the one whose members,
    sorted by :func:`~repro.core.prune_kernel.node_sort_key`, form the
    lexicographically smallest sequence — and its size.  The incumbent
    starts at ``lower_bound - 1`` (a clique of ``lower_bound`` nodes
    exists, so the search finds one; ``stats.lower_bound`` is the
    largest part's) or at ``k``.  Each component is searched by
    :func:`repro.core.kernel.maximum_compiled` (the pivot counters stay
    zero, because the branch-and-bound's DFS-first output depends on
    branch order).

    The canonical answer does not depend on the component order.  The
    search walks a component's cliques in ``node_sort_key`` DFS order,
    so the first clique above the floor of the component's maximum size
    is its lexicographic minimum.  A component whose head (first node in
    that order) precedes or is the incumbent's first node is searched
    with the floor one below the incumbent's size, so it also reports a
    tie, which replaces the incumbent when it is lexicographically
    smaller; any other component can only win by a larger clique.  The
    sub-pieces of one piece overlap, so two can share a head, and a
    later one can hold a smaller tie through that head: hence "or is".
    For disjoint components a head equal to the incumbent's first node
    is the incumbent's own component, already searched.

    A memo is filled lazily as the incumbent chain reaches components
    (:func:`piece_view`, from the part's rows, or on a cached cut from
    its rows read again by :func:`search_source`, once per part).
    The session caches the dicts, so a warm run finds the cold run's
    entries and builds nothing, and the cold run never builds a view
    the incumbent skips.  The search path is deterministic, so which
    ordinals get filled is too.
    """
    stats.lower_bound = max(
        (cut.lower_bound for cut, _, _ in parts), default=0
    )
    best: list[Node] | None = None
    best_ranks: list[int] = []
    best_size = max(k, stats.lower_bound - 1)
    rank = compiled.sort_rank
    index = compiled.index
    for cut, source, memo in parts:
        lookups: dict[int, dict[int, float]] = {}
        searched = [
            (head, component)
            for head, component in zip(cut.heads, cut.components)
            if len(component) > k
        ]
        for ordinal, (head, component) in enumerate(searched):
            floor = best_size
            if best_ranks and rank[index[head]] <= best_ranks[0]:
                floor -= 1  # a tie found here may precede the incumbent
            if len(component) <= floor:
                continue
            entry = memo.get(ordinal)
            if entry is None:
                t_start = perf_counter()
                if source is None:
                    source = search_source(compiled, cut, k)
                entry = memo[ordinal] = piece_view(
                    source[0], source[1][ordinal], lookups
                )
                stats.timings.add("views", perf_counter() - t_start)
            comp, color = entry
            t_start = perf_counter()
            found, size = maximum_compiled(
                comp, color, k, tau_floor, min_size, floor,
                use_advanced_one, use_advanced_two, insearch, stats,
            )
            stats.timings.add("search", perf_counter() - t_start)
            if found is None:
                continue
            ranks = sorted(rank[index[u]] for u in found)
            if size > best_size or ranks < best_ranks:
                best, best_size, best_ranks = found, size, ranks
    return best, best_size
