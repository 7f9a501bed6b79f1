"""Composable stages of the clique-search flow: compile, prune, cut, search.

The monolithic drivers (``maximal_cliques``, ``max_uc_plus``) are decomposed
here into four explicit stages, each a pure function from graph state and
parameters to a deterministic artifact:

* :func:`compile_stage` — the **single whole-graph lowering**: one
  parameter-free :class:`~repro.core.prune_kernel.CompiledGraph` per graph
  version serves the prune peels, the cut *and* the per-component search
  views.  The graph owns it: :func:`lowering` keeps it on the graph and
  patches it forward through the mutation log, so every session, free
  function and core maintainer over one graph lowers it once.
* :func:`prune_stage` — core-based preprocessing (Lemmas 1 and 4); returns
  the surviving nodes **in graph iteration order**, so the artifact is
  the same whether the whole graph or only its dirty components peeled.
* :func:`cut_stage` — cut optimization / component split (Lemma 5) on
  one graph component's survivors (or an anchored query's core), given
  as compile ids; returns the search components as label tuples plus
  the counters the stats objects report.  No subgraph is built: the
  survivor rows are read once from the compile, and for enumeration
  the same rows build each searchable component's
  :class:`~repro.core.kernel.CompiledComponent` view, which the
  artifact carries (member-filtered, no recompilation;
  :func:`~repro.core.kernel.compile_component` remains the parity
  oracle).  A piece above the kernel limit gets one small view per
  vertex instead (:func:`~repro.core.kernel.vertex_views`).  For
  MaxUC+ it grows a greedy lower bound on those rows and raises the
  cut to it, and splits a piece above the limit into per-vertex
  sub-pieces; the maximum search derives (and colors) its views on
  demand inside :func:`maximum_search_stage`.
* :func:`enumeration_search_stage` / :func:`maximum_search_stage` — the
  actual (sequential) search, consuming the compile artifacts: the
  compiled kernel searches every component, whatever its size.  An
  :class:`~repro.uncertain.graph.UncertainGraph` is built for a search
  component only where a search reads one: the greedy coloring of a
  whole piece the MaxUC+ search reaches.

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

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Iterator, Sequence

from repro.core import enumeration as enumeration_mod
from repro.core.cut_pruning import (
    cut_rows,
    greedy_clique_size,
    induced_rows,
    local_ids,
    split_rows,
)
from repro.core.enumeration import EnumerationStats
from repro.core.kernel import (
    CompiledComponent,
    VertexView,
    derive_component_view,
    drop_extended,
    enumerate_pivot_range,
    maximum_compiled,
    piece_order,
    vertex_views,
)
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.deterministic.coloring import greedy_coloring, greedy_coloring_rows
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "CutArtifact",
    "Parts",
    "SearchView",
    "lowering",
    "graph_components",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "enumeration_search_stage",
    "maximum_search_stage",
]

# benchmarks/e2e/trace.py still wraps these names as search boundaries;
# the enumeration has the one entry, enumerate_pivot_range.
enumerate_root_range = enum_root_prep = pivot_root_plan = _muc = (
    enumerate_pivot_range
)

#: ``(component id, epoch, members)`` per graph component.
Parts = tuple[tuple[int, int, tuple[Node, ...]], ...]

#: What the kernel searches for one enumeration component: its
#: view, its per-vertex views when it is above the kernel limit, or
#: ``None`` when it is too small to hold a (k, tau)-clique.
SearchView = CompiledComponent | tuple[VertexView, ...] | None


# ----------------------------------------------------------------------
# Stage 0: compile (shared by prune and search)
# ----------------------------------------------------------------------

def lowering(graph: UncertainGraph) -> tuple[CompiledGraph, str]:
    """The graph's own lowering at its current version, and how it was
    resolved: ``"current"``, ``"delta"`` or ``"full"``.

    The lowering lives on the graph, so every session, free function and
    core maintainer over it shares one per version.  A current one is
    returned as it stands.  One that is behind is patched in place by
    replaying :meth:`~repro.uncertain.graph.UncertainGraph.
    mutations_since` its own version (:meth:`CompiledGraph.apply_delta`,
    bit-identical to a cold re-lower); when the log has a gap or holds
    a node removal, :func:`compile_stage` lowers the graph afresh.  The
    slot is cleared while the patch runs, so a patch that raises leaves
    no half-patched lowering behind.
    """
    held = graph._lowering
    if isinstance(held, CompiledGraph):
        if held.version == graph.version:
            return held, "current"
        graph._lowering = None
        ops = graph.mutations_since(held.version)
        if ops is not None and held.apply_delta(ops):
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
    """Lower the graph into the unified flat-CSR artifact **once**.

    Parameter-free (no ``k``, no ``tau``): one compile per graph version
    serves every prune of every query *and* every search-view derivation,
    which is why :func:`lowering` keeps this artifact on the graph and
    the session hands it to each :func:`prune_stage` call — including
    the dirty-component re-peels, which replay over the same arrays via
    ``members=`` — and to :func:`cut_stage` and the MaxUC+ search, which
    derive their per-component :class:`CompiledComponent` views from its
    rows instead of recompiling the subgraphs.
    """
    return compile_graph(graph)


def prune_stage(
    graph: UncertainGraph,
    k: int,
    tau: float,
    rule: str,
    compiled: CompiledGraph,
    members: Sequence[Node] | None = None,
) -> tuple[Node, ...]:
    """Core-based preprocessing: the nodes surviving ``rule`` at (k, tau).

    ``rule`` is ``"topk"`` ((Top_k, tau)-core, Lemma 4), ``"ktau"``
    ((k, tau)-core via DPCore+, Lemma 1) or ``"none"``.  The survivors are
    returned as a tuple **in the iteration order of ``graph``** — the
    peels reach a unique fixpoint *set*, and normalizing the order makes
    the artifact independent of the peel's internal set layout, so a
    cached artifact reproduces a cold run's downstream component order
    exactly.

    Both rules run the compiled array peels over ``compiled``, the
    :func:`compile_stage` artifact; ``members`` restricts the peel to a
    node subset (the session's dirty components) without building an
    induced subgraph.  A whole-graph ``topk`` peel
    at a ``k`` the artifact has peeled before is a lookup in its level
    index (:func:`~repro.core.prune_kernel.topk_peel`), and the order
    is normalized over the survivors' compile ids, which follow graph
    iteration order — so neither walks the whole graph.
    """
    # The peels are looked up on the enumeration module at call time:
    # they are its re-exported attributes by contract, and the laziness
    # regression test monkeypatches them there to prove no pruning runs
    # before a consumer starts iterating.
    survivors: frozenset[Node] | set[Node]
    if rule == "none":
        return tuple(graph.nodes())
    if rule == "topk":
        survivors = enumeration_mod.topk_core_arrays(
            graph, k, tau, compiled=compiled, members=members,
        )
    elif rule == "ktau":
        survivors = enumeration_mod.dp_core_plus(
            graph, k, tau, compiled=compiled, members=members,
        )
    else:
        raise ValueError(f"unknown pruning rule {rule!r}")
    if members is None and len(survivors) == graph.num_nodes:
        return tuple(graph.nodes())
    # Compile ids follow graph iteration order.
    nodes, index = compiled.nodes, compiled.index
    return tuple(nodes[i] for i in sorted(map(index.__getitem__, survivors)))


# ----------------------------------------------------------------------
# Stage 2: cut
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CutArtifact:
    """Outcome of :func:`cut_stage`, ready for memoization.

    ``components`` are the search components as node-label tuples, each
    listing its nodes in graph iteration order — labels, not compile
    ids, which a full re-lower renumbers.  The counter fields carry
    everything the enumeration stats report about the pre-search
    phases, so a warm run fills its stats object identically to the
    cold run that built the artifact.

    An enumeration artifact also carries ``views``, one
    :data:`SearchView` slot per component: the
    :class:`~repro.core.kernel.CompiledComponent` the kernel
    searches when the component has ``k + 1`` to
    :data:`~repro.core.kernel.KERNEL_COMPONENT_LIMIT` nodes, its
    per-vertex :class:`~repro.core.kernel.VertexView` tuple above the
    limit, else ``None`` (too small to search).  Views are snapshots
    without equality, so they take no part in comparing artifacts.

    A maximum-search artifact instead carries ``heads``, each
    component's first node in :func:`~repro.core.prune_kernel.
    node_sort_key` order, and ``lower_bound``, the greedy clique size
    its raised cut was taken at (0 when it cut at ``k``).  Its
    components are the cut's pieces ordered by head, except that a
    piece above the kernel limit is replaced, at its place, by its
    per-vertex sub-pieces; ``split`` flags those.
    """

    components: tuple[tuple[Node, ...], ...]
    cuts_found: int
    edges_removed: int
    nodes_after_pruning: int
    heads: tuple[Node, ...] = ()
    lower_bound: int = 0
    split: tuple[bool, ...] = ()
    views: tuple[SearchView, ...] = field(
        default=(), compare=False, repr=False
    )


def cut_stage(
    compiled: CompiledGraph,
    survivors: Sequence[int],
    k: int,
    tau: float,
    cut: bool,
    maximum: bool = False,
    core: bool = False,
) -> CutArtifact:
    """Split prune survivors, ids of ``compiled``, into search
    components (Lemma 5).

    Their survivor-filtered rows are read once from the compile
    (:func:`~repro.core.cut_pruning.induced_rows`); with ``cut=True``
    the cut optimization runs on them, otherwise a plain
    connected-component split.  Components come out in order of their
    first node in ``survivors`` order:
    ascending ids (graph iteration order) for a graph component, the
    region's adjacency order for an anchored core.  The same rows then
    build the artifact's ``views``
    (:func:`~repro.core.kernel.derive_component_view`, or
    :func:`~repro.core.kernel.vertex_views` for a piece above the
    kernel limit), and they are dropped when this call returns.

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
    the artifact's ``heads`` record.  A piece above the kernel limit
    becomes, at its place, the sub-pieces ``{v} + later(v)`` of its
    degeneracy order (:func:`~repro.core.kernel.piece_order`) that have
    at least ``max(s, k + 1)`` nodes, in reverse order, so the
    incumbent grows early: a maximum clique lies in the sub-piece of
    its first vertex in that order.  A maximum artifact carries no
    ``views``: the search builds them only for the components its
    incumbent reaches.

    ``core=True`` says the survivors are their own (Top_k, tau)-core at
    ``k``, as the ``topk`` prune's are: the cut then starts its pieces
    stable and skips their first fringe peel
    (:func:`~repro.core.cut_pruning.cut_rows`).  A cut at a raised
    ``k' = s - 1`` ignores it, since the (Top_k', tau)-core is smaller.
    """
    rows = induced_rows(compiled, survivors)
    cuts_found = edges_removed = lower_bound = 0
    if maximum and (bound := greedy_clique_size(rows, tau)) > k + 1:
        lower_bound = bound
        k = bound - 1
    if cut:
        pieces, cuts_found, edges_removed, _ = cut_rows(
            rows, k, tau, core and not lower_bound
        )
    else:
        pieces = split_rows(rows)
    # Read at call time: tests monkeypatch the kernel size limit.
    limit = enumeration_mod.KERNEL_COMPONENT_LIMIT
    heads: tuple[int, ...] = ()
    split: list[bool] = []
    views: tuple[SearchView, ...] = ()
    if maximum:
        rank = [compiled.sort_rank[g] for g in survivors]
        by_head = sorted(
            (piece for piece in pieces if len(piece) >= lower_bound),
            key=lambda piece: min(rank[i] for i in piece),
        )
        least = max(lower_bound, k + 1)
        pieces = []
        for piece in by_head:
            if len(piece) <= limit:
                pieces.append(piece)
                split.append(False)
                continue
            order, pos, nbr = piece_order(rows, piece)
            for x in reversed(order):
                sub = [x, *(y for y in nbr[x] if pos[y] > pos[x])]
                if len(sub) >= least:
                    pieces.append(sorted(piece[y] for y in sub))
                    split.append(True)
        heads = tuple(min(piece, key=rank.__getitem__) for piece in pieces)
    else:
        views = tuple(
            None if len(piece) <= k
            else derive_component_view(compiled, piece, (survivors, rows))
            if len(piece) <= limit
            else vertex_views(compiled, piece, (survivors, rows), k)
            for piece in pieces
        )
    nodes = compiled.nodes
    return CutArtifact(
        components=tuple(
            tuple(nodes[survivors[i]] for i in piece) for piece in pieces
        ),
        cuts_found=cuts_found,
        edges_removed=edges_removed,
        nodes_after_pruning=len(survivors),
        heads=tuple(nodes[survivors[i]] for i in heads),
        lower_bound=lower_bound,
        split=tuple(split),
        views=views,
    )


# ----------------------------------------------------------------------
# Stage 3: search
# ----------------------------------------------------------------------

def enumeration_search_stage(
    views: Sequence[SearchView],
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Run the per-component enumeration over the cut artifact's views.

    Components are searched in order.  ``views`` is the cut artifact's
    ``views``, and the compiled pivot kernel searches every component
    with a view, emitting its cliques in pivot branch order.  A
    component above the kernel limit is searched one
    :class:`~repro.core.kernel.VertexView` at a time, in the piece's
    degeneracy order: the root branch is forced to the view's vertex,
    and :func:`~repro.core.kernel.drop_extended` drops the cliques an
    earlier neighbour extends.  The views were built by the cut before
    anything is yielded, so a consumer that mutates the graph between
    yields still gets the answer for the version it asked at.  The
    search counters accrue to ``stats`` as each component is searched;
    the session runs this stage per graph component into a fresh stats
    object and caches the cliques with those counters, which its
    replays add back.
    """
    for view in views:
        if view is None:
            continue
        t_start = perf_counter()
        out: list[frozenset[Node]] = []
        if isinstance(view, CompiledComponent):
            out = enumerate_pivot_range(
                view, k, tau_floor, min_size, insearch,
                insearch_min_candidates, stats,
            )
        else:
            for vv in view:
                found = enumerate_pivot_range(
                    vv.view, k, tau_floor, min_size, insearch,
                    insearch_min_candidates, stats, vv.root,
                )
                kept = drop_extended(vv, found, tau_floor)
                stats.cliques -= len(found) - len(kept)
                out += kept
        stats.timings.add("search", perf_counter() - t_start)
        yield from out


def _compiled_maximum_entry(
    memo: dict[int, tuple[CompiledComponent, list[int]]],
    ordinal: int,
    component: Sequence[Node],
    sub_piece: bool,
    graph: UncertainGraph,
    stats: MaximumSearchStats,
    artifact: CompiledGraph,
) -> tuple[CompiledComponent, list[int]]:
    """The (compiled component, color list) pair for one component,
    compiled on demand and memoized.

    Compilation stays **lazy with respect to the evolving incumbent** —
    exactly as the historical driver, which only compiled a component
    once the search actually reached it with ``n > best_size``.  An
    eager compile-everything stage would pay view derivation and
    coloring for every component a growing incumbent later skips.  A
    whole piece's view is derived from the lowering, and only its
    coloring reads the induced subgraph.  A ``sub_piece`` is small but
    its members' rows may be long, so both are built by pairwise
    :meth:`~repro.uncertain.graph.UncertainGraph.incident` lookups
    instead, O(|component|^2), and equal the whole-piece route's.
    """
    entry = memo.get(ordinal)
    if entry is None:
        t_start = perf_counter()
        if sub_piece:
            adjacency = [
                {
                    j: p for j, w in enumerate(component)
                    if (p := row.get(w)) is not None
                }
                for row in map(graph.incident, component)
            ]
            colors = greedy_coloring_rows(adjacency)
            rank, index = artifact.sort_rank, artifact.index
            order = sorted(
                range(len(component)),
                key=lambda i: rank[index[component[i]]],
            )
            comp = CompiledComponent.from_rows(
                [component[i] for i in order],
                (adjacency[i].items() for i in order),
                local_ids(len(order), order),
            )
            entry = (comp, [colors[i] for i in order])
        else:
            comp = derive_component_view(artifact, component)
            coloring = greedy_coloring(graph.induced_subgraph(component))
            entry = (comp, [coloring[u] for u in comp.nodes])
        memo[ordinal] = entry
        stats.timings.add("compile", perf_counter() - t_start)
    return entry


def maximum_search_stage(
    graph: UncertainGraph,
    artifact: CompiledGraph,
    cut: CutArtifact,
    memo: dict[int, Any],
    k: int,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """Run the MaxUC+ component loop, compiling on demand into the memo.

    Returns ``(best, best_size)``: the canonical maximum clique — of the
    maximum cliques, the one whose members, sorted by
    :func:`~repro.core.prune_kernel.node_sort_key`, form the
    lexicographically smallest sequence — and its size.  The incumbent
    starts at ``cut.lower_bound - 1`` (a clique of ``lower_bound`` nodes
    exists, so the search finds one) or at ``k``.  Each component of
    the maximum :func:`cut_stage` artifact ``cut`` is searched by
    :func:`repro.core.kernel.maximum_compiled` on a view of
    ``artifact``, the version's whole-graph lowering (the pivot
    counters stay zero, because the branch-and-bound's DFS-first output
    depends on branch order).

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

    ``memo`` is a mutable dict (ordinal -> the view and color list),
    filled lazily as the incumbent chain reaches components — the
    session layer caches the dict objects, so a warm run finds the cold
    run's entries and the cold run never compiles a component the
    incumbent skips.
    The search path is deterministic, so which ordinals get filled is
    too.
    """
    best: list[Node] | None = None
    best_ranks: list[int] = []
    best_size = max(k, cut.lower_bound - 1)
    rank = artifact.sort_rank
    index = artifact.index
    for ordinal, component in enumerate(cut.components):
        floor = best_size
        if best_ranks and rank[index[cut.heads[ordinal]]] <= best_ranks[0]:
            floor -= 1  # a tie found here may precede the incumbent
        if len(component) <= floor:
            continue
        comp, color = _compiled_maximum_entry(
            memo, ordinal, component, cut.split[ordinal], graph, stats,
            artifact,
        )
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
