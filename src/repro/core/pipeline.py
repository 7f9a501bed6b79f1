"""Composable stages of the clique-search flow: prune, cut, compile, search.

The monolithic drivers (``maximal_cliques``, ``max_uc_plus``) are decomposed
here into four explicit stages, each a pure function from graph state and
parameters to a deterministic artifact:

* :func:`prune_stage` — core-based preprocessing (Lemmas 1 and 4); returns
  the surviving nodes **in graph iteration order**, so the artifact is
  reproducible no matter which cached seed the session layer supplied.
* :func:`cut_stage` — cut optimization / component split (Lemma 5) on
  one graph component's survivors, given as compile ids; returns the
  search components as label tuples plus the counters the stats objects
  report.  No subgraph is built: the survivor rows are gathered from
  the compile.  For MaxUC+ it also grows a greedy lower bound on those
  rows and raises the cut to it.
* :func:`compile_stage` — the **single whole-graph lowering**: one
  parameter-free :class:`~repro.core.prune_kernel.CompiledGraph` per graph
  version serves the prune peels, the cut *and* the per-component search
  views.  The graph owns it: :func:`lowering` keeps it on the graph and
  patches it forward through the mutation log, so every session, free
  function and core maintainer over one graph lowers it once.
* :func:`compile_enumeration_stage` — per-component search preparation:
  the picklable :class:`~repro.core.kernel.CompiledComponent` CSR bundles
  the pivot engine searches, *derived* from the :func:`compile_stage`
  artifact's rows (member-filtered, no recompilation;
  :func:`~repro.core.kernel.compile_component` remains the parity
  oracle).  The maximum search derives (and colors) its components on
  demand inside :func:`maximum_search_stage`.
* :func:`enumeration_search_stage` / :func:`maximum_search_stage` — the
  actual (sequential) search, consuming the compile artifacts.  An
  :class:`~repro.uncertain.graph.UncertainGraph` is built for a search
  component only where a search reads one: the legacy engine, a
  component above the kernel limit, and the greedy coloring of a
  component the MaxUC+ search reaches.

Stage artifacts carry **no counters and no wall clocks** — those belong to
the per-run stats objects, which the search stages fill identically on
every run.  That split is what makes memoization sound: replaying a cached
artifact through the search stage yields bit-identical cliques, yield
order, and stats counters to a cold run.

Inside :mod:`repro.core` the only intended caller is the session layer
(:class:`repro.core.session.PreparedGraph`), which memoizes the artifacts
keyed by the graph's per-component epochs; repro-lint rule RPL007 flags
direct stage calls that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator, Sequence

from repro.core.cut_pruning import (
    cut_rows,
    greedy_clique_size,
    induced_rows,
    split_rows,
)
from repro.core.enumeration import (
    EnumerationStats,
    _muc,
    _ordered,
)
from repro.core.kernel import (
    CompiledComponent,
    derive_component_view,
    enum_root_prep,
    enumerate_pivot_range,
    maximum_compiled,
    pivot_root_plan,
)
from repro.core.maximum import MaximumSearchStats, _search_component_legacy
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.deterministic.coloring import greedy_coloring
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "CutArtifact",
    "lowering",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "compile_enumeration_stage",
    "enumeration_search_stage",
    "maximum_search_stage",
]

# benchmarks/e2e/trace.py still wraps this name as a search boundary.
enumerate_root_range = enumerate_pivot_range


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


def compile_stage(graph: UncertainGraph) -> CompiledGraph:
    """Lower the graph into the unified flat-CSR artifact **once**.

    Parameter-free (no ``k``, no ``tau``): one compile per graph version
    serves every prune of every query *and* every search-view derivation,
    which is why :func:`lowering` keeps this artifact on the graph and
    the session hands it to each :func:`prune_stage` call — including
    the monotone-seeded peels, which replay over the same arrays via
    ``members=`` — and to the search compile stages, which derive their
    per-component :class:`CompiledComponent` views from the whole-graph
    rows instead of recompiling the subgraphs.
    """
    return compile_graph(graph)


def prune_stage(
    graph: UncertainGraph,
    k: int,
    tau: float,
    rule: str,
    compiled: CompiledGraph | None = None,
    members: Sequence[Node] | None = None,
) -> tuple[Node, ...]:
    """Core-based preprocessing: the nodes surviving ``rule`` at (k, tau).

    ``rule`` is ``"topk"`` ((Top_k, tau)-core, Lemma 4), ``"ktau"``
    ((k, tau)-core via DPCore+, Lemma 1) or ``"none"``.  The survivors are
    returned as a tuple **in the iteration order of ``graph``** — the
    peels reach a unique fixpoint *set* whichever cached seed the session
    layer supplied, and normalizing the order makes the artifact
    independent of the peel's internal set layout, so a cached artifact
    reproduces a cold run's downstream component order exactly.

    Both rules run the compiled array peels over ``compiled``, the
    :func:`compile_stage` artifact; ``members`` restricts the peel to a
    node subset (the session's monotone seed or its dirty components)
    without building an induced subgraph.
    """
    # The peels are looked up on the enumeration module at call time:
    # they are its re-exported attributes by contract, and the laziness
    # regression test monkeypatches them there to prove no pruning runs
    # before a consumer starts iterating.
    from repro.core import enumeration as enumeration_mod

    survivors: frozenset[Node] | set[Node]
    if rule == "none":
        return tuple(graph.nodes())
    if rule == "topk":
        survivors = set(enumeration_mod.topk_core_arrays(
            graph, k, tau, compiled=compiled, members=members,
        ))
    elif rule == "ktau":
        survivors = enumeration_mod.dp_core_plus(
            graph, k, tau, compiled=compiled, members=members,
        )
    else:
        raise ValueError(f"unknown pruning rule {rule!r}")
    if members is None and len(survivors) == graph.num_nodes:
        return tuple(graph.nodes())
    return tuple(u for u in graph if u in survivors)


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

    A maximum-search artifact also carries ``heads``, each component's
    first node in :func:`~repro.core.prune_kernel.node_sort_key` order,
    with the components ordered by it, and ``lower_bound``, the greedy
    clique size its raised cut was taken at (0 when it cut at ``k``).
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
    maximum: bool = False,
) -> CutArtifact:
    """Split prune survivors, ascending ids of ``compiled``, into
    search components (Lemma 5).

    Their survivor-filtered rows are gathered once from the compile;
    with ``cut=True`` the cut optimization runs on them, otherwise a
    plain connected-component split.  One cut implementation serves
    every engine, so the artifact is engine-independent.  Components
    come out in order of their first node in graph iteration order.

    ``maximum=True`` prepares a MaxUC+ search instead.  A greedy
    tau-clique of ``s`` nodes is grown over the same rows
    (:func:`~repro.core.cut_pruning.greedy_clique_size`).  When
    ``s > k + 1`` the cut runs at ``k' = s - 1``: its fringe peel is the
    (Top_k', tau)-core, which keeps every clique of ``s`` or more nodes
    (Lemma 4), Lemma 5 holds for any ``k'``, and the components of fewer
    than ``s`` nodes are dropped; ``s`` becomes the artifact's
    ``lower_bound``.  Otherwise the cut runs at ``k`` as for
    enumeration.  Either way the components are ordered by their first
    node in :func:`~repro.core.prune_kernel.node_sort_key` order, which
    the artifact's ``heads`` record.
    """
    rows = induced_rows(compiled, survivors)
    cuts_found = edges_removed = lower_bound = 0
    if maximum and (bound := greedy_clique_size(rows, tau)) > k + 1:
        lower_bound = bound
        k = bound - 1
    if cut:
        pieces, cuts_found, edges_removed, _ = cut_rows(rows, k, tau)
    else:
        pieces = split_rows(rows)
    heads: tuple[int, ...] = ()
    if maximum:
        rank = [compiled.sort_rank[g] for g in survivors]
        by_head = sorted(
            (
                (min(piece, key=rank.__getitem__), piece)
                for piece in pieces
                if len(piece) >= lower_bound
            ),
            key=lambda entry: rank[entry[0]],
        )
        heads = tuple(head for head, _ in by_head)
        pieces = [piece for _, piece in by_head]
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
    )


# ----------------------------------------------------------------------
# Stage 3: compile
# ----------------------------------------------------------------------

def compile_enumeration_stage(
    components: Sequence[Sequence[Node]],
    min_size: int,
    component_limit: int,
    artifact: CompiledGraph,
) -> tuple[CompiledComponent | None, ...]:
    """Compile each component the kernel enumeration will search.

    One slot per component, in order: a picklable
    :class:`~repro.core.kernel.CompiledComponent` when the component is
    searchable by the compiled kernel (``min_size <= n <= limit``), else
    ``None`` — the search stage re-derives *why* a slot is ``None`` from
    the component size (too small: skipped; too large: legacy fallback).

    The views are derived from the rows of ``artifact``, the
    :func:`compile_stage` lowering (bit-identical to the from-scratch
    compile, see ``tests/core/test_compiled_graph``).
    """
    return tuple(
        derive_component_view(artifact, component)
        if min_size <= len(component) <= component_limit
        else None
        for component in components
    )


# ----------------------------------------------------------------------
# Stage 4: search
# ----------------------------------------------------------------------

def enumeration_search_stage(
    graph: UncertainGraph,
    components: Sequence[Sequence[Node]],
    compiled: Sequence[CompiledComponent | None] | None,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Run the per-component enumeration over the compile artifacts.

    Components are searched in order.  One with a view in ``compiled``
    (:func:`compile_enumeration_stage`) is searched by the compiled
    pivot kernel and emits its cliques in pivot branch order.  Every
    other searched component — all of them for the legacy engine, which
    passes ``compiled=None``, and the oversized ones for ``"pivot"`` —
    goes through the tuple-list recursion
    :func:`~repro.core.enumeration._muc` on its induced subgraph of
    ``graph``.  Those subgraphs are built before anything is yielded: a
    consumer that mutates ``graph`` between yields still gets the
    answer for the version it asked at.  All counters accrue to
    ``stats`` on every run (they are never part of a cached artifact).
    """
    subgraphs = {
        ordinal: graph.induced_subgraph(component)
        for ordinal, component in enumerate(components)
        if len(component) >= min_size
        and (compiled is None or compiled[ordinal] is None)
    }
    for ordinal, component in enumerate(components):
        if len(component) < min_size:
            continue
        comp = compiled[ordinal] if compiled is not None else None
        if comp is not None:
            t_start = perf_counter()
            cands = enum_root_prep(
                comp, k, tau_floor, min_size, insearch,
                insearch_min_candidates, stats,
            )
            out: list[frozenset[Node]] = []
            if cands is not None:
                branches = pivot_root_plan(
                    comp, k, tau_floor, min_size, cands, stats,
                )
                out = enumerate_pivot_range(
                    comp, k, tau_floor, min_size, insearch,
                    insearch_min_candidates, cands, branches, stats,
                )
            stats.timings.add("search", perf_counter() - t_start)
            yield from out
        else:
            subgraph = subgraphs[ordinal]
            candidates = [(v, 1.0) for v in _ordered(subgraph.nodes())]
            yield from _muc(
                subgraph, [], 1.0, candidates, [], k, tau_floor,
                min_size, insearch, stats,
            )


def _compiled_maximum_entry(
    memo: dict[int, tuple[CompiledComponent, list[int]]],
    ordinal: int,
    component: Sequence[Node],
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
    coloring for every component a growing incumbent later skips.  Only
    the coloring reads the component's induced subgraph.
    """
    entry = memo.get(ordinal)
    if entry is None:
        t_start = perf_counter()
        comp = derive_component_view(artifact, component)
        coloring = greedy_coloring(graph.induced_subgraph(component))
        entry = memo[ordinal] = (comp, [coloring[u] for u in comp.nodes])
        stats.timings.add("compile", perf_counter() - t_start)
    return entry


def maximum_search_stage(
    graph: UncertainGraph,
    artifact: CompiledGraph,
    cut: CutArtifact,
    memo: dict[int, Any],
    k: int,
    tau: float,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    engine: str,
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
    ``artifact``, the version's whole-graph lowering, for ``"pivot"``
    and by the extracted legacy closure on its induced subgraph of
    ``graph`` for ``"legacy"`` (identical results and counters; the
    pivot counters stay zero, because the branch-and-bound's DFS-first
    output depends on branch order).

    The canonical answer does not depend on the component order.  Both
    searches walk a component's cliques in ``node_sort_key`` DFS order,
    so the first clique above the floor of the component's maximum size
    is its lexicographic minimum.  A component whose head (first node in
    that order) precedes the incumbent's is searched with the floor one
    below the incumbent's size, so it also reports a tie, which replaces
    the incumbent; any other component can only win by a larger clique.

    ``memo`` is a mutable dict (ordinal -> the view and color list for
    ``"pivot"``, the coloring for ``"legacy"``), filled lazily as the
    incumbent chain reaches components — the session layer caches the
    dict objects per engine, so a warm run finds the cold run's entries
    and the cold run never compiles a component the incumbent skips.
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
        if best_ranks and rank[index[cut.heads[ordinal]]] < best_ranks[0]:
            floor -= 1  # a tie found here would precede the incumbent
        if len(component) <= floor:
            continue
        if engine == "legacy":
            subgraph = graph.induced_subgraph(component)
            coloring = memo.get(ordinal)
            if coloring is None:
                coloring = memo[ordinal] = greedy_coloring(subgraph)
            found, size = _search_component_legacy(
                subgraph, coloring, k, tau, tau_floor, min_size, None,
                floor, use_advanced_one, use_advanced_two, insearch,
                stats,
            )
        else:
            comp, color = _compiled_maximum_entry(
                memo, ordinal, component, graph, stats, artifact
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
