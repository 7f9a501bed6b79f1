"""The conformance matrix: every fast path against one oracle ladder.

Each query kind is asked in three modes:

* **cold** — a fresh copy of the graph: nothing lowered, nothing cached;
* **warm** — one session (or one lowering) that has answered before: a
  repeat equals the cold answer bit for bit, yield order and counters
  included, and misses nothing in the cache;
* **mutate** — that warm state carried through a stream of mutations:
  the graph's lowering is patched in place (or lowered afresh after a
  ``remove_node``), and every answer equals the oracle and a cold
  rebuild of the mutated graph.

The oracle ladder: brute force over every node subset for graphs of at
most :data:`BRUTE_FORCE_LIMIT` nodes and the MULE-style search of
:mod:`tests.core.oracles` above it; that module's naive fixpoints on
the induced subgraph for every prune;
:func:`~repro.core.kernel.compile_component` on the induced subgraph
for every derived search view; a cold
:func:`~repro.core.prune_kernel.compile_graph` for every delta patch.

The query kinds:

* the session queries of :data:`QUERIES` — enumeration (MUCE, MUCE+ and
  MUCE++ as ``cut`` and ``insearch`` select), the maximum (MaxUC+) and
  the three anchored queries.  Enumeration emits the oracle's set, each
  clique once; MaxUC+ returns the canonical maximum and never pivots;
* the lowering readers of :func:`check_lowering` — the peels of
  :data:`PEELS` over the whole graph, the restricted ones with
  ``members=`` and ``fixed=``, the maintainer's ``frontier=`` re-peel,
  the core numbers, the derived search views and the delta patch;
* the gathers of :func:`check_gathers` — the cut's row gather, which
  reads a level index's core rows when they hold every id, against the
  full-row gather of an unindexed lowering, and the search views the
  cut builds from its rows against the per-component compile.

Graphs come from one strategy (:func:`tests.core.support.
uncertain_graphs`): duplicate probabilities, ``p == 1.0`` edges and
both ``STABLE_P_LIMIT`` straddles, isolated nodes, mixed int / str
labels and two or more components, with ``tau`` from a palette or
exactly a clique's probability.  Regressions pinned by earlier suites
are the rows of :data:`PINNED`; the fallback paths (a mutation-log gap,
``remove_node``) and the per-vertex views of a piece above the kernel
limit have rows that also check the path was taken, and one pass of
the matrix runs with that limit squeezed.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
import repro.core.pipeline as pipeline_mod
from repro.core.cut_pruning import induced_rows
from repro import (
    KTauCoreMaintainer,
    PreparedGraph,
    UncertainGraph,
    max_uc_plus,
)
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.core.enumeration import (
    EnumerationStats,
    PruningRule,
    maximal_cliques,
)
from repro.core.kernel import (
    CompiledComponent,
    CutRows,
    VertexView,
    compile_component,
    derive_component_view,
    vertex_views,
)
from repro.core.ktau_core import dp_core, dp_core_plus
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    distribution_peel,
    node_sort_key,
    survival_peel,
    topk_peel,
)
from repro.core.topk_core import TopKCoreResult, topk_core, topk_core_arrays
from repro.deterministic.components import connected_components
from repro.deterministic.coloring import greedy_coloring
from repro.deterministic.core_decomposition import core_numbers
from repro.uncertain.clique_prob import clique_probability, is_clique
from repro.uncertain.graph import _MUTLOG_MAXLEN, Node
from repro.utils.validation import prob_at_least, threshold_floor
from tests.conftest import make_random_graph
from tests.core.oracles import (
    ktau_core_oracle,
    mule_maximal_cliques,
    topk_core_oracle,
)
from tests.core.support import (
    PROBABILITY_PALETTE,
    assert_bit_identical,
    assert_views_bit_identical,
    clique_edges,
    hub_and_triangle,
    lowering_view,
    seed_graph,
    straddle_graph,
    two_cliques,
    uncertain_graphs,
)
from tests.core.test_session import _record_lookups

TAUS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6)
#: Brute force checks every node subset: cheap up to here, and the
#: MULE-style oracle answers above it (a mutation stream can grow a
#: graph).
BRUTE_FORCE_LIMIT = 14

#: ``(op, u, v, p)``; ``v`` and ``p`` are ignored by the node ops.
Mutation = tuple[str, Node, Node, float]


@dataclass(frozen=True)
class Case:
    """One graph and everything the matrix asks of it."""

    graph: UncertainGraph
    k: int
    tau: float
    mutations: tuple[Mutation, ...] = ()
    #: ``"ktau"`` sessions are mutated through a KTauCoreMaintainer,
    #: which has no node removal, so their streams draw none.
    pruning: PruningRule = "topk"
    cut: bool = True
    insearch: bool = True
    #: The anchored queries' nodes (the first for ``cliques_containing``)
    #: and the ``fixed=`` set of the peels.
    anchors: tuple[Node, ...] = ()
    #: A ``members=`` set of the restricted peels.
    members: tuple[Node, ...] = ()
    #: Picks the edge whose removal seeds the ``frontier=`` re-peel.
    drop: int = 0

    def __repr__(self) -> str:
        graph = self.graph
        rest = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in (
                "k", "tau", "mutations", "pruning", "cut", "insearch",
                "anchors", "members", "drop",
            )
        )
        return (
            f"Case(UncertainGraph(nodes={graph.nodes()!r}, "
            f"edges={list(graph.edges())!r}), {rest})"
        )


def mutate(
    graph: UncertainGraph,
    maintainer: KTauCoreMaintainer | None,
    mutation: Mutation,
) -> None:
    """Apply ``mutation`` through ``maintainer`` when there is one."""
    op, u, v, p = mutation
    writer: Any = graph if maintainer is None else maintainer
    if op == "reweight":
        writer.set_probability(u, v, p)
    elif op == "add_edge":
        writer.add_edge(u, v, p)
    elif op == "remove_edge":
        writer.remove_edge(u, v)
    elif op == "add_node":
        writer.add_node(u)
    else:
        writer.remove_node(u)


@st.composite
def mutation_streams(
    draw: st.DrawFn, graph: UncertainGraph, node_removal: bool
) -> tuple[Mutation, ...]:
    scratch = graph.copy()
    stream: list[Mutation] = []
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        nodes = scratch.nodes()
        edges = [(u, v) for u, v, _ in scratch.edges()]
        ops = ["add_node", "add_edge"]
        if edges:
            ops += ["reweight", "remove_edge"]
        if nodes and node_removal:
            ops.append("remove_node")
        op = draw(st.sampled_from(ops))
        p = draw(st.sampled_from(PROBABILITY_PALETTE))
        u = v = f"new{i}"
        if op in ("reweight", "remove_edge"):
            u, v = draw(st.sampled_from(edges))
        elif op == "add_edge":
            u = draw(st.sampled_from([*nodes, u]))
            v = draw(st.sampled_from([
                *(w for w in nodes if w != u and not scratch.has_edge(u, w)),
                f"new{i}b",
            ]))
        elif op == "remove_node":
            u = v = draw(st.sampled_from(nodes))
        mutation = (op, u, v, p)
        mutate(scratch, None, mutation)
        stream.append(mutation)
    return tuple(stream)


@st.composite
def cases(draw: st.DrawFn) -> Case:
    graph = draw(uncertain_graphs())
    nodes = graph.nodes()
    # tau exactly at the probability of an edge or a triangle: the
    # tolerant threshold must keep that clique on every path.
    exact = [
        clique_probability(graph, clique)
        for clique in itertools.chain(
            itertools.combinations(nodes, 2), itertools.combinations(nodes, 3)
        )
        if is_clique(graph, clique)
    ]
    taus = st.sampled_from(TAUS)
    tau = draw(taus | st.sampled_from(exact) if exact else taus)
    pruning = draw(st.sampled_from(("topk", "ktau")))
    anchors: tuple[Node, ...] = ()
    members: tuple[Node, ...] = ()
    if nodes:
        first = draw(st.sampled_from(nodes))
        neighbours = list(graph.incident(first))
        more = draw(
            st.lists(st.sampled_from(neighbours), unique=True, max_size=2)
            if neighbours else st.just([])
        )
        anchors = (first, *more)
        members = tuple(draw(st.lists(st.sampled_from(nodes), unique=True)))
    return Case(
        graph,
        k=draw(st.integers(min_value=0, max_value=4)),
        tau=tau,
        mutations=draw(mutation_streams(graph, pruning != "ktau")),
        pruning=pruning,
        cut=draw(st.booleans()),
        insearch=draw(st.booleans()),
        anchors=anchors,
        members=members,
        drop=draw(st.integers(min_value=0, max_value=64)),
    )


# ----------------------------------------------------------------------
# Session queries
# ----------------------------------------------------------------------


def clique_oracle(
    graph: UncertainGraph, k: int, tau: float
) -> set[frozenset[Node]]:
    """The maximal (k, tau)-cliques, by the cheapest rung that answers."""
    if len(graph) <= BRUTE_FORCE_LIMIT:
        return brute_force_maximal_cliques(graph, k, tau)
    return mule_maximal_cliques(graph, k, tau)


def maximum_of(cliques: set[frozenset[Node]]) -> frozenset[Node] | None:
    """The canonical maximum: of the largest cliques, the one whose
    sorted members are lexicographically smallest under node_sort_key."""
    if not cliques:
        return None
    size = max(map(len, cliques))
    return min(
        (c for c in cliques if len(c) == size),
        key=lambda c: sorted(map(node_sort_key, c)),
    )


def present(graph: UncertainGraph, case: Case) -> list[Node]:
    """The case's anchors that the (possibly mutated) graph still has."""
    return [a for a in case.anchors if graph.has_node(a)]


def ask_enumeration(
    session: PreparedGraph, case: Case
) -> tuple[list[frozenset[Node]], EnumerationStats]:
    stats = EnumerationStats()
    cliques = list(session.maximal_cliques(
        case.k, case.tau, pruning=case.pruning, cut=case.cut,
        insearch=case.insearch, stats=stats,
    ))
    assert stats.cliques == len(cliques)
    return cliques, stats


def ask_maximum(
    session: PreparedGraph, case: Case
) -> tuple[frozenset[Node] | None, MaximumSearchStats]:
    stats = MaximumSearchStats()
    best = session.max_uc_plus(
        case.k, case.tau, stats=stats, insearch=case.insearch
    )
    return best, stats


def ask_containing(
    session: PreparedGraph, case: Case
) -> tuple[list[frozenset[Node]] | None, None]:
    anchors = present(session.graph, case)
    if not anchors:
        return None, None
    return list(session.cliques_containing(anchors[0], case.k, case.tau)), None


def ask_exists(session: PreparedGraph, case: Case) -> tuple[bool, None]:
    return session.containing_clique_exists(
        present(session.graph, case), case.k, case.tau
    ), None


def ask_extendable(session: PreparedGraph, case: Case) -> tuple[bool, None]:
    return session.is_extendable(present(session.graph, case), case.tau), None


def containing_oracle(
    cliques: set[frozenset[Node]], graph: UncertainGraph, case: Case
) -> set[frozenset[Node]] | None:
    anchors = present(graph, case)
    return {c for c in cliques if anchors[0] in c} if anchors else None


def exists_oracle(
    cliques: set[frozenset[Node]], graph: UncertainGraph, case: Case
) -> bool:
    anchors = set(present(graph, case))
    return bool(anchors) and any(anchors <= c for c in cliques)


def extendable_oracle(
    cliques: set[frozenset[Node]], graph: UncertainGraph, case: Case
) -> bool:
    anchors = present(graph, case)
    if not anchors:
        return len(graph) > 0
    return is_clique(graph, anchors) and any(
        is_clique(graph, [*anchors, v])
        and prob_at_least(clique_probability(graph, [*anchors, v]), case.tau)
        for v in graph.nodes()
        if v not in anchors
    )


@dataclass(frozen=True)
class Query:
    ask: Callable[[PreparedGraph, Case], tuple[Any, Any]]
    oracle: Callable[[set[frozenset[Node]], UncertainGraph, Case], Any]


#: What the search shape cannot move: the kernel size limit reorders
#: emission and changes the recursion, never the prune, the cut or the
#: clique count.
PRESEARCH = (
    "nodes_after_pruning", "components", "cuts_found", "cut_edges_removed",
    "cliques",
)

QUERIES: dict[str, Query] = {
    "maximal_cliques": Query(
        ask_enumeration, lambda cliques, graph, case: cliques
    ),
    "max_uc_plus": Query(
        ask_maximum, lambda cliques, graph, case: maximum_of(cliques)
    ),
    "cliques_containing": Query(ask_containing, containing_oracle),
    "containing_clique_exists": Query(ask_exists, exists_oracle),
    "is_extendable": Query(ask_extendable, extendable_oracle),
}

Answers = dict[str, tuple[Any, dict[str, Any] | None]]


def ask_all(session: PreparedGraph, case: Case) -> Answers:
    answers: Answers = {}
    for name, query in QUERIES.items():
        answer, stats = query.ask(session, case)
        answers[name] = (answer, None if stats is None else asdict(stats))
    return answers


def assert_oracle(
    answers: Answers, cliques: set[frozenset[Node]], graph: UncertainGraph,
    case: Case,
) -> None:
    for name, (answer, _) in answers.items():
        if isinstance(answer, list):
            assert len(answer) == len(set(answer)), name  # each clique once
            answer = set(answer)
        assert answer == QUERIES[name].oracle(cliques, graph, case), name


def check_queries(case: Case) -> None:
    graph = case.graph.copy()
    k, tau = case.k, case.tau

    # Cold: a fresh copy, whose views were built from the rows its cuts
    # read.
    cliques = clique_oracle(graph, k, tau)
    fresh = PreparedGraph(graph.copy())
    with recording_views() as built:
        cold = ask_all(fresh, case)
    assert_built_views(fresh, built)
    assert_oracle(cold, cliques, graph, case)
    # With the gate at zero the in-search peel runs at every search
    # call: the kernel's mask peel on every recursion level, duplicate
    # probabilities included.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_mod, "_INSEARCH_MIN_CANDIDATES", 0)
        forced = list(maximal_cliques(
            graph.copy(), k, tau, pruning=case.pruning, cut=case.cut,
        ))
        assert len(forced) == len(set(forced))
        assert set(forced) == cliques

    # Warm: one session answers everything twice; the repeat is all hits.
    session = PreparedGraph(graph)
    assert ask_all(session, case) == cold
    misses = session.cache_stats.misses
    assert ask_all(session, case) == cold
    assert session.cache_stats.misses == misses
    assert session.cache_stats.full_compiles <= 1
    lowered = graph._lowering

    # Mutate: that session through the stream, checked after every op.
    maintainer = (
        KTauCoreMaintainer(session, k, tau) if case.pruning == "ktau" else None
    )
    for mutation in case.mutations:
        misses = session.cache_stats.misses
        mutate(graph, maintainer, mutation)
        warm, _ = ask_enumeration(session, case)
        fresh = PreparedGraph(graph.copy())
        assert warm == ask_enumeration(fresh, case)[0]
        # Untouched components are served from the cache, never re-derived.
        assert session.cache_stats.misses - misses <= fresh.cache_stats.misses
        if maintainer is not None:
            core = ktau_core_oracle(graph, k, tau)
            assert maintainer.core == core
            assert all(clique <= core for clique in warm)

    cliques = clique_oracle(graph, k, tau)
    after = ask_all(session, case)
    assert_oracle(after, cliques, graph, case)
    assert after == ask_all(PreparedGraph(graph.copy()), case)
    removals = sum(op == "remove_node" for op, *_ in case.mutations)
    assert session.cache_stats.full_compiles <= 1 + removals
    if lowered is not None and not removals:
        assert graph._lowering is lowered  # patched in place, never re-lowered


# ----------------------------------------------------------------------
# Lowering readers
# ----------------------------------------------------------------------

Peel = Callable[..., Any]

#: Each compiled peel and the naive fixpoint it must equal.
PEELS: dict[str, tuple[Peel, Peel]] = {
    "topk": (topk_peel, topk_core_oracle),
    "ktau+": (survival_peel, ktau_core_oracle),
    "ktau": (distribution_peel, ktau_core_oracle),
}


#: The peels that take ``members=``: the DPCore baseline only ever
#: peels the whole graph.
RESTRICTED = ("topk", "ktau+")


def oracle_cores(graph: UncertainGraph, k: int, tau: float) -> dict[str, Any]:
    return {name: oracle(graph, k, tau) for name, (_, oracle) in PEELS.items()}


def as_oracle(result: TopKCoreResult) -> frozenset[Node] | None:
    """A ``fixed=`` peel's answer in the oracle's form."""
    return result.nodes if result.contains_fixed else None


def check_readers(
    graph: UncertainGraph, cpg: CompiledGraph, case: Case
) -> None:
    """Every reader of ``cpg`` against its oracle on ``graph``.  Leaves
    ``cpg`` lazily mapped as far as the readers mapped it."""
    k, tau = case.k, case.tau
    fixed = set(present(graph, case))
    whole = oracle_cores(graph, k, tau)
    for name, (peel, _) in PEELS.items():
        assert peel(cpg, k, tau) == whole[name], name
    assert dp_core(graph, k, tau, compiled=cpg) == whole["ktau"]
    assert dp_core_plus(graph, k, tau, compiled=cpg) == whole["ktau+"]
    assert topk_core_arrays(graph, k, tau, compiled=cpg) == whole["topk"]
    assert as_oracle(
        topk_core(graph, k, tau, fixed=fixed, compiled=cpg)
    ) == topk_core_oracle(graph, k, tau, fixed)

    components = [
        [u for u in graph if u in component]
        for component in connected_components(graph)
    ]
    # Fixed nodes inside the members abort the peel when condemned;
    # fixed nodes outside them never do.  Restricted peels neither read
    # nor write the whole-graph level index.
    levels = dict(cpg._topk_levels)
    for members in (
        components[0] if components else [],
        [u for u in case.members if graph.has_node(u)],
    ):
        induced = graph.induced_subgraph(members)
        restricted = oracle_cores(induced, k, tau)
        for name in RESTRICTED:
            peel = PEELS[name][0]
            assert peel(cpg, k, tau, members=members) == restricted[name], name
        # Any frontier reads a lowered artifact as it reads a fresh one.
        frontier = members[::2]
        assert survival_peel(
            cpg, k, tau, members=members, frontier=frontier
        ) == survival_peel(
            compile_graph(graph), k, tau, members=members, frontier=frontier
        )
        oracle = topk_core_oracle(induced, k, tau, fixed)
        assert topk_peel(cpg, k, tau, members=members, fixed=fixed) == oracle
        assert as_oracle(topk_core(
            graph, k, tau, fixed=fixed, compiled=cpg, members=members
        )) == oracle
        # Pruning removes nodes, never edges among survivors, so any
        # member set is a view the search stage may derive.
        assert_views_bit_identical(
            lowering_view(cpg, members), compile_component(induced)
        )
    assert cpg._topk_levels == levels
    for members in components:
        assert_views_bit_identical(
            lowering_view(cpg, members),
            compile_component(graph.induced_subgraph(members)),
        )
    check_gathers(graph, cpg, case)


@dataclass
class BuiltViews:
    """The search views built while :func:`recording_views` ran: each
    whole view, and each search's per-vertex views of an oversized
    piece, by the piece's node set (one list per search)."""

    whole: list[CompiledComponent]
    per_vertex: dict[frozenset[Node], list[list[VertexView]]]


@contextmanager
def recording_views() -> Iterator[BuiltViews]:
    """Record every view the pipeline builds, through the module
    attributes its searches call."""
    built = BuiltViews([], {})
    derive = pipeline_mod.derive_component_view
    per_vertex = pipeline_mod.vertex_views

    def deriving(source: Any, members: Any) -> CompiledComponent:
        view = derive(source, members)
        built.whole.append(view)
        return view

    def per_vertex_views(
        source: CutRows, piece: list[int], k: int
    ) -> Iterator[VertexView]:
        views: list[VertexView] = []
        built.per_vertex.setdefault(
            frozenset(source.labels[i] for i in piece), []
        ).append(views)
        for vv in per_vertex(source, piece, k):
            views.append(vv)
            yield vv

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_mod, "derive_component_view", deriving)
        patch.setattr(pipeline_mod, "vertex_views", per_vertex_views)
        yield built


def assert_built_views(session: PreparedGraph, built: BuiltViews) -> None:
    """Every view built is bit-identical to compiling its component's
    induced subgraph, and every component an enumeration cut entry of
    ``session`` holds got the views the kernel takes: none up to ``k``
    nodes, one whole view up to the kernel limit, else the views of a
    degeneracy order."""
    graph = session.graph
    for view in built.whole:
        assert_views_bit_identical(
            view, compile_component(graph.induced_subgraph(view.nodes))
        )
    whole = {frozenset(view.nodes) for view in built.whole}
    for key, value in session._cache.items():
        if key[3] != "cut":
            continue
        k, limit = key[6], key[8]
        for component in value.components:
            nodes = frozenset(component)
            if len(component) <= k:
                assert nodes not in built.per_vertex
            elif len(component) <= limit:
                assert nodes in whole
            else:
                for views in built.per_vertex[nodes]:
                    assert_vertex_views(graph, k, component, views)


def assert_vertex_views(
    graph: UncertainGraph,
    k: int,
    component: tuple[Node, ...],
    views: list[VertexView],
) -> None:
    """The views of a degeneracy order: one per vertex ``v`` whose view
    has more than ``k`` nodes, each holding ``v`` and some of its
    neighbours (no two vertices in each other's view), at most the
    component's degeneracy plus one nodes, and each the compile of its
    induced subgraph."""
    induced = graph.induced_subgraph(component)
    degeneracy = max(core_numbers(induced).values())
    later = {vv.view.nodes[vv.root]: set(vv.view.nodes) for vv in views}
    assert len(later) == len(views) and set(later) <= set(component)
    for root, members in later.items():
        members.discard(root)
        assert members <= set(induced.neighbors(root))
        assert k < len(members) + 1 <= degeneracy + 1
        assert not any(root in later.get(u, ()) for u in members)
    for vv in views:
        assert_views_bit_identical(
            vv.view, compile_component(graph.induced_subgraph(vv.view.nodes))
        )


def source_views(
    source: pipeline_mod.SearchSource, k: int
) -> list[CompiledComponent | list[VertexView]]:
    """The views an enumeration search builds from ``source``, per
    piece."""
    limit = enumeration_mod.KERNEL_COMPONENT_LIMIT
    rows, pieces = source
    return [
        derive_component_view(rows, piece) if len(piece) <= limit
        else list(vertex_views(rows, piece, k))
        for piece in pieces
    ]


def check_maximum_views(
    graph: UncertainGraph,
    searched: list[tuple[Node, ...]],
    source: pipeline_mod.SearchSource,
    again: pipeline_mod.SearchSource,
) -> None:
    """Each searched MaxUC+ component's view and color list, built from
    a maximum cut's rows, is the compile of its induced subgraph and
    that subgraph's greedy coloring in view order; a cached cut's rows,
    read again, build the same."""
    assert len(source[1]) == len(again[1]) == len(searched)
    lookups: dict[int, dict[int, float]] = {}
    lookups_again: dict[int, dict[int, float]] = {}
    for component, piece, other in zip(searched, source[1], again[1]):
        view, colors = pipeline_mod.piece_view(source[0], piece, lookups)
        induced = graph.induced_subgraph(component)
        assert_views_bit_identical(view, compile_component(induced))
        coloring = greedy_coloring(induced)
        assert colors == [coloring[u] for u in view.nodes]
        view_again, colors_again = pipeline_mod.piece_view(
            again[0], other, lookups_again
        )
        assert_views_bit_identical(view, view_again)
        assert colors == colors_again


def check_gathers(
    graph: UncertainGraph, cpg: CompiledGraph, case: Case
) -> None:
    """The cut's gather and the views built from its rows, on id sets
    inside and outside the level index's base core: every ``topk``
    core (bisected from the index when it holds them), the ``ktau`` and
    ``members=`` survivors, an anchored ``fixed=`` core and the whole
    graph (``none``).  Each gather equals the full-row gather of an
    unindexed lowering, and reads core rows exactly when an indexed core
    holds every id.  Run with the index as ``cpg`` has it, again with
    one built at ``(k, tau)``, and after the Fig. 4 runner's reset.
    """
    k, tau = case.k, case.tau
    full = compile_graph(graph)
    index = cpg.index
    fixed = set(present(graph, case))
    region = [u for u in case.members if graph.has_node(u)]

    def ascending(nodes: Any) -> list[int]:
        return sorted(index[u] for u in nodes)

    def check(ids: list[int]) -> None:
        levels = cpg._topk_levels
        for entry in levels.values():
            if entry is not None:  # a core row is its full row in-core
                core = set(entry[1])
                assert entry[3] == {
                    i: tuple(map(list, zip(*[
                        (j, p) for j, p in zip(*full.row(i)) if j in core
                    ]))) or ([], [])
                    for i in core
                }
        held = any(
            entry is not None and set(ids) <= set(entry[1])
            for entry in levels.values()
        )
        assert (cpg.core_rows(ids) is not None) == held
        rows = induced_rows(cpg, ids)
        assert rows == induced_rows(full, ids)
        # The cut's rows build the view of any id set they cover.
        detached = CutRows(
            [cpg.nodes[g] for g in ids], [cpg.sort_rank[g] for g in ids],
            rows,
        )
        assert_views_bit_identical(
            derive_component_view(detached, range(len(ids))),
            compile_component(
                graph.induced_subgraph([cpg.nodes[g] for g in ids])
            ),
        )
        for maximum in (False, True):
            art = pipeline_mod.cut_stage(cpg, ids, k, tau, case.cut, maximum)
            assert art == pipeline_mod.cut_stage(
                full, ids, k, tau, case.cut, maximum
            )
            assert art.source is not None
            searched = [c for c in art.components if len(c) > k]
            if maximum:
                check_maximum_views(
                    graph, searched, art.source,
                    pipeline_mod.search_source(cpg, art, k),
                )
                continue
            views = source_views(art.source, k)
            assert len(views) == len(searched)
            for component, view in zip(searched, views):
                if isinstance(view, CompiledComponent):
                    assert_views_bit_identical(view, compile_component(
                        graph.induced_subgraph(component)
                    ))
                else:
                    assert_vertex_views(graph, k, component, view)
            # A cached cut's rows, read again, build the same views.
            again = source_views(pipeline_mod.search_source(cpg, art, k), k)
            for view, other in zip(views, again):
                if isinstance(view, CompiledComponent):
                    assert isinstance(other, CompiledComponent)
                    assert_views_bit_identical(view, other)
                else:
                    assert isinstance(other, list)
                    assert len(view) == len(other)
                    for vv, ww in zip(view, other):
                        assert (vv.root, vv.members, vv.witnesses) == (
                            ww.root, ww.members, ww.witnesses
                        )
                        assert_views_bit_identical(vv.view, ww.view)

    def check_all() -> None:
        sets = [
            list(range(cpg.n)),  # the "none" rule
            ascending(survival_peel(cpg, k, tau)),
            ascending(topk_peel(cpg, k, tau, members=region)),
            *(ascending(topk_peel(cpg, k, t)) for t in (tau, *TAUS)),
        ]
        anchored = topk_peel(cpg, k, tau, members=region, fixed=fixed)
        if anchored:
            sets.append([index[u] for u in region if u in anchored])
        for ids in sets:
            check(ids)

    check_all()
    topk_peel(cpg, k, tau)
    topk_peel(cpg, k, tau)
    entry = cpg._topk_levels.get(k)
    assert k == 0 or entry is not None and entry[0] <= threshold_floor(tau)
    check_all()
    cpg._topk_levels = {}  # the Fig. 4 runner's reset
    check_all()


def assert_core_numbers(graph: UncertainGraph, cpg: CompiledGraph) -> None:
    assert dict(zip(cpg.nodes, cpg.core_ids())) == core_numbers(graph)


def check_lowering(case: Case) -> None:
    graph = case.graph.copy()
    k, tau = case.k, case.tau

    # Cold: a fresh lowering, nothing mapped.
    cold = compile_graph(graph)
    check_readers(graph, cold, case)
    assert_core_numbers(graph, cold)

    # Warm: the graph's own lowering, some rows mapped by earlier reads,
    # and the level index built by a second whole-graph peel at k.
    warm, how = pipeline_mod.lowering(graph)
    assert how == "full"
    for u in case.members:
        warm.row(warm.index[u])
    topk_peel(warm, k, tau)
    topk_peel(warm, k, tau)
    check_readers(graph, warm, case)

    # Mutate: the warm lowering patched through the stream (or lowered
    # afresh after a node removal).
    for mutation in case.mutations:
        mutate(graph, None, mutation)
    removals = any(op == "remove_node" for op, *_ in case.mutations)
    patched, how = pipeline_mod.lowering(graph)
    assert how == (
        "full" if removals else "delta" if case.mutations else "current"
    )
    assert (patched is warm) == (not removals)
    if case.mutations:
        assert patched._topk_levels == {}  # every patch drops the index
    check_readers(graph, patched, case)
    assert_bit_identical(patched, compile_graph(graph))
    assert_core_numbers(graph, patched)

    # The maintainer's re-peel: an edge goes, the previous core is
    # trusted, and the peel starts from the edge's endpoints only.
    edges = list(graph.edges())
    if edges:
        u, v, p = edges[case.drop % len(edges)]
        core = ktau_core_oracle(graph, k, tau)
        graph.remove_edge(u, v)
        expected = ktau_core_oracle(graph, k, tau)
        repatched, how = pipeline_mod.lowering(graph)
        assert repatched is patched and how == "delta"
        frontier = [w for w in (u, v) if w in core]
        for cpg in (repatched, compile_graph(graph)):
            assert survival_peel(
                cpg, k, tau, members=core, frontier=frontier
            ) == expected
        assert_bit_identical(repatched, compile_graph(graph))
        # And back: a patch after every row and the core numbers were read.
        graph.add_edge(u, v, p)
        assert pipeline_mod.lowering(graph) == (patched, "delta")
        assert_bit_identical(patched, compile_graph(graph))


# ----------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------

#: The session queries run more examples than the lowering readers so
#: that the maintainer-driven ``ktau`` cases alone number 25 or more.
matrix = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(matrix, max_examples=100)
@given(case=cases())
def test_session_queries(case: Case) -> None:
    check_queries(case)


@settings(matrix, max_examples=40)
@given(case=cases())
def test_session_queries_per_vertex_views(case: Case) -> None:
    # With the kernel limit squeezed to 3, nearly every piece is searched
    # as per-vertex views (sub-pieces for MaxUC+), in every mode.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
        check_queries(case)


@settings(matrix, max_examples=60)
@given(case=cases())
def test_lowering_readers(case: Case) -> None:
    check_lowering(case)


def _clique_with_tail() -> UncertainGraph:
    """A 0.9 5-clique with a 30-node path of 0.1 edges hung off it: at
    (k=3, tau=0.3) the top-k prefilter condemns every path node from its
    probabilities alone."""
    path = ["c0", *(f"t{i}" for i in range(30))]
    return UncertainGraph(
        clique_edges([f"c{i}" for i in range(5)], 0.9)
        + [(u, v, 0.1) for u, v in zip(path, path[1:])]
    )


def _pinned(
    graph: UncertainGraph, k: int, tau: float, *mutations: Mutation
) -> Case:
    nodes = graph.nodes()
    return Case(
        graph, k, tau, mutations, anchors=tuple(nodes[:1]),
        members=tuple(nodes),
    )


#: Regressions pinned by earlier suites, each checked like a drawn case.
PINNED: dict[str, Case] = {
    # The strategy draws 3 nodes or more; these two it never draws.
    **{
        f"{name}-k{k}": _pinned(graph, k, 0.2, *mutations)
        for name, graph, mutations in (
            ("empty", UncertainGraph(), ()),
            ("one-node", UncertainGraph(nodes=["a"]),
             (("add_edge", "a", "b", 0.7),)),
        )
        for k in (0, 1)
    },
    "duplicate-probabilities": _pinned(hub_and_triangle(), 2, 0.2),
    **{
        f"straddle-k{k}-tau{tau}": _pinned(straddle_graph(), k, tau)
        for k in (1, 2, 3, 4)
        for tau in (0.05, 0.5, 0.9)
    },
    "knife-edge": _pinned(
        UncertainGraph(clique_edges("abc", 0.5)), 2, 0.125
    ),
    "one-lowering-per-version": _pinned(
        two_cliques(), 2, 0.3, ("add_edge", "c", "x", 0.7)
    ),
    "partly-mapped-patch": _pinned(
        _clique_with_tail(), 3, 0.3,
        ("reweight", "c0", "c1", 0.35), ("add_edge", "t3", "c4", 0.8),
        ("add_edge", "t29", "fresh", 0.6), ("remove_edge", "t10", "t11", 0.0),
        ("add_node", "loner", "loner", 0.0),
    ),
    "delta-reweight": _pinned(
        seed_graph(), 1, 0.3, ("reweight", "b", "c", 0.15)
    ),
    "delta-add-edge": _pinned(
        seed_graph(), 1, 0.3, ("add_edge", "d", "x", 0.4)
    ),
    "delta-add-edge-new-endpoints": _pinned(
        seed_graph(), 1, 0.3, ("add_edge", "new1", "new2", 0.35)
    ),
    "delta-remove-edge": _pinned(
        seed_graph(), 1, 0.3, ("remove_edge", "a", "c", 0.0)
    ),
    "delta-add-node": _pinned(
        seed_graph(), 1, 0.3, ("add_node", "loner", "loner", 0.0)
    ),
    "delta-after-views": _pinned(
        seed_graph(), 1, 0.3, ("reweight", "a", "b", 0.1),
        ("add_edge", "d", "y", 0.55),
    ),
    **{
        f"patched-peels-k{k}-tau{tau}": _pinned(
            seed_graph(), k, tau, ("reweight", "a", "c", 0.95),
            ("add_edge", "b", "d", 0.85),
        )
        for k, tau in ((1, 0.3), (2, 0.5), (2, 0.1))
    },
}


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_pinned_rows(case: Case) -> None:
    check_queries(case)
    check_lowering(case)


# ----------------------------------------------------------------------
# Fallback and per-vertex rows: each checks its path was taken
# ----------------------------------------------------------------------


def _assert_like_a_cold_rebuild(session: PreparedGraph, case: Case) -> None:
    assert ask_all(session, case) == ask_all(
        PreparedGraph(session.graph.copy()), case
    )


def test_log_gap_relowers() -> None:
    graph = two_cliques()
    case = _pinned(graph, 2, 0.3)
    session = PreparedGraph(graph)
    list(session.maximal_cliques(2, 0.3))
    lowered = graph._lowering
    assert isinstance(lowered, CompiledGraph)
    for i in range(_MUTLOG_MAXLEN + 1):
        graph.set_probability("x", "y", 0.85 if i % 2 else 0.75)
    assert graph.mutations_since(lowered.version) is None
    _assert_like_a_cold_rebuild(session, case)
    assert session.cache_stats.full_compiles == 2
    assert session.cache_stats.delta_patches == 0
    assert graph._lowering is not lowered


def test_remove_node_is_refused_and_relowered() -> None:
    # apply_delta refuses a slice holding a remove_node (its own contract
    # is tests.core.test_delta_compile's): the session lowers afresh.
    graph = seed_graph()
    case = _pinned(graph, 1, 0.3)
    session = PreparedGraph(graph)
    list(session.maximal_cliques(1, 0.3))
    lowered = graph._lowering
    graph.set_probability("a", "b", 0.2)  # patchable...
    graph.remove_node("c")  # ...but this poisons the whole slice
    _assert_like_a_cold_rebuild(session, case)
    assert session.cache_stats.full_compiles == 2
    assert session.cache_stats.delta_patches == 0
    assert graph._lowering is not lowered


def _k6() -> UncertainGraph:
    return UncertainGraph(clique_edges(range(6), 0.9))


@pytest.mark.parametrize("build", [two_cliques, _k6], ids=["k4-and-k3", "k6"])
def test_oversized_component_takes_per_vertex_views(
    build: Callable[[], UncertainGraph], monkeypatch: pytest.MonkeyPatch
) -> None:
    # With the kernel limit squeezed to 3, a larger component is searched
    # one per-vertex view at a time: the oracle's cliques, and the
    # pre-search counters of a search at the default limit.
    graph = build()
    whole = EnumerationStats()
    assert list(maximal_cliques(graph.copy(), 2, 0.3, stats=whole))
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    runs = []
    for _ in range(2):
        stats = EnumerationStats()
        runs.append((list(maximal_cliques(graph.copy(), 2, 0.3, stats=stats)),
                     asdict(stats)))
    (cliques, stats), again = runs
    assert again == runs[0]
    assert len(cliques) == len(set(cliques))
    assert set(cliques) == brute_force_maximal_cliques(graph, 2, 0.3)
    for field in PRESEARCH:
        assert stats[field] == getattr(whole, field)


def test_an_earlier_neighbour_drops_a_later_views_clique(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Under a squeezed limit the K4's second vertex in the degeneracy
    # order has the two after it in its view, which alone finds that
    # triangle maximal: only the first vertex's witness row drops it.
    graph = two_cliques()
    oracle = brute_force_maximal_cliques(graph, 2, 0.3)
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    assert set(maximal_cliques(graph.copy(), 2, 0.3)) == oracle
    monkeypatch.setattr(
        pipeline_mod, "drop_extended", lambda vv, found, tau_floor: found
    )
    unfiltered = list(maximal_cliques(graph.copy(), 2, 0.3))
    extra = set(unfiltered) - oracle
    assert len(extra) == 1 and extra.pop() < frozenset("abcd")


def _random_graph() -> UncertainGraph:
    return make_random_graph(30, 0.5, seed=1)


@pytest.mark.parametrize(
    ("build", "k", "tau", "advanced_one"),
    [
        (two_cliques, 2, 0.3, True),
        (_k6, 2, 0.3, True),
        # Without the first advanced bound the second one prunes here.
        (_random_graph, 2, 0.05, False),
    ],
    ids=["k4-and-k3", "k6", "advanced-two"],
)
def test_oversized_maximum_takes_sub_pieces(
    build: Callable[[], UncertainGraph],
    k: int,
    tau: float,
    advanced_one: bool,
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # With the kernel limit squeezed to 3, the maximum cut splits every
    # larger piece into per-vertex sub-pieces, each searched as a
    # component: the oracle's canonical answer, the same counters on
    # every run.
    graph = build()
    canonical = maximum_of(mule_maximal_cliques(graph, k, tau))
    piece_order = pipeline_mod.piece_order
    split: list[int] = []

    def recording(rows: Any, piece: list[int]) -> Any:
        split.append(len(piece))
        return piece_order(rows, piece)

    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
    monkeypatch.setattr(pipeline_mod, "piece_order", recording)
    runs = []
    for _ in range(2):
        stats = MaximumSearchStats()
        best = max_uc_plus(
            graph.copy(), k, tau, stats=stats, use_advanced_one=advanced_one,
        )
        runs.append((best, asdict(stats)))
    assert split  # a piece above the limit was split into sub-pieces
    assert runs[0] == runs[1]
    assert runs[0][0] == canonical
    assert advanced_one or runs[0][1]["advanced_two_prunes"] > 0


def test_sub_pieces_sharing_a_head_keep_the_smaller_tie(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Triangles abc and ade on the hub a, and def beside ade.  In this
    # insertion order the degeneracy order is c, b, a, e, f, d, so the
    # sub-pieces, in reverse, come out def, ade, abc: the last two share
    # the head a, and the last holds the canonical tie abc, which only a
    # search with the floor lowered at an equal head finds.
    graph = UncertainGraph(
        clique_edges("ade", 0.9) + clique_edges("ef", 0.9)
        + clique_edges("abc", 0.9) + clique_edges("df", 0.9)
    )
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 5)
    session = PreparedGraph(graph)
    assert session.max_uc_plus(1, 0.5) == frozenset("abc")
    ((_, _, art),) = session._cut_artifact(
        "topk", True, 1, 0.5, MaximumSearchStats().timings, maximum=True
    )[1]
    assert art.components == (tuple("def"), tuple("ade"), tuple("abc"))
    assert art.heads == tuple("daa")


def test_a_skipped_clean_component_is_searched_from_its_cut_read_again(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # K5 "vwxyz" and K4 "abcd": the K5 wins and the K4, although its
    # head precedes, is skipped.  Dropping an edge of the K5 leaves it
    # a 4-clique, so the clean K4 is now searched: its cut entry and
    # its (empty) memo are warm, and its rows are read again from the
    # lowering.  Answer and counters equal a cold run's.
    graph = UncertainGraph(
        clique_edges("vwxyz", 0.9) + clique_edges("abcd", 0.9)
    )
    session = PreparedGraph(graph)
    assert session.max_uc_plus(2, 0.3) == frozenset("vwxyz")
    graph.remove_edge("v", "w")
    read_again: list[int] = []
    search_source = pipeline_mod.search_source

    def recording(*args: Any) -> Any:
        source = search_source(*args)
        read_again.append(len(source[1]))
        return source

    monkeypatch.setattr(pipeline_mod, "search_source", recording)
    warm = MaximumSearchStats()
    assert session.max_uc_plus(2, 0.3, stats=warm) == frozenset("abcd")
    assert read_again == [1]
    cold = MaximumSearchStats()
    assert max_uc_plus(graph.copy(), 2, 0.3, stats=cold) == frozenset("abcd")
    assert asdict(warm) == asdict(cold)


# ----------------------------------------------------------------------
# Per-component answers: replayed for clean components only
# ----------------------------------------------------------------------


def enumeration_payload(
    session: PreparedGraph, case: Case
) -> tuple[list[frozenset[Node]], dict[str, Any]]:
    cliques, stats = ask_enumeration(session, case)
    return cliques, asdict(stats)


def check_answers(case: Case) -> None:
    """Through the case's mutation stream, a warm session's
    enumeration equals a cold rebuild's, yield order and counters
    included, and it replays the answers of exactly the components the
    last mutation left clean.  A query that missed one leaves no stale
    entry behind."""
    graph = case.graph.copy()
    session = PreparedGraph(graph)
    maintainer = (
        KTauCoreMaintainer(session, case.k, case.tau)
        if case.pruning == "ktau" else None
    )
    enumeration_payload(session, case)
    for mutation in case.mutations:
        clean = set(graph.component_keys())
        mutate(graph, maintainer, mutation)
        with pytest.MonkeyPatch.context() as patch:
            lookups = _record_lookups(session, patch)
            warm = enumeration_payload(session, case)
        answers = [(key[1:3], hit) for key, hit in lookups
                   if key[3] == "answers"]
        parts = pipeline_mod.graph_components(graph)
        assert [key for key, _ in answers] == [
            (cid, epoch) for cid, epoch, _ in parts
        ]
        assert all(hit == (key in clean) for key, hit in answers)
        if not all(hit for _, hit in answers):
            assert session.retention_info()["component_stale"] == 0
        assert warm == enumeration_payload(PreparedGraph(graph.copy()), case)


@settings(matrix, max_examples=60)
@given(case=cases(), squeeze=st.booleans())
def test_answers_replay_only_clean_components(
    case: Case, squeeze: bool
) -> None:
    with pytest.MonkeyPatch.context() as patch:
        if squeeze:
            patch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 3)
        check_answers(case)


def _four_pieces() -> UncertainGraph:
    """Four disjoint random pieces of 6 to 30 nodes: at (2, 0.3) the
    enumeration's counters differ with the kernel size limit at 4 or
    the in-search gate at 0, and so does MaxUC+'s with the limit."""
    graph = UncertainGraph()
    pieces = ((14, 0.7), (6, 0.8), (30, 0.3), (9, 0.9))
    for i, (n, density) in enumerate(pieces):
        for u, v, p in make_random_graph(n, density, seed=i).edges():
            graph.add_edge(f"{i}.{u}", f"{i}.{v}", p)
    return graph


def test_answers_replay_with_an_oversized_piece(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Squeezed to 4, every piece above it is searched as per-vertex
    # views; a reweight, an insert, a delete, a merge of two components
    # and a new component each dirty only what they touch.
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 4)
    graph = _four_pieces()
    first = {}
    for u, v, _ in graph.edges():
        first.setdefault(u[0], (u, v))
    case = Case(
        graph, 2, 0.3,
        (
            ("reweight", *first["0"], 0.95),
            ("add_edge", "2.0", "2.29", 0.9),
            ("remove_edge", *first["3"], 0.0),
            ("add_edge", "1.0", "3.2", 0.8),
            ("add_edge", "new", "new2", 0.9),
        ),
    )
    check_answers(case)
    session = PreparedGraph(case.graph.copy())
    with recording_views() as built:
        enumeration_payload(session, case)
    assert built.per_vertex
    assert_built_views(session, built)


def test_an_abandoned_enumeration_stores_only_finished_components() -> None:
    graph = _four_pieces()
    case = Case(graph, 2, 0.3)
    session = PreparedGraph(graph)
    cliques = session.maximal_cliques(2, 0.3)
    first = next(cliques)
    cliques.close()
    # The first graph component with a clique was searched in full
    # before it yielded; the components after it were never searched.
    parts = pipeline_mod.graph_components(graph)
    first_cid = graph.component_id(next(iter(first)))
    reached = [cid for cid, _, _ in parts].index(first_cid) + 1
    assert reached < len(parts)
    assert [key[1:3] for key in session._cache if key[3] == "answers"] == [
        (cid, epoch) for cid, epoch, _ in parts[:reached]
    ]
    assert enumeration_payload(session, case) == enumeration_payload(
        PreparedGraph(graph.copy()), case
    )


@pytest.mark.parametrize(
    ("gate", "value"),
    [("KERNEL_COMPONENT_LIMIT", 4), ("_INSEARCH_MIN_CANDIDATES", 0)],
)
def test_a_gate_change_between_queries_answers_like_cold(
    gate: str, value: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    # A warm session must not serve entries cut or searched under the
    # old gate: every query answers as a cold session at the new one.
    # Under the squeezed limit, the cliques containing 0.3 come out in
    # another order.
    graph = _four_pieces()
    case = Case(graph, 2, 0.3, anchors=("0.3",))
    session = PreparedGraph(graph)
    before = ask_all(session, case)
    monkeypatch.setattr(enumeration_mod, gate, value)
    after = ask_all(session, case)
    assert after == ask_all(PreparedGraph(graph.copy()), case)
    assert after != before


# ----------------------------------------------------------------------
# Laziness
# ----------------------------------------------------------------------


def test_cold_query_maps_only_the_rows_it_reads() -> None:
    graph = _clique_with_tail()
    session = PreparedGraph(graph)
    cliques = list(session.maximal_cliques(3, 0.3))
    assert [set(c) for c in cliques] == [{f"c{i}" for i in range(5)}]
    assert session.cache_stats.full_compiles == 1
    artifact = graph._lowering
    assert isinstance(artifact, CompiledGraph)
    assert artifact.nbr_labels is not None
    rf = artifact.row_offsets
    mapped = [
        i for i in range(artifact.n)
        if rf[i] < rf[i + 1] and artifact.nbr_ids[rf[i]] is not None
    ]
    assert 0 < len(mapped) < artifact.n
    for i in set(range(artifact.n)) - set(mapped):
        assert all(x is None for x in artifact.nbr_ids[rf[i]:rf[i + 1]])
    # Finishing the lowering reproduces the eagerly mapped ids.
    artifact._finish_lowering()
    assert artifact.nbr_ids == [
        artifact.index[v] for u in artifact.nodes for v in graph.incident(u)
    ]
