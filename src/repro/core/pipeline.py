"""Composable stages of the clique-search flow: prune, cut, compile, search.

The monolithic drivers (``maximal_cliques``, ``max_uc_plus``) are decomposed
here into four explicit stages, each a pure function from graph state and
parameters to a deterministic artifact:

* :func:`prune_stage` — core-based preprocessing (Lemmas 1 and 4); returns
  the surviving nodes **in graph iteration order**, so the artifact is
  reproducible no matter which engine peeled or which cached seed the
  session layer supplied.
* :func:`cut_stage` — cut optimization / component split (Lemma 5); returns
  the component subgraphs plus the counters the stats objects report.
* :func:`compile_stage` — the **single whole-graph lowering**: one
  parameter-free :class:`~repro.core.prune_kernel.CompiledGraph` per graph
  version serves the prune peels *and* the per-component search views, so
  a cold query compiles the graph exactly once.
* :func:`compile_enumeration_stage` / :func:`compile_maximum_stage` /
  :func:`color_stage` — per-component search preparation: the picklable
  :class:`~repro.core.kernel.CompiledComponent` CSR bundles for the compiled
  engines (plus color arrays for the maximum search) and the greedy-coloring
  dicts for the legacy maximum search.  When handed the
  :func:`compile_stage` artifact, these *derive* the component views from
  the whole-graph arrays (member-filtered rows, no recompilation); the
  from-scratch :func:`~repro.core.kernel.compile_component` path remains as
  the fallback and the parity oracle.
* :func:`enumeration_search_stage` / :func:`maximum_search_stage` — the
  actual (sequential) search, consuming the compile artifacts.

Stage artifacts carry **no counters and no wall clocks** — those belong to
the per-run stats objects, which the search stages fill identically on
every run.  That split is what makes memoization sound: replaying a cached
artifact through the search stage yields bit-identical cliques, yield
order, and stats counters to a cold run.

Inside :mod:`repro.core` the only intended caller is the session layer
(:class:`repro.core.session.PreparedGraph`), which memoizes the artifacts
keyed by the graph's :attr:`~repro.uncertain.graph.UncertainGraph.version`;
repro-lint rule RPL007 flags direct stage calls that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Sequence

from repro.core.cut_pruning import cut_optimize
from repro.core.enumeration import (
    EnumerationStats,
    _muc,
    _ordered,
)
from repro.core.kernel import (
    CompiledComponent,
    compile_component,
    derive_component_view,
    enum_root_prep,
    enumerate_pivot_range,
    enumerate_root_range,
    maximum_compiled,
    pivot_root_plan,
)
from repro.core.ktau_core import dp_core_plus
from repro.core.maximum import MaximumSearchStats, _search_component_legacy
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.deterministic.coloring import greedy_coloring
from repro.deterministic.components import component_subgraphs
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "CutArtifact",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "compile_enumeration_stage",
    "compile_maximum_stage",
    "color_stage",
    "enumeration_search_stage",
    "maximum_search_stage",
]


# ----------------------------------------------------------------------
# Stage 0: compile (shared by prune and search)
# ----------------------------------------------------------------------

def compile_stage(graph: UncertainGraph) -> CompiledGraph:
    """Lower the graph into the unified flat-CSR artifact **once**.

    Parameter-free (no ``k``, no ``tau``): one compile per graph version
    serves every prune of every query *and* every search-view derivation,
    which is why the session layer memoizes this artifact under
    ``(version, "compile")`` and hands it to each :func:`prune_stage`
    call — including the monotone-seeded peels, which replay over the
    same arrays via ``members=`` — and to the search compile stages,
    which derive their per-component :class:`CompiledComponent` views
    from the whole-graph rows instead of recompiling the subgraphs.
    """
    return compile_graph(graph)


def prune_stage(
    graph: UncertainGraph,
    k: int,
    tau: float,
    rule: str,
    engine: str,
    compiled: CompiledGraph | None = None,
    members: Sequence[Node] | None = None,
    core: dict[Node, int] | None = None,
) -> tuple[Node, ...]:
    """Core-based preprocessing: the nodes surviving ``rule`` at (k, tau).

    ``rule`` is ``"topk"`` ((Top_k, tau)-core, Lemma 4), ``"ktau"``
    ((k, tau)-core via DPCore+, Lemma 1) or ``"none"``.  The survivors are
    returned as a tuple **in the iteration order of ``graph``** — both
    peels produce the same unique fixpoint *set* whichever engine peeled
    or which cached seed the session layer supplied, and normalizing the
    order makes the artifact independent of the peel's internal set
    layout, so a cached artifact reproduces a cold run's downstream
    component order exactly.

    ``compiled`` supplies the :func:`compile_stage` artifact for
    the compiled (``"bitset"``) engine and ``members`` restricts its peel
    to a node subset (the session's monotone seed) without building an
    induced subgraph; ``core`` supplies memoized deterministic core
    numbers to the legacy ``ktau`` peel.
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
        # Same fixpoint either way; the bitset engine uses the compiled
        # array peel so large graphs skip the per-edge hashing/bisects.
        if engine == "bitset":
            survivors = set(enumeration_mod.topk_core_arrays(
                graph, k, tau, compiled=compiled, members=members,
            ))
        else:
            survivors = set(enumeration_mod.topk_core(
                graph, k, tau, engine="legacy",
            ).nodes)
    elif rule == "ktau":
        if engine == "bitset":
            survivors = dp_core_plus(
                graph, k, tau, engine="arrays",
                compiled=compiled, members=members,
            )
        else:
            survivors = dp_core_plus(
                graph, k, tau, engine="legacy", core=core,
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

    ``components`` are independent induced subgraphs (never mutated by the
    search stages, so they can be replayed across runs); the counter
    fields carry everything the enumeration stats report about the
    pre-search phases, so a warm run fills its stats object identically
    to the cold run that built the artifact.
    """

    components: tuple[UncertainGraph, ...]
    cuts_found: int
    edges_removed: int
    nodes_after_pruning: int


def cut_stage(
    pruned: UncertainGraph,
    k: int,
    tau: float,
    cut: bool,
    nodes_after_pruning: int,
    engine: str = "bitset",
) -> CutArtifact:
    """Split the pruned graph into search components (Lemma 5).

    With ``cut=True`` runs the cut-based optimization; otherwise a plain
    connected-component split.  ``nodes_after_pruning`` is carried through
    from the prune stage so the artifact is self-contained.  ``engine``
    selects the peel implementation for the cut optimization's fringe
    stage (``"bitset"`` maps to the compiled arrays peel); both engines
    find the identical cut set, so the artifact is engine-independent.
    """
    if cut:
        result = cut_optimize(
            pruned, k, tau,
            engine="arrays" if engine == "bitset" else "legacy",
        )
        return CutArtifact(
            components=tuple(result.components),
            cuts_found=result.cuts_found,
            edges_removed=result.edges_removed,
            nodes_after_pruning=nodes_after_pruning,
        )
    return CutArtifact(
        components=tuple(component_subgraphs(pruned)),
        cuts_found=0,
        edges_removed=0,
        nodes_after_pruning=nodes_after_pruning,
    )


# ----------------------------------------------------------------------
# Stage 3: compile
# ----------------------------------------------------------------------

def _component_view(
    component: UncertainGraph,
    artifact: CompiledGraph | None,
) -> CompiledComponent:
    """The search view of one component: derived from the whole-graph
    artifact when available (member-filtered rows, no recompilation —
    sound because pruning removes nodes only and every cut edge crosses
    component boundaries), else compiled from the subgraph."""
    if artifact is not None:
        return derive_component_view(artifact, list(component.nodes()))
    return compile_component(component)


def compile_enumeration_stage(
    components: Sequence[UncertainGraph],
    min_size: int,
    component_limit: int,
    artifact: CompiledGraph | None = None,
) -> tuple[CompiledComponent | None, ...]:
    """Compile each component the kernel enumeration will search.

    One slot per component, in order: a picklable
    :class:`~repro.core.kernel.CompiledComponent` when the component is
    searchable by the compiled kernel (``min_size <= n <= limit``), else
    ``None`` — the search stage re-derives *why* a slot is ``None`` from
    the component size (too small: skipped; too large: legacy fallback).

    ``artifact`` is the :func:`compile_stage` whole-graph lowering; when
    supplied, the views are derived from its rows (bit-identical to the
    from-scratch compile, see ``tests/core/test_compiled_graph``).
    """
    compiled: list[CompiledComponent | None] = []
    for component in components:
        if min_size <= component.num_nodes <= component_limit:
            compiled.append(_component_view(component, artifact))
        else:
            compiled.append(None)
    return tuple(compiled)


def compile_maximum_stage(
    components: Sequence[UncertainGraph],
    k: int,
    artifact: CompiledGraph | None = None,
) -> tuple[tuple[CompiledComponent, list[int]] | None, ...]:
    """Eagerly compile each component the bitset maximum search could visit.

    A component can only be searched when it beats the starting incumbent
    (``n > k``); eligible slots hold the compiled component plus its
    greedy-coloring mapped onto the compiled node order (the exact pair
    :func:`repro.core.kernel.maximum_compiled` consumes).

    This is the eager whole-front variant; the session layer instead
    memoizes on demand through :func:`maximum_search_stage`, because the
    sequential search skips components the growing incumbent dominates
    and never needs their compile.
    """
    compiled: list[tuple[CompiledComponent, list[int]] | None] = []
    for component in components:
        if component.num_nodes <= k:
            compiled.append(None)
            continue
        comp = _component_view(component, artifact)
        coloring = greedy_coloring(component)
        compiled.append((comp, [coloring[u] for u in comp.nodes]))
    return tuple(compiled)


def color_stage(
    components: Sequence[UncertainGraph],
    k: int,
) -> tuple[dict[Node, int] | None, ...]:
    """Greedy colorings for the legacy maximum search (one per eligible
    component, ``None`` for components the incumbent chain always skips)."""
    return tuple(
        greedy_coloring(component) if component.num_nodes > k else None
        for component in components
    )


# ----------------------------------------------------------------------
# Stage 4: search
# ----------------------------------------------------------------------

def enumeration_search_stage(
    components: Sequence[UncertainGraph],
    compiled: Sequence[CompiledComponent | None] | None,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    engine: str,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Run the per-component enumeration over the compile artifacts.

    Yields exactly the sequence the historical monolithic driver produced
    for ``"bitset"``/``"legacy"`` (components in order, oversized
    components through the legacy recursion, compiled ones through the
    kernel); ``"pivot"`` emits the identical *set* per component in pivot
    branch order.  A component gets the kernel exactly when ``compiled``
    holds a view for it (:func:`compile_enumeration_stage` leaves the
    oversized ones ``None``).  All counters accrue to ``stats`` on every
    run (they are never part of a cached artifact).
    """
    for ordinal, component in enumerate(components):
        if component.num_nodes < min_size:
            continue
        comp = compiled[ordinal] if compiled is not None else None
        if engine in ("bitset", "pivot") and comp is not None:
            # The compiled fast path: enumerate_component minus its
            # compile step (the artifact already paid it), same prep /
            # root-loop composition, same counters, same timings shape.
            t_start = perf_counter()
            cands = enum_root_prep(
                comp, k, tau_floor, min_size, insearch,
                insearch_min_candidates, stats,
            )
            out: list[frozenset[Node]] = []
            if cands is not None:
                if engine == "pivot":
                    branches = pivot_root_plan(
                        comp, k, tau_floor, min_size, cands, stats,
                    )
                    out = enumerate_pivot_range(
                        comp, k, tau_floor, min_size, insearch,
                        insearch_min_candidates, cands, branches, stats,
                    )
                else:
                    out = enumerate_root_range(
                        comp, k, tau_floor, min_size, insearch,
                        insearch_min_candidates, cands, stats,
                    )
            stats.timings.add("search", perf_counter() - t_start)
            yield from out
        else:
            # Legacy engine, or a component above the kernel limit: the
            # tuple-list recursion, interleaved with the consumer.
            candidates = [(v, 1.0) for v in _ordered(component.nodes())]
            yield from _muc(
                component, [], 1.0, candidates, [], k, tau_floor,
                min_size, insearch, stats,
            )


def _compiled_maximum_entry(
    memo: dict[int, tuple[CompiledComponent, list[int]]] | None,
    ordinal: int,
    component: UncertainGraph,
    stats: MaximumSearchStats,
    artifact: CompiledGraph | None = None,
) -> tuple[CompiledComponent, list[int]]:
    """The (compiled component, color list) pair for one component,
    compiled on demand and memoized.

    Compilation stays **lazy with respect to the evolving incumbent** —
    exactly as the historical driver, which only compiled a component
    once the search actually reached it with ``n > best_size``.  An
    eager compile-everything stage would pay compilation and coloring
    for every component a growing incumbent later skips.  ``artifact``
    routes the view derivation through the whole-graph compile.
    """
    entry = memo.get(ordinal) if memo is not None else None
    if entry is None:
        t_start = perf_counter()
        comp = _component_view(component, artifact)
        coloring = greedy_coloring(component)
        entry = (comp, [coloring[u] for u in comp.nodes])
        stats.timings.add("compile", perf_counter() - t_start)
        if memo is not None:
            memo[ordinal] = entry
    return entry


def maximum_search_stage(
    components: Sequence[UncertainGraph],
    compiled: dict[int, tuple[CompiledComponent, list[int]]] | None,
    colors: dict[int, dict[Node, int]] | None,
    k: int,
    tau: float,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    engine: str,
    stats: MaximumSearchStats,
    artifact: CompiledGraph | None = None,
) -> tuple[list[Node] | None, int]:
    """Run the MaxUC+ component loop, compiling on demand into the memos.

    Returns ``(best, best_size)`` exactly as the historical monolithic
    driver: components in order under the evolving incumbent, bitset
    components through :func:`repro.core.kernel.maximum_compiled`, legacy
    ones through the extracted closure.

    ``compiled`` / ``colors`` are mutable memo dicts (ordinal -> compile
    artifact), filled lazily as the incumbent chain reaches components —
    the session layer caches the dict objects, so a warm run finds the
    cold run's entries and the cold run never compiles a component the
    incumbent skips.  The search path is deterministic, so which
    ordinals get filled is too.  Pass ``None`` to disable memoization.

    The branch-and-bound's DFS-first output depends on branch order, so
    ``engine="pivot"`` runs the exact bitset search (identical outputs
    and stats; the pivot counters stay zero).
    """
    if engine == "pivot":
        engine = "bitset"
    best: list[Node] | None = None
    best_size = k
    for ordinal, component in enumerate(components):
        if component.num_nodes <= best_size:
            continue
        if engine == "bitset":
            comp, color = _compiled_maximum_entry(
                compiled, ordinal, component, stats, artifact
            )
            t_start = perf_counter()
            improved, best_size = maximum_compiled(
                comp, color, k, tau_floor, min_size, best_size,
                use_advanced_one, use_advanced_two, insearch, stats,
            )
            stats.timings.add("search", perf_counter() - t_start)
            if improved is not None:
                best = improved
            continue
        coloring = colors.get(ordinal) if colors is not None else None
        if coloring is None:
            coloring = greedy_coloring(component)
            if colors is not None:
                colors[ordinal] = coloring
        best, best_size = _search_component_legacy(
            component, coloring, k, tau, tau_floor, min_size, best,
            best_size, use_advanced_one, use_advanced_two, insearch, stats,
        )
    return best, best_size
