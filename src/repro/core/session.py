"""The :class:`PreparedGraph` query session: memoized pipeline stages.

Interactive workloads ask many questions of one slowly-changing graph —
"enumerate at (4, 0.2)", "now the maximum at (4, 0.2)", "which cliques
contain this node?", "and after this edge update?".  The monolithic free
functions re-peel, re-cut and re-compile from scratch on every call even
though those stages depend only on ``(graph, k, tau, flags)``.

A :class:`PreparedGraph` wraps one :class:`~repro.uncertain.graph.
UncertainGraph` and routes every query through the staged pipeline of
:mod:`repro.core.pipeline`.

The whole-graph lowering is **not** the session's: the graph owns it
(:func:`repro.core.pipeline.lowering`), so every session, every free
function and the core maintainer over one graph share one lowering.
It is a view over the id rows the graph keeps in step with every
mutation; a mutation leaves only the view's memos behind the graph,
and the next reader advances them via
:meth:`~repro.core.prune_kernel.CompiledGraph.apply_delta` (a *delta
compile*).  Only the first read of a graph builds the rows (a *full
compile*).  Each query resolves the lowering once, and the session
counts that resolution as one hit (current) or one miss (advanced or
built) in :attr:`cache_stats`.  The graph likewise keeps its per-version
component walk (:func:`repro.core.pipeline.graph_components`), which
every session over it shares.

Every other stage artifact — peel survivor sets, cut components,
enumeration answers, maximum-search memos, anchored queries' answers —
is memoized in a bounded LRU keyed on the graph's **per-component
version vector**::

    ("c", component_id, epoch, stage, rule/flags, k, tau, ...)

``(component_id, epoch)`` pairs are never reused and a mutator bumps
only the touched component's epoch, so a mutation in one component
leaves every *other* component's cached artifacts reachable and warm:
the next query re-peels, re-cuts and re-derives only the dirty
component and assembles the rest from cache hits.  The peels, the cut
split and the per-component searches all factorize across connected
components (no edge crosses one), which is what makes the per-scope
assembly exact: an enumeration searches only the dirty components and
replays every other component's cached answers.  Stale entries can
never be looked up again; they age out of the LRU, or go at once via
:meth:`purge_stale`, which an enumeration runs whenever it misses a
component's answers.

What makes replaying artifacts sound:

* artifacts are **pure data** (survivor sets, label tuples, search
  views, color tables) with no wall clocks; the only counters
  cached are the pre-search ones of a cut entry and the search
  counters an answers entry's search added, which a replay adds back
  — so a warm call fills its stats object bit-identically to cold;
* survivors reach the cut as **ascending compile ids**, which follow
  the graph's iteration order, so a cached prune artifact reproduces
  the cold run's component order exactly, whichever peel produced it;
* cached artifacts hold node labels or derived views (the maximum
  search's memo), never compile ids, rows or the lowering itself: the
  graph rewrites rows in place with every mutation, and a copy of the
  graph numbers its ids afresh, while an untouched component's entries
  stay live through both.  Every search view is built from the rows its cut read (a
  cached cut's read again when a search needs them); enumeration
  views are search scratch and never cached, while MaxUC+ keeps the
  views and colors its incumbent reached in a memo per graph
  component, searched part by part as enumeration is.

A prune miss runs one peel over the graph's lowering: a whole-graph
peel when every component is dirty — from the second ``topk`` one at a
``k`` on, a bisect in the lowering's per-k level index
(:func:`~repro.core.prune_kernel.topk_peel`) — and otherwise one union
peel restricted by ``members=`` to the dirty components.

The :class:`~repro.core.maintenance.KTauCoreMaintainer`, constructed
over a session, mutates the session's graph (bumping the touched
component's epoch) and shares the graph's lowering with the session; it
writes nothing into the session's cache.  The next query, under either
rule, re-peels only the dirty component.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import AbstractSet, Any, Collection, Iterable, Iterator

from repro.core import enumeration as _enumeration_mod
from repro.core import pipeline
from repro.core.enumeration import EnumerationStats, PruningRule
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph
from repro.core.topk_core import topk_core
from repro.errors import NodeNotFoundError
from repro.uncertain.clique_prob import is_clique, is_tau_clique
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import threshold_floor, validate_k, validate_tau

__all__ = ["PreparedGraph", "SessionCacheStats"]


#: Cache-miss sentinel: no cached value is ever this object.
_MISSING: Any = object()

#: One graph component's cut, as :meth:`PreparedGraph._cut_artifact`
#: returns it: ``(cid, epoch, artifact, rows)``, where ``rows`` are the
#: rows the cut read when it ran in this query, ``None`` on a cache hit.
_Part = tuple[int, int, pipeline.CutArtifact, pipeline.SearchSource | None]

#: Default LRU bound: stage artifacts can hold cliques and MaxUC+'s
#: search views, so the cache is bounded by entry *count* and
#: sized for a handful of (k, tau) working sets, not unbounded history.
#: Component-scoped keys multiply the entry count by the number of
#: components a workload touches, hence the generous default (the
#: entries themselves are small — the big lowering lives on the graph).
_DEFAULT_MAX_ENTRIES = 512


@dataclass
class SessionCacheStats:
    """Hit/miss/eviction accounting for one :class:`PreparedGraph`.

    One lookup against the LRU, or one resolution of the graph's
    lowering, counts exactly one hit or one miss; a query may perform
    several stage lookups per component (prune, cut, answers, ...).
    ``delta_patches`` / ``full_compiles`` split the lowering misses by
    how they were served: a delta patch advanced the graph's view past
    mutations the rows already hold, a full compile built the graph's
    rows on its first read.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    delta_patches: int = 0
    full_compiles: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over total lookups (0.0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PreparedGraph:
    """A query session over one uncertain graph with memoized stages.

    The session *shares* the caller's graph object (no copy): mutate it
    freely between queries — every mutator bumps
    :attr:`~repro.uncertain.graph.UncertainGraph.version` and the
    touched component's epoch; cache keys embed the epoch, so stale
    artifacts are unreachable while untouched components' entries stay
    warm, and the graph keeps its own lowering's rows in step.
    Sessions over one graph share that lowering.

    Example::

        session = PreparedGraph(graph)
        cold = list(session.maximal_cliques(4, 0.2))
        warm = list(session.maximal_cliques(4, 0.2))   # replays cached answers
        assert cold == warm
        session.graph.add_edge("a", "z", 0.9)          # bumps a's epoch
        fresh = list(session.maximal_cliques(4, 0.2))  # re-searches it only

    All query methods are drop-in equivalents of the module-level free
    functions (which are now one-shot wrappers over this class): same
    parameters, same outputs, same yield order, same stats counters.
    """

    def __init__(
        self,
        graph: UncertainGraph,
        max_entries: int = _DEFAULT_MAX_ENTRIES,
    ) -> None:
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._graph = graph
        self._cache: OrderedDict[tuple[Any, ...], Any] = OrderedDict()
        self._max_entries = max_entries
        self.cache_stats = SessionCacheStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def graph(self) -> UncertainGraph:
        """The live underlying graph (shared, not a copy)."""
        return self._graph

    @property
    def version(self) -> int:
        """The graph's current mutation counter."""
        return self._graph.version

    def cache_info(self) -> dict[str, int | float]:
        """Cache shape and accounting as a plain dict (for benchmarks)."""
        return {
            "entries": len(self._cache),
            "max_entries": self._max_entries,
            "hits": self.cache_stats.hits,
            "misses": self.cache_stats.misses,
            "evictions": self.cache_stats.evictions,
            "hit_rate": self.cache_stats.hit_rate,
            "delta_patches": self.cache_stats.delta_patches,
            "full_compiles": self.cache_stats.full_compiles,
        }

    def purge_stale(self) -> int:
        """Drop unreachable entries; return the count.

        A ``("c", cid, epoch, ...)`` key is stale when the graph no
        longer carries that exact ``(cid, epoch)`` pair — entries of
        *untouched* components survive a purge.  Purging is optional
        (stale keys can never be looked up again) but frees memory
        eagerly instead of waiting for LRU churn.
        """
        live = set(self._graph.component_keys())
        stale = [key for key in self._cache if (key[1], key[2]) not in live]
        for key in stale:
            del self._cache[key]
        return len(stale)

    def retention_info(self) -> dict[str, int]:
        """Live-vs-stale entry accounting at the current graph state.

        Splits the cache by reachability *without* evicting anything,
        so a test can count how many artifacts a mutation actually
        invalidated.
        """
        live = set(self._graph.component_keys())
        component_live = sum(
            (key[1], key[2]) in live for key in self._cache
        )
        return {
            "component_live": component_live,
            "component_stale": len(self._cache) - component_live,
        }

    # ------------------------------------------------------------------
    # LRU internals
    # ------------------------------------------------------------------

    def _lookup(self, key: tuple[Any, ...]) -> Any:
        value = self._cache.get(key, _MISSING)
        if value is _MISSING:
            self.cache_stats.misses += 1
            return _MISSING
        self._cache.move_to_end(key)
        self.cache_stats.hits += 1
        return value

    def _store(self, key: tuple[Any, ...], value: Any) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self._max_entries:
            self._cache.popitem(last=False)
            self.cache_stats.evictions += 1

    # ------------------------------------------------------------------
    # Stage resolution
    # ------------------------------------------------------------------

    def _compiled_artifact(self, timings: Any = None) -> CompiledGraph:
        """The graph's whole-graph lowering at its current version
        (:func:`pipeline.lowering`).

        Parameter-free: one lowering serves every peel of every query at
        this version — including the dirty-component re-peels, which
        read the same rows via ``members=`` — *and* every cut and
        search-view derivation (the per-component ``CompiledComponent``
        bundles are member-filtered from rows read once from it, never
        recompiled).  It lives on the graph, so every session over the
        graph shares it.  A query resolves it once.

        A current lowering counts one hit; an advance or a first build
        counts one miss plus ``delta_patches`` or ``full_compiles``.
        The wall clock is recorded as the ``"compile"`` lap only when
        advancing or building actually runs, so warm queries report a
        zero compile phase.  The lap times the lowering alone: MaxUC+
        records the views and colors it builds as its ``"views"`` lap.
        """
        t_start = perf_counter()
        compiled, how = pipeline.lowering(self._graph)
        if how == "current":
            self.cache_stats.hits += 1
            return compiled
        self.cache_stats.misses += 1
        if how == "delta":
            self.cache_stats.delta_patches += 1
        else:
            self.cache_stats.full_compiles += 1
        if timings is not None:
            timings.add("compile", perf_counter() - t_start)
        return compiled

    def _survivors(
        self,
        pruning: PruningRule,
        k: int,
        tau: float,
        artifact: Any,
        parts: pipeline.Parts,
    ) -> dict[int, Collection[Node]]:
        """The prune-stage survivors of each graph component, by
        component id, cached per component.

        The peels factorize across connected components (no edge crosses
        one, and membership is a within-component condition), so the
        survivor set is cached as one frozenset per component under
        ``("c", cid, epoch, "prune", rule, k, tau)``: a mutation dirties
        only its own component's entries, and the next query re-peels
        only the dirty components — in **one** union peel over their
        members, not a peel per component — and assembles the rest from
        cache hits.  Every query kind shares these entries: the peel
        is the compiled array peel over ``artifact``, the version's
        unified compile, and ``parts`` its
        :func:`~repro.core.pipeline.graph_components` walk, both
        resolved by the caller.
        """
        if pruning == "none":
            return {cid: members for cid, _, members in parts}
        alive: dict[int, Collection[Node]] = {}
        missing: list[tuple[int, int, tuple[Node, ...]]] = []
        for cid, epoch, members in parts:
            cached = self._lookup(("c", cid, epoch, "prune", pruning, k, tau))
            if cached is _MISSING:
                missing.append((cid, epoch, members))
            else:
                alive[cid] = cached
        if missing:
            # One union peel over every dirty component at once, exact
            # because the peels factorize.  With every component dirty it
            # is a whole-graph peel (a level-index bisect from the second
            # topk peel at k on); otherwise members= restricts it to the
            # dirty components over the shared lowering.
            whole_graph = len(missing) == len(parts)
            survivors = pipeline.prune_stage(
                artifact, k, tau, pruning,
                members=None if whole_graph else tuple(
                    u for _, _, dirty in missing for u in dirty
                ),
            )
            # Survivors come only from the components in ``missing``: a
            # whole-graph peel runs only when every component is missing.
            split: dict[int, list[Node]] = {cid: [] for cid, _, _ in missing}
            component_id = self._graph.component_id
            for u in survivors:
                split[component_id(u)].append(u)
            for cid, epoch, _ in missing:
                alive[cid] = frozenset(split[cid])
                self._store(
                    ("c", cid, epoch, "prune", pruning, k, tau), alive[cid]
                )
        return alive

    def _cut_artifact(
        self,
        pruning: PruningRule,
        cut: bool,
        k: int,
        tau: float,
        timings: Any,
        maximum: bool = False,
    ) -> tuple[CompiledGraph, list[_Part], int]:
        """The graph's lowering, the cut-stage artifact of each graph
        component, and the kernel size limit they were cut at.

        The lowering is resolved once here, and the query reuses it:
        one lowering lookup per query.

        The cut split factorizes across graph components (no cut vertex
        or edge crosses one), so each graph component's search components
        are cached under ``("c", cid, epoch, "cut", ...)``, and the
        returned parts ``[(cid, epoch, part_artifact)]`` come in the
        canonical component order — identical cold and warm by
        construction.  Callers search each part and key *their*
        per-component artifacts (enumeration answers, maximum memos) by
        it.  A part cut by this call comes with the rows the cut read,
        which its search reads; the session caches the artifact alone,
        so a part served from cache comes with ``None``.

        ``maximum=True`` resolves the MaxUC+ artifacts instead (the
        ``topk`` rule with the cut; :func:`pipeline.cut_stage` with
        ``maximum=True``), cached per component under ``("c", cid,
        epoch, "maxcut", k, tau, limit)`` — each component keeps its own
        raised cut, so a mutation re-cuts only its own component.  The
        prune entries are shared with enumeration either way, and a
        ``topk`` rule's survivors are their own (Top_k, tau)-core, which
        :func:`pipeline.cut_stage` is told (``core``).

        The kernel size limit, :data:`~repro.core.kernel.
        KERNEL_COMPONENT_LIMIT`, which tests monkeypatch, is read once
        here: it is handed to the cut, keys both cut entries and is
        returned, because an artifact a caller derives from a part (its
        answers, its search memo) must carry it in its own key too.

        Phase laps are recorded only when work actually runs; resolving
        the unified compile (which the cut reads for every rule)
        *before* the prune lap keeps the ``"compile"`` and ``"prune"``
        phases disjoint.
        """
        # Read at call time: tests monkeypatch the kernel size limit.
        limit = _enumeration_mod.KERNEL_COMPONENT_LIMIT
        artifact = self._compiled_artifact(timings)
        graph_parts = pipeline.graph_components(self._graph)
        with timings.lap("prune"):
            survivors = self._survivors(
                pruning, k, tau, artifact, graph_parts
            )
        index = artifact.index
        parts: list[_Part] = []
        for cid, epoch, members in graph_parts:
            ckey = (
                ("c", cid, epoch, "maxcut", k, tau, limit) if maximum
                else ("c", cid, epoch, "cut", pruning, cut, k, tau, limit)
            )
            entry = self._lookup(ckey)
            source: pipeline.SearchSource | None = None
            if entry is _MISSING:
                # Compile ids follow graph iteration order.
                ids = sorted(index[u] for u in survivors[cid])
                if not ids:
                    entry = pipeline.CutArtifact((), 0, 0, 0)
                else:
                    with timings.lap("cut"):
                        entry, source = pipeline.cut_stage(
                            artifact, ids, k, tau, cut, limit, maximum,
                            pruning == "topk",
                        )
                self._store(ckey, entry)
            parts.append((cid, epoch, entry, source))
        return artifact, parts, limit

    # ------------------------------------------------------------------
    # Seeding the prune cache
    # ------------------------------------------------------------------

    def store_core(
        self,
        rule: PruningRule,
        k: int,
        tau: float,
        core: AbstractSet[Node],
    ) -> None:
        """Seed the prune cache at the *current* version with ``core``.

        The core is split into one frozenset per component under the
        live ``(cid, epoch)`` keys, exactly as a computed peel stores
        it, so the next query at these parameters skips the peel.
        Neither a hit nor a miss is counted.  A ``topk`` core must be
        exactly the (Top_k, tau)-core: the cut trusts it and skips its
        pieces' first fringe peel.  Nothing in the package
        calls it (the core maintainer stores nothing in a session); it
        stays while the e2e benchmark's tracer names it as a layer
        boundary.
        """
        if rule not in ("topk", "ktau"):
            raise ValueError(f"cannot store a core for rule {rule!r}")
        validate_k(k)
        tau = validate_tau(tau)
        for cid, epoch, members in pipeline.graph_components(self._graph):
            self._store(
                ("c", cid, epoch, "prune", rule, k, tau),
                frozenset(u for u in members if u in core),
            )

    # ------------------------------------------------------------------
    # Queries: enumeration
    # ------------------------------------------------------------------

    def maximal_cliques(
        self,
        k: int,
        tau: float,
        pruning: PruningRule = "topk",
        cut: bool = True,
        insearch: bool = True,
        stats: EnumerationStats | None = None,
    ) -> Iterator[frozenset[Node]]:
        """Enumerate all maximal (k, tau)-cliques (session-cached).

        Drop-in equivalent of :func:`repro.core.enumeration.
        maximal_cliques` — same parameters, cliques, yield order, and
        stats counters — with the prune and cut artifacts served from
        the session cache when the graph version and parameters match.
        A generator: nothing happens until the first ``next()``.

        Every maximal clique lies inside one graph component, so the
        search is answered per graph component too: a component's
        cliques in yield order, with the search counters
        its search added, are cached under ``("c", cid, epoch,
        "answers", rule, cut, k, tau, insearch, gate, limit)``, where
        ``gate`` and ``limit`` are the in-search gate and the kernel
        size limit the search read.  A hit replays them.  A miss
        searches the rows the component's cut read — the cut's own, or
        a cached cut's read again (:func:`pipeline.search_source`) —
        building each view when its search starts and dropping it
        after, and stores the entry before its first clique is
        yielded, so only a search that ran to completion is stored.
        Every miss's rows are read before the first yield, and any miss
        first drops every stale entry (:meth:`purge_stale`).  Either
        way the counters accrue to ``stats`` per graph component, at
        its first yield.
        """
        validate_k(k)
        tau = validate_tau(tau)
        if pruning not in ("topk", "ktau", "none"):
            raise ValueError(f"unknown pruning rule {pruning!r}")
        stats = stats if stats is not None else EnumerationStats()
        min_size = k + 1
        # Read from the enumeration module at call time: tests monkeypatch
        # the in-search gate there.
        insearch_min_candidates = _enumeration_mod._INSEARCH_MIN_CANDIDATES

        compiled, parts, limit = self._cut_artifact(
            pruning, cut, k, tau, stats.timings
        )
        cuts = [part for _, _, part, _ in parts]
        stats.nodes_after_pruning = sum(c.nodes_after_pruning for c in cuts)
        stats.cuts_found = sum(c.cuts_found for c in cuts)
        stats.cut_edges_removed = sum(c.edges_removed for c in cuts)
        stats.components = sum(len(c.components) for c in cuts)

        # All threshold checks in the hot search loop use the pre-computed
        # tolerant floor (see repro.utils.validation) instead of calling
        # prob_at_least per edge.
        tau_floor = threshold_floor(tau)

        # Each graph component's cached answers, or on a miss what its
        # search reads: the cut's own rows, or a cached cut's read
        # again.  All are resolved before the first yield, so nothing
        # below reads the graph's rows, which a mutation between yields
        # rewrites.
        plan: list[tuple[Any, ...]] = []
        missed = False
        for cid, epoch, part, source in parts:
            akey = (
                "c", cid, epoch, "answers", pruning, cut, k, tau, insearch,
                insearch_min_candidates, limit,
            )
            entry = self._lookup(akey)
            if entry is _MISSING:
                missed = True
                if source is None:
                    source = pipeline.search_source(compiled, part, k)
            plan.append((akey, entry, source))
        if missed:
            # A miss is where a query meets a changed component: drop
            # every entry a mutation left unreachable, superseded
            # answers (the largest entries) included, before the search
            # rather than leave them to age out of the LRU.
            self.purge_stale()

        # The counters the search adds; every other field comes from the
        # cut artifact above.
        counters = (
            "search_calls", "insearch_prunes", "branch_size_prunes",
            "pivot_branches", "pivot_skipped", "cliques",
        )
        for akey, entry, source in plan:
            if entry is _MISSING:
                local = EnumerationStats()
                local.timings = stats.timings
                cliques = tuple(pipeline.enumeration_search_stage(
                    source, k, tau_floor, min_size, insearch,
                    insearch_min_candidates, limit, local,
                ))
                entry = cliques, tuple(getattr(local, f) for f in counters)
                self._store(akey, entry)
            cliques, deltas = entry
            for field, delta in zip(counters, deltas):
                setattr(stats, field, getattr(stats, field) + delta)
            yield from cliques

    # ------------------------------------------------------------------
    # Queries: maximum
    # ------------------------------------------------------------------

    def max_uc_plus(
        self,
        k: int,
        tau: float,
        stats: MaximumSearchStats | None = None,
        use_advanced_one: bool = True,
        use_advanced_two: bool = True,
        insearch: bool = True,
    ) -> frozenset[Node] | None:
        """Maximum (k, tau)-clique via MaxUC+ (session-cached).

        Drop-in equivalent of :func:`repro.core.maximum.max_uc_plus`,
        with the same canonical answer.  The prune artifact is shared
        with enumeration queries at the same ``(k, tau)`` (both use the
        ``topk`` rule).  The cut is the query's own, cached per graph
        component under ``("c", cid, epoch, "maxcut", k, tau)`` together
        with the component's greedy lower bound: :func:`pipeline.
        cut_stage` grows a greedy clique of ``s`` nodes over the
        survivors and, when ``s > k + 1``, cuts at ``s - 1`` instead of
        ``k``, and the search starts from incumbent ``max s - 1``
        (reported as ``stats.lower_bound``).

        The views are maximum-specific too, because each comes with the
        color list the branch-and-bound bounds need.  Unlike enumeration
        (which visits every component), the maximum search skips
        components the evolving incumbent already dominates, so building
        every view up front would do work the search never uses.  Each
        graph component therefore caches a *memo dict* under ``("c",
        cid, epoch, "compile_max", k, tau, limit)``, which
        :func:`pipeline.maximum_search_stage` fills on demand from the
        rows the component's cut read (:func:`pipeline.piece_view`):
        cold runs build exactly what the incumbent chain reaches, warm
        runs reuse those entries, and determinism of the search makes
        the filled set identical run to run.
        """
        validate_k(k)
        tau = validate_tau(tau)
        stats = stats if stats is not None else MaximumSearchStats()
        min_size = k + 1
        tau_floor = threshold_floor(tau)

        compiled, parts, limit = self._cut_artifact(
            "topk", True, k, tau, stats.timings, maximum=True
        )
        # Each graph component's memo of the views and colors its
        # search built, filled on demand: a mutation in one component
        # keeps every other component's entries warm.
        searches: list[tuple[Any, ...]] = []
        for cid, epoch, part, source in parts:
            mkey = ("c", cid, epoch, "compile_max", k, tau, limit)
            memo = self._lookup(mkey)
            if memo is _MISSING:
                memo = {}
                self._store(mkey, memo)
            searches.append((part, source, memo))
        best, best_size = pipeline.maximum_search_stage(
            compiled, searches, k, tau_floor, min_size,
            use_advanced_one, use_advanced_two, insearch, stats,
        )
        stats.best_size = best_size if best is not None else 0
        if best is None or len(best) < min_size:
            return None
        return frozenset(best)

    # ------------------------------------------------------------------
    # Queries: anchored
    # ------------------------------------------------------------------

    def _anchored(
        self,
        stage: str,
        anchor_key: Any,
        region: list[Node],
        fixed: AbstractSet[Node],
        k: int,
        tau: float,
    ) -> tuple[frozenset[Node], ...]:
        """The maximal (k, tau)-cliques of ``region``'s anchored core.

        Algorithm 3's fixed-set peel, the cut and the view derivation
        all run on the graph's own lowering, the peel restricted to
        ``region`` by ``members=``; the cut numbers the core in region
        order, a function of the graph's adjacency alone.  On a miss the
        core is searched at once and its cliques, in yield order, are
        cached per anchor under its component's ``(cid, epoch)`` and the
        kernel size limit the cut read (an empty tuple for a dead
        anchor); a hit replays them.  Either way the answer is complete
        before the caller sees a clique, so a paused generator answers
        for the version it asked at.
        """
        cid, epoch = self._graph.component_key(next(iter(fixed)))
        limit = _enumeration_mod.KERNEL_COMPONENT_LIMIT
        key = ("c", cid, epoch, stage, anchor_key, k, tau, limit)
        cliques = self._lookup(key)
        if cliques is _MISSING:
            cliques = ()
            compiled = self._compiled_artifact()
            core = topk_core(
                self._graph, k, tau, fixed=fixed, compiled=compiled,
                members=region,
            )
            if core:
                # No fixed node died, so ``core`` is the region's whole
                # (Top_k, tau)-core and the cut can skip its first peel.
                ids = [compiled.index[u] for u in region if u in core.nodes]
                _, source = pipeline.cut_stage(
                    compiled, ids, k, tau, True, limit, core=True
                )
                cliques = tuple(pipeline.enumeration_search_stage(
                    source, k, threshold_floor(tau), k + 1, True,
                    _enumeration_mod._INSEARCH_MIN_CANDIDATES, limit,
                    EnumerationStats(),
                ))
            self._store(key, cliques)
        return cliques

    def cliques_containing(
        self,
        node: Node,
        k: int,
        tau: float,
    ) -> Iterator[frozenset[Node]]:
        """Yield every maximal (k, tau)-clique containing ``node``.

        Session-cached equivalent of :func:`repro.core.queries.
        cliques_containing`: the anchored neighborhood core's cliques
        are cached (:meth:`_anchored`), so a repeated query skips the
        anchored peel, the cut and the search and only filters them.
        """
        validate_k(k)
        tau = validate_tau(tau)
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)

        # incident() iterates the same keys as neighbors() without the
        # per-step mutation guard.  Keep the adjacency's insertion order:
        # the cut numbers the core in region order, so a set here would
        # make the clique yield order depend on PYTHONHASHSEED.
        region = [*self._graph.incident(node), node]
        for clique in self._anchored(
            "anchor_node", node, region, {node}, k, tau
        ):
            if node in clique:
                yield clique

    def is_extendable(
        self,
        nodes: Iterable[Node],
        tau: float,
    ) -> bool:
        """Whether some single node can extend ``nodes`` to a larger
        tau-clique (the complement of the maximality condition).

        A neighborhood scan with no search phase.  Each extension is
        decided by its canonical product
        (:func:`~repro.uncertain.clique_prob.is_tau_clique`), so the
        answer does not depend on the order ``nodes`` lists the members.
        """
        tau = validate_tau(tau)
        members = list(dict.fromkeys(nodes))
        if not members:
            return self._graph.num_nodes > 0
        if not is_clique(self._graph, members):
            return False
        member_set = set(members)
        return any(
            v not in member_set
            and is_tau_clique(self._graph, [*members, v], tau)
            for v in self._graph.incident(members[0])
        )

    def containing_clique_exists(
        self,
        nodes: Iterable[Node],
        k: int,
        tau: float,
    ) -> bool:
        """Whether some maximal (k, tau)-clique contains all of ``nodes``.

        Session-cached equivalent of :func:`repro.core.queries.
        containing_clique_exists`: the cheap pre-checks always run
        against the live graph; the anchored common-neighborhood core's
        cliques are cached keyed by the (frozen) member set
        (:meth:`_anchored`).
        """
        validate_k(k)
        tau = validate_tau(tau)
        members = list(dict.fromkeys(nodes))
        if not members or not is_tau_clique(self._graph, members, tau):
            return False
        if len(members) > k:
            return True  # already a (k, tau)-clique; some maximal one holds it

        # Grow within the common neighborhood of the anchor set.  The
        # region is ordered by the anchor's adjacency (filtered by the
        # common set) so the cut's numbering is hash-seed-free; the
        # members themselves are never their own neighbors, so appending
        # them cannot duplicate a region node.
        common = set(self._graph.incident(members[0]))
        for u in members[1:]:
            common &= set(self._graph.incident(u))
        region = [
            v for v in self._graph.incident(members[0]) if v in common
        ] + members
        member_set = set(members)
        return any(
            member_set <= clique
            for clique in self._anchored(
                "anchor_set", frozenset(members), region, member_set, k,
                tau,
            )
        )
