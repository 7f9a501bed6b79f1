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
function and the core maintainer over one graph share one lowering per
version.  A mutation leaves it behind the graph; the next reader
replays the graph's bounded mutation log into it in place via
:meth:`~repro.core.prune_kernel.CompiledGraph.apply_delta` (a *delta
compile*), and only a log gap or a node removal re-lowers it from
scratch.  The session still counts each resolution as one hit (current)
or one miss (patched or re-lowered) in :attr:`cache_stats`.

Every other stage artifact — peel survivor sets, cut components,
compiled search views, maximum-search memos, anchored child sessions —
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
assembly exact.  Stale entries can never be looked up again; they age
out of the LRU (or go at once via :meth:`purge_stale`).

What makes replaying artifacts sound:

* artifacts are **pure data** (survivor sets, label tuples, compiled
  CSR bundles, color tables) with no counters and no wall clocks; all
  stats accrue in the search stage, which runs on every call — so a
  warm call fills its stats object bit-identically to cold;
* survivors reach the cut as **ascending compile ids**, which follow
  the graph's iteration order, so a cached prune artifact reproduces
  the cold run's component order exactly, whichever seed restricted
  the peel;
* cached artifacts hold node labels or derived views, never compile
  ids or the lowering itself: a full re-lower renumbers every id and a
  delta patch rewrites rows in place, while an untouched component's
  entries stay live through both;
* **core monotonicity** is exploited across entries: for ``k >= k'`` and
  ``tau >= tau'`` every (k, tau)-core is contained in the (k', tau')-core
  (the membership condition only tightens), and by Corollary 1 the
  (Top_k, tau)-core is contained in the (k, tau)-core.  Peeling the
  induced subgraph of *any* cached superset reaches the same unique
  fixpoint as peeling the whole graph — the verified peels recheck every
  survivor with set-determined, division-free computations — so a cached
  core seeds the peel for harder parameters without changing the result.

The :class:`~repro.core.maintenance.KTauCoreMaintainer` integrates from
the other side: constructed over a session it mutates the session's
graph (bumping the version) and immediately re-publishes its
incrementally-maintained core at the new version via :meth:`PreparedGraph.
store_core`, so the next query's prune stage is already warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from time import perf_counter
from typing import AbstractSet, Any, Collection, Iterable, Iterator

from repro.core import enumeration as _enumeration_mod
from repro.core import pipeline
from repro.core.enumeration import Engine, EnumerationStats, PruningRule
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import CompiledGraph
from repro.core.topk_core import topk_core
from repro.errors import NodeNotFoundError
from repro.uncertain.clique_prob import clique_probability, is_clique
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import (
    prob_at_least,
    threshold_floor,
    validate_k,
    validate_tau,
)

__all__ = ["PreparedGraph", "SessionCacheStats"]


#: Cache-miss sentinel (``None`` is a legitimate cached value: a dead
#: anchored query caches ``None`` so the repeat stays O(pre-checks)).
_MISSING: Any = object()

#: ``(component id, epoch, members)`` per graph component.
_Parts = tuple[tuple[int, int, tuple[Node, ...]], ...]

#: Default LRU bound: stage artifacts can hold component subgraphs and
#: compiled CSR bundles, so the cache is bounded by entry *count* and
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
    several stage lookups per component (prune, cut, views, ...).
    ``delta_patches`` / ``full_compiles`` split the lowering misses by
    how they were served: a delta patch replayed the mutation log into
    the graph's lowering, a full compile re-lowered the graph from
    scratch.
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
    warm, and the graph's own lowering is patched forward on next use.
    Sessions over one graph share that lowering.

    Example::

        session = PreparedGraph(graph)
        cold = list(session.maximal_cliques(4, 0.2))
        warm = list(session.maximal_cliques(4, 0.2))   # prune/cut/compile cached
        assert cold == warm
        session.graph.add_edge("a", "z", 0.9)          # bumps version
        fresh = list(session.maximal_cliques(4, 0.2))  # recomputed

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
        # (graph version, its _graph_components() walk)
        self._components: tuple[int, _Parts] | None = None

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

        Splits the cache by reachability *without* evicting anything —
        the streaming bench snapshots this around each update to measure
        how many artifacts a mutation actually invalidated.
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

    def _graph_components(self) -> _Parts:
        """``(component id, epoch, members)`` per component, canonical order.

        Members are in graph iteration order, and components are ordered
        by their first node's insertion position — the one canonical
        order every per-component assembly below concatenates in, so a
        warm assembly reproduces a cold run's component order exactly.
        O(n) against the graph's incremental component map, walked once
        per graph version: every query and :meth:`store_core` at that
        version share the walk.
        """
        graph = self._graph
        memo = self._components
        if memo is not None and memo[0] == graph.version:
            return memo[1]
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
            (cid, graph.component_key(buckets[cid][0])[1],
             tuple(buckets[cid]))
            for cid in order
        )
        self._components = (graph.version, parts)
        return parts

    def _compiled_artifact(self, timings: Any = None) -> CompiledGraph:
        """The graph's whole-graph flat-CSR lowering at its current
        version (:func:`pipeline.lowering`).

        Parameter-free: one lowering serves every peel of every query at
        this version, whichever search engine asked — including the
        monotone-seeded peels, which replay over the same arrays via
        ``members=`` — *and* every search-view derivation (the
        per-component ``CompiledComponent`` bundles are member-filtered
        from these rows, never recompiled).  It lives on the graph, so
        every session over the graph shares it.

        A current lowering counts one hit; a delta patch or a full
        lowering counts one miss plus ``delta_patches`` or
        ``full_compiles``.  The wall clock is recorded as the
        ``"compile"`` lap only when patching or lowering actually runs,
        so warm queries report a zero compile phase.
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
        parts: _Parts,
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
        cache hits.  Every search engine shares these entries: the peel
        is the compiled array peel over ``artifact``, the version's
        unified compile, and ``parts`` its :meth:`_graph_components`
        walk, both resolved by the caller.
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
            # Union peel over every dirty component at once, each
            # restricted by the smallest cached monotone superset for its
            # component when one exists.  Seed restriction is exact per
            # component (cores never cross components), and the union is
            # exact because the peels factorize.  The restriction rides on
            # members= over the shared compile, never an induced subgraph.
            peel_members: list[Node] = []
            seeded = False
            for cid, epoch, members in missing:
                seed = self._monotone_seed(cid, epoch, pruning, k, tau)
                if seed is None:
                    peel_members.extend(members)
                else:
                    seeded = True
                    peel_members.extend(u for u in members if u in seed)
            whole_graph = not seeded and len(missing) == len(parts)
            survivors = pipeline.prune_stage(
                self._graph, k, tau, pruning,
                compiled=artifact,
                members=None if whole_graph else tuple(peel_members),
            )
            surv_set = frozenset(survivors)
            for cid, epoch, members in missing:
                alive[cid] = frozenset(u for u in members if u in surv_set)
                self._store(
                    ("c", cid, epoch, "prune", pruning, k, tau), alive[cid]
                )
        return alive

    def _monotone_seed(
        self,
        cid: int,
        epoch: int,
        pruning: PruningRule,
        k: int,
        tau: float,
    ) -> frozenset[Node] | None:
        """Smallest cached per-component core containing core(k, tau).

        Core monotonicity: for ``k2 <= k`` and ``tau2 <= tau`` the
        (k, tau)-core is contained in the (k2, tau2)-core (the membership
        condition only tightens as either parameter grows, and
        ``threshold_floor`` is increasing in tau), and by Corollary 1 the
        (Top_k, tau)-core is contained in the (k, tau)-core — so a
        ``ktau`` entry can seed a ``topk`` peel, but not vice versa.
        Monotonicity holds within each component independently, so the
        seed scan is per ``(cid, epoch)``.  The scan is over at most
        ``max_entries`` keys, far cheaper than any peel it saves.
        """
        best: frozenset[Node] | None = None
        for key, value in self._cache.items():
            if (
                len(key) != 7
                or key[0] != "c"
                or key[1] != cid
                or key[2] != epoch
                or key[3] != "prune"
            ):
                continue
            rule2, k2, tau2 = key[4], key[5], key[6]
            # Cache-key comparison, not a survival-probability check: the
            # keys store caller-supplied tau values verbatim.
            if k2 > k or tau2 > tau:  # repro-lint: ignore[RPL001]
                continue
            if pruning == "ktau" and rule2 != "ktau":
                continue
            if best is None or len(value) < len(best):
                best = value
        return best

    def _cut_artifact(
        self,
        pruning: PruningRule,
        cut: bool,
        k: int,
        tau: float,
        timings: Any,
        maximum: bool = False,
    ) -> tuple[
        pipeline.CutArtifact,
        list[tuple[int, int, tuple[tuple[Node, ...], ...]]],
    ]:
        """The cut-stage artifact plus its per-component parts.

        The cut split factorizes across graph components (no cut vertex
        or edge crosses one), so each graph component's search components
        are cached under ``("c", cid, epoch, "cut", ...)`` and the global
        artifact is assembled by concatenating the parts in the canonical
        component order — identical cold and warm by construction.  The
        returned ``parts`` list ``[(cid, epoch, search_components)]``
        lets callers key *their* per-component artifacts (search views,
        maximum memos) and slice the global component tuple per part.

        ``maximum=True`` resolves the MaxUC+ artifact instead (the
        ``topk`` rule with the cut; :func:`pipeline.cut_stage` with
        ``maximum=True``), cached per component under ``("c", cid,
        epoch, "maxcut", k, tau)`` — each component keeps its own raised
        cut, so a mutation re-cuts only its own component.  The prune
        entries are shared with enumeration either way.  The assembled
        artifact's ``lower_bound`` is the largest component's.

        Phase laps are recorded only when work actually runs; resolving
        the unified compile (which the cut reads for every rule)
        *before* the prune lap keeps the ``"compile"`` and ``"prune"``
        phases disjoint.
        """
        artifact = self._compiled_artifact(timings)
        graph_parts = self._graph_components()
        with timings.lap("prune"):
            survivors = self._survivors(
                pruning, k, tau, artifact, graph_parts
            )
        index = artifact.index
        components: list[tuple[Node, ...]] = []
        heads: list[Node] = []
        lower_bound = 0
        parts: list[tuple[int, int, tuple[tuple[Node, ...], ...]]] = []
        cuts_found = 0
        edges_removed = 0
        for cid, epoch, members in graph_parts:
            ckey = (
                ("c", cid, epoch, "maxcut", k, tau) if maximum
                else ("c", cid, epoch, "cut", pruning, cut, k, tau)
            )
            entry = self._lookup(ckey)
            if entry is _MISSING:
                # Compile ids follow graph iteration order.
                ids = sorted(index[u] for u in survivors[cid])
                if not ids:
                    entry = pipeline.CutArtifact((), 0, 0, 0)
                else:
                    with timings.lap("cut"):
                        entry = pipeline.cut_stage(
                            artifact, ids, k, tau, cut, maximum
                        )
                self._store(ckey, entry)
            components.extend(entry.components)
            heads.extend(entry.heads)
            lower_bound = max(lower_bound, entry.lower_bound)
            cuts_found += entry.cuts_found
            edges_removed += entry.edges_removed
            parts.append((cid, epoch, entry.components))
        art = pipeline.CutArtifact(
            components=tuple(components),
            cuts_found=cuts_found,
            edges_removed=edges_removed,
            nodes_after_pruning=sum(map(len, survivors.values())),
            heads=tuple(heads),
            lower_bound=lower_bound,
        )
        return art, parts

    # ------------------------------------------------------------------
    # Maintainer integration
    # ------------------------------------------------------------------

    def store_core(
        self,
        rule: PruningRule,
        k: int,
        tau: float,
        core: AbstractSet[Node],
    ) -> None:
        """Patch the prune cache at the *current* version with ``core``.

        Hook for :class:`~repro.core.maintenance.KTauCoreMaintainer`:
        after mutating the session's graph (which bumped the touched
        component's epoch and orphaned its cached artifacts) the
        maintainer republishes its incrementally-updated core here, so
        the next query at these parameters skips the from-scratch peel.
        The core is split into one frozenset per component under the
        live ``(cid, epoch)`` keys, exactly as a computed peel stores
        it.  Neither a hit nor a miss is counted.
        """
        if rule not in ("topk", "ktau"):
            raise ValueError(f"cannot store a core for rule {rule!r}")
        validate_k(k)
        tau = validate_tau(tau)
        for cid, epoch, members in self._graph_components():
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
        engine: Engine = "pivot",
    ) -> Iterator[frozenset[Node]]:
        """Enumerate all maximal (k, tau)-cliques (session-cached).

        Drop-in equivalent of :func:`repro.core.enumeration.
        maximal_cliques` — same parameters, cliques, yield order, and
        stats counters — with the prune / cut / compile artifacts served
        from the session cache when the graph version and parameters
        match.  A generator: nothing happens until the first ``next()``.
        """
        validate_k(k)
        tau = validate_tau(tau)
        if pruning not in ("topk", "ktau", "none"):
            raise ValueError(f"unknown pruning rule {pruning!r}")
        if engine not in ("pivot", "legacy"):
            raise ValueError(f"unknown engine {engine!r}")
        stats = stats if stats is not None else EnumerationStats()
        min_size = k + 1
        # Read from the enumeration module at call time: tests monkeypatch
        # both the in-search gate and the kernel size limit there.
        insearch_min_candidates = _enumeration_mod._INSEARCH_MIN_CANDIDATES
        component_limit = _enumeration_mod.KERNEL_COMPONENT_LIMIT

        art, parts = self._cut_artifact(
            pruning, cut, k, tau, stats.timings
        )
        stats.nodes_after_pruning = art.nodes_after_pruning
        stats.cuts_found = art.cuts_found
        stats.cut_edges_removed = art.edges_removed
        stats.components = len(art.components)

        # All threshold checks in the hot search loop use the pre-computed
        # tolerant floor (see repro.utils.validation) instead of calling
        # prob_at_least per edge.
        tau_floor = threshold_floor(tau)

        compiled: tuple[Any, ...] | None = None
        if engine != "legacy":
            # The search views are *derived* from the whole-graph compile
            # (member-filtered rows, no recompilation), so the expensive
            # lowering stays one-per-version while the cheap view bundles
            # are cached per graph component: view compilation is
            # element-wise over search components, and each search
            # component lives inside exactly one graph component, so a
            # mutation leaves every other component's views warm.
            views: list[Any] = []
            artifact: Any = None
            for cid, epoch, comp_components in parts:
                vkey = (
                    "c", cid, epoch, "views",
                    pruning, cut, k, tau, component_limit,
                )
                part_views = self._lookup(vkey)
                if part_views is _MISSING:
                    if artifact is None:
                        artifact = self._compiled_artifact(stats.timings)
                    with stats.timings.lap("compile"):
                        part_views = pipeline.compile_enumeration_stage(
                            comp_components, min_size, component_limit,
                            artifact,
                        )
                    self._store(vkey, part_views)
                views.extend(part_views)
            compiled = tuple(views)

        yield from pipeline.enumeration_search_stage(
            self._graph, art.components, compiled, k, tau_floor, min_size,
            insearch, insearch_min_candidates, stats,
        )

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
        engine: Engine = "pivot",
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
        (reported as ``stats.lower_bound``).  The compile artifact is
        maximum-specific too, because it bundles the color arrays the
        branch-and-bound bounds need.

        Unlike enumeration (which visits every component), the maximum
        search skips components the evolving incumbent already dominates,
        so compiling everything up front would do work the search never
        uses.  The cached artifact is therefore a *memo dict* the search
        stage fills on demand: cold runs compile exactly what the
        incumbent chain reaches (matching the historical driver), warm
        runs reuse those entries, and determinism of the search makes the
        filled set identical run to run.
        """
        validate_k(k)
        tau = validate_tau(tau)
        if engine not in ("pivot", "legacy"):
            raise ValueError(f"unknown engine {engine!r}")
        stats = stats if stats is not None else MaximumSearchStats()
        min_size = k + 1
        tau_floor = threshold_floor(tau)

        art, parts = self._cut_artifact(
            "topk", True, k, tau, stats.timings, maximum=True
        )
        stats.lower_bound = art.lower_bound

        # The on-demand memo dicts the search stage fills are cached per
        # graph component, keyed by *local* search-component ordinal.
        # They are merged into one transient dict keyed by global ordinal
        # (what maximum_search_stage indexes by), and any entries the
        # search filled are written back to the per-component dicts
        # afterwards — so a mutation in one component keeps every other
        # component's compiled/color entries warm.
        memo_stage = "colors_max" if engine == "legacy" else "compile_max"
        part_memos: list[tuple[int, dict[int, Any]]] = []
        merged: dict[int, Any] = {}
        offset = 0
        for cid, epoch, comp_components in parts:
            mkey = ("c", cid, epoch, memo_stage, k, tau)
            local = self._lookup(mkey)
            if local is _MISSING:
                local = {}
                self._store(mkey, local)
            for loc, entry in local.items():
                merged[offset + loc] = entry
            part_memos.append((offset, local))
            offset += len(comp_components)

        best, best_size = pipeline.maximum_search_stage(
            self._graph, self._compiled_artifact(stats.timings),
            art, merged, k, tau, tau_floor, min_size,
            use_advanced_one, use_advanced_two, insearch, engine, stats,
        )
        for (off, local), (_, _, comp_components) in zip(part_memos, parts):
            for loc in range(len(comp_components)):
                entry = merged.get(off + loc, _MISSING)
                if entry is not _MISSING:
                    local[loc] = entry
        stats.best_size = best_size if best is not None else 0
        if best is None or len(best) < min_size:
            return None
        return frozenset(best)

    # ------------------------------------------------------------------
    # Queries: anchored
    # ------------------------------------------------------------------

    def _anchored_child(
        self,
        stage: str,
        anchor_key: Any,
        region: Iterable[Node],
        fixed: set[Node],
        k: int,
        tau: float,
    ) -> "PreparedGraph | None":
        """Child session over the anchored (Top_k, tau)-core, cached.

        ``None`` is cached for dead anchors (the fixed set cannot survive
        the peel), so repeats of a negative query cost only the lookup.
        The child session owns the anchored core subgraph, giving the
        inner enumeration its own warm cut/compile artifacts.  The key is
        component-scoped by the anchor's component: the anchored region
        (a neighborhood of the anchor set) lives entirely inside that
        component, so a mutation elsewhere keeps the child warm.
        """
        anchor = next(iter(fixed))
        cid, epoch = self._graph.component_key(anchor)
        key = ("c", cid, epoch, stage, anchor_key, k, tau)
        child = self._lookup(key)
        if child is not _MISSING:
            return child  # type: ignore[no-any-return]
        sub = self._graph.induced_subgraph(region)
        anchored = topk_core(sub, k, tau, fixed=fixed)
        if not anchored:
            child = None
        else:
            child = PreparedGraph(sub.induced_subgraph(anchored.nodes))
        self._store(key, child)
        return child

    def cliques_containing(
        self,
        node: Node,
        k: int,
        tau: float,
        engine: Engine = "pivot",
    ) -> Iterator[frozenset[Node]]:
        """Yield every maximal (k, tau)-clique containing ``node``.

        Session-cached equivalent of :func:`repro.core.queries.
        cliques_containing`: the anchored neighborhood core is cached as
        a child session, so a repeated query skips the neighborhood
        build and the anchored peel and reuses the child's compiled
        components.  ``engine`` configures the inner enumeration exactly
        as on :meth:`maximal_cliques`.
        """
        validate_k(k)
        tau = validate_tau(tau)
        if not self._graph.has_node(node):
            raise NodeNotFoundError(node)

        # incident() iterates the same keys as neighbors() without the
        # per-step mutation guard.  Keep the adjacency's insertion order:
        # induced_subgraph preserves argument order, so a set here would
        # make the child's node order — and the clique yield order —
        # depend on PYTHONHASHSEED across processes.
        region = [*self._graph.incident(node), node]
        child = self._anchored_child(
            "anchor_node", node, region, {node}, k, tau
        )
        if child is None:
            return
        for clique in child.maximal_cliques(
            k, tau, pruning="none", engine=engine
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

        A neighborhood scan with no search phase, so unlike the other
        queries it takes no ``engine``.
        """
        tau = validate_tau(tau)
        members = list(dict.fromkeys(nodes))
        if not members:
            return self._graph.num_nodes > 0
        if not is_clique(self._graph, members):
            return False
        base = clique_probability(self._graph, members)
        member_set = set(members)
        for v in self._graph.incident(members[0]):
            if v in member_set:
                continue
            extension = base
            incident = self._graph.incident(v)
            for u in members:
                p = incident.get(u)
                if p is None:
                    extension = 0.0
                    break
                extension *= p
            if extension and prob_at_least(extension, tau):
                return True
        return False

    def containing_clique_exists(
        self,
        nodes: Iterable[Node],
        k: int,
        tau: float,
        engine: Engine = "pivot",
    ) -> bool:
        """Whether some maximal (k, tau)-clique contains all of ``nodes``.

        Session-cached equivalent of :func:`repro.core.queries.
        containing_clique_exists`: the cheap pre-checks always run
        against the live graph; the anchored common-neighborhood core is
        cached as a child session keyed by the (frozen) member set.
        """
        validate_k(k)
        tau = validate_tau(tau)
        members = list(dict.fromkeys(nodes))
        if not members:
            return False
        if not is_clique(self._graph, members):
            return False
        if not prob_at_least(
            clique_probability(self._graph, members), tau
        ):
            return False
        if len(members) > k:
            return True  # already a (k, tau)-clique; some maximal one holds it

        # Grow within the common neighborhood of the anchor set.  The
        # region is ordered by the anchor's adjacency (filtered by the
        # common set) so the child's node order is hash-seed-free; the
        # members themselves are never their own neighbors, so appending
        # them cannot duplicate a region node.
        common = set(self._graph.incident(members[0]))
        for u in members[1:]:
            common &= set(self._graph.incident(u))
        region = [
            v for v in self._graph.incident(members[0]) if v in common
        ] + members
        member_set = set(members)
        child = self._anchored_child(
            "anchor_set", frozenset(members), region, member_set, k, tau
        )
        if child is None:
            return False
        for clique in child.maximal_cliques(
            k, tau, pruning="none", engine=engine
        ):
            if member_set <= clique:
                return True
        return False
