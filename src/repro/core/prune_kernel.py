"""The whole-graph view the peels, the cut and the search read.

The search stage has run on a compiled bitset kernel since PR 2
(:mod:`repro.core.kernel`), and since PR 5 the *pruning* stage — the
paper's headline ``O(m * delta)`` DPCore+ peel (Algorithm 2), the
dominating (Top_k, tau)-core rule (Algorithm 3) and the cut
optimization's fringe peels — runs over dense integer ids.  The graph
keeps those ids and each id's incident row itself
(:class:`~repro.uncertain.graph.IdRows`, built on first read and kept
in step by every mutator), and this module's :class:`CompiledGraph` is
a read-only view over them that serves every stage: the peels read the
insertion-order rows directly, and the cut optimization gathers its
survivor rows from them once (:func:`repro.core.cut_pruning.
induced_rows`; from a level index's core rows when the survivors lie
in that core).  The search kernel builds its per-component
:class:`~repro.core.kernel.CompiledComponent` views (bitmask rows,
descending-prob CSR) from the cut's rows and the view's ``sort_rank``
array (:func:`repro.core.kernel.derive_component_view`).  The peel loops
run entirely over the id rows:

* :func:`survival_peel` — DPCore+: the forward survival DP of Eq. (5)
  written into a preallocated flat row buffer, the Eq. (6) deletion
  update applied in place with the ``STABLE_P_LIMIT`` rebuild fallback,
  a bucketed worklist (per-round frontier lists drained in sequence)
  instead of the deque, and the verify-before-peel + final verification
  sweep discipline preserved — so it reaches the canonical core on
  every input.
* :func:`distribution_peel` — the Bonchi et al. [16] DPCore baseline
  (Eqs. 3 and 4) over the same rows, with reused column scratch
  buffers instead of per-column allocations.
* :func:`topk_peel` — Algorithm 3's (Top_k, tau)-core peel, sorting
  each candidate row's probabilities on the spot, including the
  ``fixed`` (``V_I``) abort the in-search pruning needs; from the
  second whole-graph peel at a ``k`` on, a per-k level index on the
  view answers the whole-graph peels at that ``k`` by bisection.

:func:`survival_peel` and :func:`topk_peel` accept an optional ``members``
subset, walked alone (O(members), not O(n)), so the session's
dirty-component re-peels, the anchored peels and the maintainer's
re-peels read the *same* rows instead of building an induced scratch
subgraph.

Parity contract
---------------
Each peel converges to its rule's canonical node set, the one the
naive fixpoint oracles of ``tests/core/oracles.py`` compute:

* the survival condition of every rule is monotone under node removal,
  and every condemnation is confirmed by a fresh, division-free DP over
  the currently-live neighbors, so each peel terminates at the unique
  maximal fixpoint — independent of worklist order or seeding;
* fresh DPs iterate incident rows in the graph's insertion order
  (filtered by liveness), multiplying the float sequence of
  ``incident(u).values()``;
* every threshold test compares against ``threshold_floor(tau)``, the
  exact fast path of :func:`~repro.utils.validation.prob_at_least` /
  ``prob_below``.

The randomized conformance matrix ``tests/core/test_conformance.py``
pins this contract, including ``p == 1.0`` edges and probabilities
straddling ``STABLE_P_LIMIT``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import prod
from typing import AbstractSet, Iterable, Sequence, cast

from repro.core.tau_degree import STABLE_P_LIMIT
from repro.deterministic.core_decomposition import core_peel
from repro.uncertain.graph import IdRows, Node, UncertainGraph, node_sort_key
from repro.utils.validation import threshold_floor, validate_k, validate_tau

__all__ = [
    "CompiledGraph",
    "node_sort_key",
    "compile_graph",
    "survival_peel",
    "distribution_peel",
    "topk_peel",
]

#: One id's row: neighbour ids and probabilities in insertion order.
Row = tuple["array[int]", "array[float]"]

#: A level index's core rows: per core id, its in-core row.
CoreRows = dict[int, Row]

#: One ``k``'s level index: base floor, core ids in peel order, their
#: levels, and the base core's rows.
Levels = tuple[float, list[int], list[float], CoreRows]


def _ranks(labels: Sequence[Node]) -> list[int]:
    """Each id's position in :func:`node_sort_key` order over every id
    (tombstones included; ties keep id order)."""
    order = sorted(range(len(labels)), key=lambda i: node_sort_key(labels[i]))
    rank = [0] * len(labels)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


class CompiledGraph:
    """A read-only view over a graph's :class:`~repro.uncertain.graph.
    IdRows`, at one graph ``version``.

    ``nodes`` lists each id's label, ``index`` maps each live label to
    its id, and :meth:`row` returns an id's neighbour ids and
    probabilities in insertion order, which is what the fresh survival
    / distribution DPs multiply in, the float sequence of
    ``incident(u)``.  Tombstone ids (removed nodes) have empty rows and
    start every whole-graph peel condemned, so no peel returns one.  No
    sorted row is stored: the (Top_k, tau)-core peel sorts the rows it
    reads on the spot, and a search view sorts only its member-filtered
    entries, several times fewer than a survivor's whole-graph row.

    The view owns no rows, only memos of them:

    * ``sort_rank[i]``, the position of id ``i`` in the library's
      deterministic :func:`node_sort_key` order.  Restricted to any
      component's members, ascending rank equals the component's own
      ascending sort, so component views renumber by one rank sort
      instead of re-deriving string keys per node.
    * :meth:`core_ids`, the deterministic core numbers (the DPCore+
      truncation bound), computed on first use and kept until the rows'
      ``shape`` changes: (Top_k, tau)-only workloads never pay for
      them, and reweights keep them.
    * ``_topk_levels``, which maps each ``k`` a whole-graph
      :func:`topk_peel` ran at to ``None`` (seen once) or to its level
      index: the base floor, the core's ids in peel order, their levels,
      and the base core's rows restricted to the core (:meth:`core_rows`).

    The graph keeps its own view (:func:`repro.core.pipeline.lowering`),
    so every prune and every search of every session, free function and
    core maintainer over that graph shares one.  The rows change in
    place under it with each mutation; :meth:`apply_delta` advances the
    memos to the graph's version before anyone reads them again.
    Nothing outside the graph reads the rows across a mutation: prune
    and cut entries hold labels, search views and maximum memos hold
    derived :class:`~repro.core.kernel.CompiledComponent` copies, and a
    ``maximal_cliques`` generator copies the rows it searches before its
    first yield and builds each view from those copies when that view's
    search starts.
    """

    __slots__ = ("rows", "version", "sort_rank", "_core_ids", "_topk_levels")

    def __init__(self, rows: IdRows, version: int) -> None:
        self.rows = rows
        self.version = version
        self.sort_rank = _ranks(rows.labels)
        self._core_ids: tuple[int, array[int]] | None = None
        self._topk_levels: dict[int, Levels | None] = {}

    @property
    def nodes(self) -> list[Node]:
        """Each id's label (a tombstone keeps its removed label)."""
        return self.rows.labels

    @property
    def index(self) -> dict[Node, int]:
        """Each live node's id, in graph iteration order."""
        return self.rows.index

    @property
    def n(self) -> int:
        """The number of ids, tombstones included."""
        return len(self.rows.labels)

    def row(self, i: int) -> Row:
        """Id ``i``'s neighbour ids and probabilities in insertion
        order: the graph's live buffers, to be read before the next
        mutation."""
        return self.rows.nbrs[i], self.rows.probs[i]

    def core_rows(self, ids: Sequence[int]) -> CoreRows | None:
        """The rows of the smallest indexed (Top_k, tau)-core holding
        every id of ``ids``, or ``None`` when no level index holds them.

        A core row lists the node's in-core ``(neighbour ids,
        probabilities)`` in insertion order, so restricting it to any
        subset of the core gives exactly what the full row gives.
        """
        best: CoreRows | None = None
        for entry in self._topk_levels.values():
            if entry is None:
                continue
            rows = entry[3]
            if (best is None or len(rows) < len(best)) and all(
                map(rows.__contains__, ids)
            ):
                best = rows
        return best

    def core_ids(self) -> "array[int]":
        """Deterministic core number per id (lazy, memoized per
        ``shape`` of the rows).

        The Batagelj-Zaversnik peel
        (:func:`~repro.deterministic.core_decomposition.core_peel`) over
        the id rows; the values equal :func:`repro.deterministic.
        core_decomposition.core_numbers` on the source graph (the
        decomposition is a canonical function of the graph, pinned by
        the parity suite), and a tombstone's is 0.
        """
        shape = self.rows.shape
        held = self._core_ids
        if held is None or held[0] != shape:
            core, _ = core_peel(self.rows.nbrs)
            held = self._core_ids = (shape, array("l", core))
        return held[1]

    def apply_delta(self, version: int) -> None:
        """Advance the view to graph ``version`` after mutations.

        The rows are already current; this drops the (Top_k, tau) level
        index (any mutation can move pi_k, a reweight too) and ranks the
        labels added since the view was last current.  The core numbers
        check the rows' ``shape`` themselves.
        """
        self._topk_levels = {}
        if len(self.sort_rank) != len(self.rows.labels):
            self.sort_rank = _ranks(self.rows.labels)
        self.version = version


def compile_graph(graph: UncertainGraph) -> CompiledGraph:
    """A fresh :class:`CompiledGraph` view over ``graph``'s id rows.

    Builds the rows on the graph when nothing has yet (``O(m)``: one
    id lookup per row entry, no sort), then ranks the labels
    (``O(n log n)``).  The view starts without core numbers or a level
    index, and reads the rows the graph keeps in step, so it answers
    for ``graph.version`` until the next mutation.
    """
    return CompiledGraph(graph.id_rows(), graph.version)


def _initial_dead(
    cpg: CompiledGraph, members: Iterable[Node] | None
) -> tuple[bytearray, Sequence[int]]:
    """Liveness seed and the ids a peel walks, ascending: every id with
    the tombstones dead, or only ``members`` (so a restricted peel is
    O(members), not O(n))."""
    if members is None:
        return bytearray(cpg.rows.gone), range(cpg.n)
    walk = sorted({cpg.index[u] for u in members})
    dead = bytearray(b"\x01" * cpg.n)
    for i in walk:
        dead[i] = 0
    return dead, walk


def survival_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> set[Node]:
    """DPCore+ (Algorithm 2) over the compiled arrays.

    The verified peel: the deterministic-core prefilter, the Eq. (5) forward survival DP as
    the fresh (division-free) state builder, the Eq. (6) in-place
    deletion update with the ``STABLE_P_LIMIT`` rebuild fallback,
    verify-before-condemn, and a final verification sweep repeated to a
    clean fixpoint.  ``members`` restricts the peel to a node subset
    (the session's dirty components, the maintainer's previous core);
    peeling any superset of the core converges to the same unique
    fixpoint.

    ``frontier`` turns the peel into a **seeded re-peel**: only frontier
    nodes get an initial fresh DP; every other member is *trusted* — it
    satisfied the peel condition in a previous fixpoint whose live set
    restricted to its (unchanged) incident row can only shrink through
    the cascade, or grow monotonically when re-admitting a region — and
    is evaluated lazily, with a fresh DP, the first time a dying
    neighbor touches it.  The caller's contract: ``frontier`` must cover
    every member whose incident edges changed since the trusted state
    was a fixpoint.  Untouched trusted nodes then survive by
    construction, so the seeded re-peel converges to exactly the full
    peel's fixpoint while visiting only the dirty region.  The
    deterministic-core prefilter is skipped in frontier mode — it would
    condemn nodes without notifying their neighbors, which is only sound
    when every live node gets an initial DP.

    Two flat-array specifics, neither of which can change the
    fixpoint:

    * per-node DP rows live in one preallocated float buffer with a
      uniform ``k + 1`` stride;
    * the final sweep rebuilds only *stale* nodes (those holding an
      incremental Eq. (6) update since their last fresh DP): a node
      untouched since its rebuild would reproduce that division-free DP
      bit for bit, so re-running it cannot change the decision.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    tau_floor = threshold_floor(tau)
    nbrs = cpg.rows.nbrs
    probs = cpg.rows.probs

    dead, walk = _initial_dead(cpg, members)
    if frontier is None:
        core = cpg.core_ids()
        for i in walk:
            # Definition 6 prefilter: xi_u <= c_u, so core number < k
            # means the node cannot survive any (k, tau)-peel.
            if core[i] < k:
                dead[i] = 1

    stride = k + 1
    state = [0.0] * (n * stride)
    zero_row = [0.0] * k
    tau_deg = [0] * n
    stale = bytearray(n)
    queued = bytearray(n)
    known = bytearray(n)
    p_limit = STABLE_P_LIMIT

    def rebuild(i: int) -> int:
        """Fresh Eq. (5) DP over live incident edges, in incident order."""
        off = i * stride
        state[off] = 1.0
        state[off + 1 : off + stride] = zero_row
        h = 0
        for v, p in zip(nbrs[i], probs[i]):
            if dead[v]:
                continue
            q = 1.0 - p
            h += 1
            top = h if h < k else k
            for x in range(off + top, off, -1):
                state[x] = p * state[x - 1] + q * state[x]
        r = 0
        for x in range(off + 1, off + stride):
            # Hot path: tau_floor = threshold_floor(tau), the exact
            # prob_at_least comparison.
            if state[x] >= tau_floor:  # repro-lint: ignore[RPL001]
                r += 1
            else:
                break
        tau_deg[i] = r
        stale[i] = 0
        known[i] = 1
        return r

    if frontier is None:
        seeds = [i for i in walk if not dead[i]]
    else:
        # Frontier nodes absent from the graph or outside the members
        # are skipped: a maintainer's dirty endpoints may have been
        # deleted, or never have been in the previous core.
        found = (cpg.index.get(u) for u in frontier)
        seeds = list(dict.fromkeys(
            i for i in found if i is not None and not dead[i]
        ))
    worklist: list[int] = []
    for i in seeds:
        if rebuild(i) < k:
            queued[i] = 1
            worklist.append(i)
    frontier_bucket = worklist

    while True:
        # Bucketed worklist: drain the current frontier, collecting the
        # next round's condemnations into a fresh bucket (FIFO semantics
        # without the deque).
        while frontier_bucket:
            bucket: list[int] = []
            for i in frontier_bucket:
                dead[i] = 1
                for v, p in zip(nbrs[i], probs[i]):
                    if dead[v] or queued[v]:
                        continue
                    if not known[v]:
                        # Trusted member touched for the first time:
                        # evaluate with a fresh DP (no state to patch).
                        if rebuild(v) < k:
                            queued[v] = 1
                            bucket.append(v)
                        continue
                    if p < p_limit:
                        # Eq. (6) in place: read each old entry before
                        # overwriting, tracking the updated predecessor.
                        upto = tau_deg[v]
                        off = v * stride
                        q = 1.0 - p
                        prev = state[off]
                        new_deg = upto
                        x = off
                        for t in range(1, upto + 1):
                            x += 1
                            val = (state[x] - p * prev) / q
                            state[x] = val
                            prev = val
                            # Hot path: threshold_floor(tau) comparison.
                            if val < tau_floor:  # repro-lint: ignore[RPL001]
                                new_deg = t - 1
                                break
                        stale[v] = 1
                        if new_deg >= k:
                            tau_deg[v] = new_deg
                            continue
                    # p too close to 1 for the division, or the update
                    # claims v fell below k: verify with a fresh,
                    # division-free DP before condemning.
                    if rebuild(v) < k:
                        queued[v] = 1
                        bucket.append(v)
            frontier_bucket = bucket

        # Final verification sweep: recompute survivors whose state
        # carries incremental drift; continue peeling to a clean
        # fixpoint.  Trusted members never touched by the cascade have
        # ``stale == 0`` and are skipped — their survival is the seeded
        # re-peel's invariant, not something to recheck.
        frontier_bucket = []
        for i in walk:
            if dead[i] or not stale[i]:
                continue
            if rebuild(i) < k:
                queued[i] = 1
                frontier_bucket.append(i)
        if not frontier_bucket:
            nodes = cpg.nodes
            return {nodes[i] for i in walk if not dead[i]}


def distribution_peel(cpg: CompiledGraph, k: int, tau: float) -> set[Node]:
    """DPCore (the Bonchi et al. [16] baseline) over the compiled arrays.

    The peel behind :func:`repro.core.ktau_core.dp_core`: per-node
    state is the ``Pr(d = i)`` prefix up
    to the current tau-degree, built lazily column by column (Eq. 3)
    and updated on deletion with Eq. (4), under the same
    verify-before-condemn + final-sweep discipline.  The two column
    scratch buffers are preallocated once at the maximum degree and
    reused across every rebuild (each rebuild writes the ``0..d`` prefix
    it reads, so reuse is float-exact).  It is the paper's baseline, so
    it only ever peels the whole graph.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    tau_floor = threshold_floor(tau)
    nbrs = cpg.rows.nbrs
    probs = cpg.rows.probs

    dead = bytearray(cpg.rows.gone)
    max_degree = max(map(len, nbrs), default=0)
    col_buf = [0.0] * (max_degree + 1)
    nxt_buf = [0.0] * (max_degree + 1)

    state = cast("list[list[float]]", [None] * n)  # filled by rebuild
    tau_deg = [0] * n
    stale = bytearray(n)
    queued = bytearray(n)
    p_limit = STABLE_P_LIMIT

    def rebuild(i: int) -> int:
        """Fresh lazy Eq. (3) prefix DP over live incident edges."""
        live = [p for v, p in zip(nbrs[i], probs[i]) if not dead[v]]
        d = len(live)
        col = col_buf
        nxt = nxt_buf
        col[0] = 1.0
        for h in range(1, d + 1):
            col[h] = col[h - 1] * (1.0 - live[h - 1])
        eq = [col[d]]
        survival = 1.0
        r = 0
        for t in range(d):
            survival -= eq[t]
            # Hot path: prob_below(survival, tau) exactly.
            if survival < tau_floor:  # repro-lint: ignore[RPL001]
                break
            r = t + 1
            nxt[0] = 0.0
            for h in range(1, d + 1):
                p = live[h - 1]
                nxt[h] = p * col[h - 1] + (1.0 - p) * nxt[h - 1]
            col, nxt = nxt, col
            eq.append(col[d])
        state[i] = eq
        tau_deg[i] = r
        stale[i] = 0
        return r

    frontier_bucket: list[int] = []
    for i in range(n):
        if not dead[i] and rebuild(i) < k:
            queued[i] = 1
            frontier_bucket.append(i)

    while True:
        while frontier_bucket:
            bucket: list[int] = []
            for i in frontier_bucket:
                dead[i] = 1
                for v, p in zip(nbrs[i], probs[i]):
                    if dead[v] or queued[v]:
                        continue
                    if p < p_limit:
                        # Eq. (4) in place on the prefix.
                        deg = tau_deg[v]
                        eq = state[v]
                        q = 1.0 - p
                        prev = eq[0] / q
                        eq[0] = prev
                        for t in range(1, deg + 1):
                            prev = (eq[t] - p * prev) / q
                            eq[t] = prev
                        survival = 1.0
                        r = 0
                        for t in range(deg):
                            survival -= eq[t]
                            # Hot path: prob_below(survival, tau).
                            if survival < tau_floor:  # repro-lint: ignore[RPL001]
                                break
                            r = t + 1
                        stale[v] = 1
                        if r >= k:
                            tau_deg[v] = r
                            continue
                    if rebuild(v) < k:
                        queued[v] = 1
                        bucket.append(v)
            frontier_bucket = bucket

        frontier_bucket = []
        for i in range(n):
            if dead[i] or not stale[i]:
                continue
            if rebuild(i) < k:
                queued[i] = 1
                frontier_bucket.append(i)
        if not frontier_bucket:
            nodes = cpg.nodes
            return {nodes[i] for i in range(n) if not dead[i]}


def topk_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    fixed: AbstractSet[Node] | None = None,
) -> frozenset[Node] | None:
    """Algorithm 3's (Top_k, tau)-core peel over the compiled arrays.

    Each survival check multiplies the ``k`` highest live incident
    probabilities in ascending order — the exact float sequence of
    ``math.prod(sorted(probs)[-k:])`` — against
    ``threshold_floor(tau)``.  The peel condition is monotone under node
    removal, so the surviving fixpoint is unique regardless of worklist
    order, and a ``fixed`` node (the paper's ``V_I``) is condemned under
    *some* order iff it lies outside that fixpoint — the early ``None``
    abort is therefore order-independent too.

    ``members`` restricts the peel to an induced subset (ascending rows
    are then rebuilt from live entries, walking members only);
    ``fixed`` nodes absent from the graph or the member set never abort,
    matching a peel over an induced subgraph that simply does not
    contain them.

    **The level index.**  For a fixed ``k`` the cores are nested in tau
    (Lemma 3: pi_k only falls as nodes leave).  The first whole-graph
    call at ``k`` (no ``members`` or ``fixed``) records
    ``k`` on ``cpg``; the second peels its core ``C(f)``,
    ``f = threshold_floor(tau)``, on over the in-core ascending rows the
    peel ends with: a heap pops the node of least current pi_k
    (computed as the survival check computes it), whose *level* is the
    running maximum of the popped values.  For every ``f' >= f``,
    ``{v : level(v) >= f'}`` is then exactly the (Top_k, f')-core:

    * while ``C(f')`` is whole each member has pi_k >= f', so the first
      member popped lifts the level to f' or more, and it never falls;
    * when the level first reaches f', the popped node held the least
      pi_k left, so every node left has pi_k >= f' among the nodes
      left: that set lies in the unique maximal core.

    Later whole-graph calls at ``k`` with a floor at or above ``f`` are
    ``bisect_left(levels, floor)``; one below ``f`` peels and re-bases
    the index at its floor.  The index also keeps ``C(f)``'s rows
    restricted to ``C(f)``, in insertion order: every core at or above
    ``f`` lies inside it, so the cut gathers those short rows instead of
    the full ones (:meth:`CompiledGraph.core_rows`).
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    nodes = cpg.nodes
    if k == 0:
        # pi_0 is the empty product 1.0, which clears any valid tau.
        return frozenset(cpg.index if members is None else members)
    tau_floor = threshold_floor(tau)
    whole = members is None and not fixed
    index = cpg._topk_levels.get(k) if whole else None
    # Floor against the index's base floor, both threshold_floor values.
    if index is not None and tau_floor >= index[0]:  # repro-lint: ignore[RPL001]
        _, order, levels, _ = index
        return frozenset(
            nodes[i] for i in order[bisect_left(levels, tau_floor):]
        )
    nbrs = cpg.rows.nbrs
    probs = cpg.rows.probs

    condemned, walk = _initial_dead(cpg, members)
    is_fixed = bytearray(n)
    if fixed:
        index_get = cpg.index.get
        for u in fixed:
            i = index_get(u)
            if i is not None and not condemned[i]:
                is_fixed[i] = 1

    def below(values: list[float]) -> bool:
        # pi_k as math.prod of the ascending top-k slice computes it,
        # multiplying left to right.
        nv = len(values)
        if nv < k:
            return True
        product = 1.0
        for p in values[nv - k :]:
            product *= p
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        return product < tau_floor  # repro-lint: ignore[RPL001]

    # Phase 1 — prefilter on the pristine full rows.  pi_k over the
    # whole row upper-bounds pi_k under any node removals (probabilities
    # only leave the top-k window), so a node below tau on its full row
    # is below tau in every restriction: condemning it is sound for the
    # full peel and for any members= subset.  On the registry graphs
    # this one pass settles ~95% of nodes without popping a value;
    # phase-1 losers never enter the worklist, so the drain below never
    # walks their edges either — their absence is baked into the
    # phase-2 gather instead.  Each row's probabilities are sorted here
    # and dropped: phase 1 reads no ids.
    for i in walk:
        if condemned[i]:
            continue
        if below(sorted(probs[i])):
            if is_fixed[i]:
                return None
            condemned[i] = 1

    # Phase 2 — ascending sorted *live* probabilities for the remnant
    # (a sorted-list peel's state), collected before any
    # further condemnation so the drain's bisect-pops stay consistent.
    vals = cast("list[list[float]]", [None] * n)
    for i in walk:
        if condemned[i]:
            continue
        vals[i] = sorted(
            p for v, p in zip(nbrs[i], probs[i]) if not condemned[v]
        )

    stack: list[int] = []
    for i in walk:
        if condemned[i]:
            continue
        if below(vals[i]):
            if is_fixed[i]:
                return None
            condemned[i] = 1
            stack.append(i)

    while stack:
        u = stack.pop()
        for v, p in zip(nbrs[u], probs[u]):
            if condemned[v]:
                continue
            vv = vals[v]
            idx = bisect_left(vv, p)
            vv.pop(idx)
            # The top-k product reads only the last k entries; removing
            # a value strictly below that window leaves v's survival
            # unchanged, so the recheck is skipped (equal floats are
            # interchangeable in a product, so the bisect removal is
            # safe for duplicates).
            if idx <= len(vv) - k:
                continue
            if below(vv):
                if is_fixed[v]:
                    return None
                condemned[v] = 1
                stack.append(v)

    core = [i for i in walk if not condemned[i]]
    result = frozenset(nodes[i] for i in core)
    if whole:
        if k in cpg._topk_levels:
            # Second whole-graph peel at k (or a floor below the base):
            # keep the core's in-core rows for the cut's gather, then
            # peel the core on in ascending pi_k order, in place over
            # its sorted rows ``vals`` and the ``condemned`` flags;
            # math.prod multiplies left to right, exactly like below().
            rows: CoreRows = {}
            for i in core:
                ids_in, ps_in = array("l"), array("d")
                for v, p in zip(nbrs[i], probs[i]):
                    if not condemned[v]:
                        ids_in.append(v)
                        ps_in.append(p)
                rows[i] = ids_in, ps_in

            def pi_k(values: list[float]) -> float:
                return prod(values[-k:]) if len(values) >= k else 0.0

            heap = [(pi_k(vals[i]), i) for i in core]
            heapify(heap)
            order = []
            levels = []
            level = 0.0
            while heap:
                value, u = heappop(heap)
                if condemned[u]:
                    continue  # stale: pi_k only falls, so u popped lower
                condemned[u] = 1
                if value > level:
                    level = value
                order.append(u)
                levels.append(level)
                for v, p in zip(nbrs[u], probs[u]):
                    if condemned[v]:
                        continue
                    vv = vals[v]
                    idx = bisect_left(vv, p)
                    vv.pop(idx)
                    if idx > len(vv) - k:
                        heappush(heap, (pi_k(vv), v))
            cpg._topk_levels[k] = (tau_floor, order, levels, rows)
        else:
            cpg._topk_levels[k] = None
    return result
