"""Array-compiled graph artifact: flat CSR lowering for prune *and* search.

The search stage has run on a compiled bitset kernel since PR 2
(:mod:`repro.core.kernel`), and since PR 5 the *pruning* stage — the
paper's headline ``O(m * delta)`` DPCore+ peel (Algorithm 2), the
dominating (Top_k, tau)-core rule (Algorithm 3) and the cut
optimization's fringe peels — runs over a flat whole-graph CSR built
here.  Originally the two sides compiled independently, so a cold query
lowered every graph twice.  This module now owns the **unified**
artifact: a stdlib-only, zero-dependency compiler that lowers an
:class:`~repro.uncertain.graph.UncertainGraph` **once** into dense int
ids plus flat CSR adjacency/probability layouts that serve every
stage — the peels read the insertion-order rows directly, the cut
optimization gathers its survivor rows from them
(:func:`repro.core.cut_pruning.induced_rows`), and the search kernel
*derives* its per-component
:class:`~repro.core.kernel.CompiledComponent` views (bitmask rows,
descending-prob CSR) from the member-filtered rows and the precomputed
``sort_rank`` array (:func:`repro.core.kernel.derive_component_view`).

The lowering itself is **lazy** per row.  :func:`compile_graph` copies
the insertion-order neighbour *labels* and probabilities in ``O(m)``,
with no per-edge dict lookup and no sort; a row's labels are mapped to
dense ids the first time a reader needs them.  The (Top_k, tau)-core
peel settles most nodes from their probabilities alone and maps only
the remnant's rows; whole-graph readers finish the lowering once.  The
peel loops run entirely over the flat structures:

* :func:`survival_peel` — DPCore+: the forward survival DP of Eq. (5)
  written into a preallocated flat row buffer, the Eq. (6) deletion
  update applied in place with the ``STABLE_P_LIMIT`` rebuild fallback,
  a bucketed worklist (per-round frontier lists drained in sequence)
  instead of the deque, and the verify-before-peel + final verification
  sweep discipline preserved — so the canonical core is identical to the
  legacy peel on every input.
* :func:`distribution_peel` — the Bonchi et al. [16] DPCore baseline
  (Eqs. 3 and 4) over the same compiled form, with reused column
  scratch buffers instead of per-column allocations.
* :func:`topk_peel` — Algorithm 3's (Top_k, tau)-core peel, sorting
  each candidate row's probabilities on the spot, including the
  ``fixed`` (``V_I``) abort the in-search pruning needs.

All three accept an optional ``members`` subset so the session layer's
monotone-seeded peels (PR 4) can replay over the *same* compiled arrays
instead of building an induced scratch subgraph per seed — one compile
per graph version serves every prune of every query.

Parity contract
---------------
The peels converge to the same canonical node sets as their legacy
twins, bit for bit:

* the survival condition of every rule is monotone under node removal,
  and every condemnation is confirmed by a fresh, division-free DP over
  the currently-live neighbors, so each peel terminates at the unique
  maximal fixpoint — independent of worklist order, seeding, or engine;
* fresh DPs iterate incident rows in the graph's insertion order
  (filtered by liveness), multiplying the exact float sequences the
  legacy code reads out of ``incident(u).values()``;
* every threshold test compares against ``threshold_floor(tau)``, the
  exact fast path of :func:`~repro.utils.validation.prob_at_least` /
  ``prob_below``.

The randomized suite ``tests/core/test_prune_kernel_parity.py`` pins
this contract, including ``p == 1.0`` edges and probabilities straddling
``STABLE_P_LIMIT``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import AbstractSet, Any, Iterable, Literal, cast

from repro.core.tau_degree import STABLE_P_LIMIT
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import threshold_floor, validate_k, validate_tau

__all__ = [
    "CompiledGraph",
    "PruneEngine",
    "node_sort_key",
    "compile_graph",
    "survival_peel",
    "distribution_peel",
    "topk_peel",
]

#: Engine selector of the pruning layer: ``"arrays"`` runs the compiled
#: flat-CSR peels of this module, ``"legacy"`` the original dict-based
#: peels.  Both converge to the same canonical node sets.
PruneEngine = Literal["arrays", "legacy"]


def node_sort_key(node: Node) -> tuple[str, str]:
    """Deterministic total order over arbitrary hashable nodes.

    Single definition of the library's node order; the search drivers,
    the search kernel and the whole-graph compiler below share it, and
    compilation evaluates it exactly once per node.
    """
    return (type(node).__name__, str(node))


class CompiledGraph:
    """A whole graph lowered to flat CSR lists for peeling *and* search.

    Nodes are densely renumbered in graph iteration order; adjacency and
    edge probabilities live in parallel CSR layouts sharing one
    ``row_offsets`` list:

    * ``nbr_ids`` / ``nbr_probs`` — **incident order** (the graph's
      insertion order), which is what the fresh survival / distribution
      DPs must multiply in to match the legacy float sequences.  The
      ids are lowered **lazily per row**: until :meth:`_map_row` maps a
      row from the flat ``nbr_labels`` copy, its ``nbr_ids`` slots hold
      ``None`` — so a reader that skips the mapping fails loudly
      (``dead[None]`` raises) instead of reading node 0's flags.
      :meth:`_finish_lowering` maps every row at once and drops
      ``nbr_labels``; the whole-graph readers (the survival and
      distribution peels, :meth:`core_ids`, :meth:`apply_delta`) call
      it first, while :func:`topk_peel` and :meth:`row` (the cut's
      row gather and the view derivation) map only the rows they touch.

    No sorted row is stored: the (Top_k, tau)-core peel sorts the
    ``nbr_probs`` slices it reads on the spot, and a search view sorts
    only its member-filtered entries — a survivor's whole-graph row is
    several times longer than its survivor-to-survivor part.

    ``sort_rank[i]`` is the position of node ``i`` in the library's
    deterministic :func:`node_sort_key` order over the whole graph.
    Restricted to any component's members, ascending rank equals the
    component's own ascending sort — so component views renumber by one
    rank sort instead of re-deriving string keys per node.

    The flat layouts are plain Python lists rather than ``array``
    typecode buffers: the peels index them millions of times, and a
    list read hands back the stored object while an ``array('d')`` read
    boxes a fresh float each time — lists measure ~30% faster end to
    end and make the compile itself ~2x cheaper (no per-element type
    conversion on build).  ``array`` is kept where it earns its keep:
    the compact memoized core-number vector.

    Deterministic core numbers (the DPCore+ truncation bound) are
    computed lazily on first use via a bucket peel over the CSR itself —
    (Top_k, tau)-only workloads never pay for them.

    The compile is pure data tied to one graph ``version``.  It lives on
    the graph it lowers (:func:`repro.core.pipeline.lowering`), so every
    prune and every search of every session, free function and core
    maintainer over that graph shares a single lowering, which
    :meth:`apply_delta` patches **in place** after a mutation.  That is
    sound because nothing outside the graph reads it across a mutation:
    prune and cut entries hold labels, search views and maximum memos
    hold derived :class:`~repro.core.kernel.CompiledComponent` copies,
    and a ``maximal_cliques`` generator derives its views before its
    first yield.  Lazy row mapping and the :meth:`core_ids` memo fill
    idempotently, so every reader sees the same bytes.  The artifact
    is **picklable** at any point of its lazy lowering — only the node
    labels, the insertion-order CSR as it stands (``nbr_labels``, which
    is ``None`` once fully lowered, and the partly mapped ``nbr_ids``)
    and the version are pickled (``__getstate__``); every derived form
    is rebuilt on unpickle.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "row_offsets",
        "nbr_labels",
        "nbr_ids",
        "nbr_probs",
        "sort_rank",
        "version",
        "_core_ids",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...],
        row_offsets: list[int],
        nbr_labels: list[Node],
        nbr_probs: list[float],
        version: int,
    ) -> None:
        self.nodes = nodes
        self.row_offsets = row_offsets
        self.nbr_labels: list[Node] | None = nbr_labels
        # Unmapped slots hold None (see the class docstring); typed as
        # ids because every reader maps a row before it reads it.
        self.nbr_ids = cast("list[int]", [None] * len(nbr_labels))
        self.nbr_probs = nbr_probs
        self.version = version
        self._build_derived()

    def _build_derived(self) -> None:
        """Rebuild every derived form from the canonical flat state."""
        nodes = self.nodes
        n = len(nodes)
        self.n = n
        self.index = {u: i for i, u in enumerate(nodes)}
        order = sorted(range(n), key=lambda i: node_sort_key(nodes[i]))
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        self.sort_rank = rank
        self._core_ids: "array[int] | None" = None

    def _map_row(self, i: int) -> None:
        """Map row ``i``'s neighbour labels to dense ids, once."""
        labels = self.nbr_labels
        if labels is None:
            return
        lo = self.row_offsets[i]
        hi = self.row_offsets[i + 1]
        ids = cast("list[int | None]", self.nbr_ids)
        if lo < hi and ids[lo] is None:
            ids[lo:hi] = map(self.index.__getitem__, labels[lo:hi])

    def _finish_lowering(self) -> None:
        """Map every row's ids and drop the label copy (idempotent)."""
        labels = self.nbr_labels
        if labels is not None:
            self.nbr_ids[:] = map(self.index.__getitem__, labels)
            self.nbr_labels = None

    def row(self, i: int) -> tuple[list[int], list[float]]:
        """Row ``i`` as ``(neighbour ids, probabilities)`` in insertion
        order, mapping its ids on first read; the lists are copies."""
        self._map_row(i)
        lo = self.row_offsets[i]
        hi = self.row_offsets[i + 1]
        return self.nbr_ids[lo:hi], self.nbr_probs[lo:hi]

    def __getstate__(self) -> tuple[
        tuple[Node, ...], list[int], list[Node] | None, list[int],
        list[float], int,
    ]:
        # Labels + insertion-order CSR (as far as it is lowered) +
        # version only; every derived form (index, sort_rank,
        # core numbers) is rebuilt in __setstate__.
        return (
            self.nodes, self.row_offsets, self.nbr_labels, self.nbr_ids,
            self.nbr_probs, self.version,
        )

    def __setstate__(
        self,
        state: tuple[
            tuple[Node, ...], list[int], list[Node] | None, list[int],
            list[float], int,
        ],
    ) -> None:
        nodes, row_offsets, nbr_labels, nbr_ids, nbr_probs, version = state
        self.nodes = nodes
        self.row_offsets = row_offsets
        self.nbr_labels = nbr_labels
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.version = version
        self._build_derived()

    def degree(self, i: int) -> int:
        """Full degree of compiled node ``i``."""
        return self.row_offsets[i + 1] - self.row_offsets[i]

    def core_ids(self) -> "array[int]":
        """Deterministic core number per compiled node (lazy, memoized).

        Batagelj-Zaversnik bucket peeling over the CSR; the values equal
        :func:`repro.deterministic.core_decomposition.core_numbers` on
        the source graph (the decomposition is a canonical function of
        the graph, pinned by the parity suite).
        """
        if self._core_ids is not None:
            return self._core_ids
        self._finish_lowering()
        n = self.n
        rf = self.row_offsets
        ids = self.nbr_ids
        remaining = [rf[i + 1] - rf[i] for i in range(n)]
        core = array("l", [0] * n)
        max_degree = max(remaining, default=0)
        buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
        for i in range(n):
            buckets[remaining[i]].append(i)
        removed = bytearray(n)
        peeled = 0
        current = 0
        pointer = 0
        while peeled < n:
            if pointer > max_degree:
                break
            bucket = buckets[pointer]
            if not bucket:
                pointer += 1
                continue
            u = bucket.pop()
            if removed[u] or remaining[u] != pointer:
                continue  # stale entry: u was re-bucketed lower
            if pointer > current:
                current = pointer
            core[u] = current
            removed[u] = 1
            peeled += 1
            for j in range(rf[u], rf[u + 1]):
                v = ids[j]
                if removed[v]:
                    continue
                d = remaining[v] - 1
                remaining[v] = d
                buckets[d].append(v)
                if d < pointer:
                    pointer = d
        self._core_ids = core
        return core

    # ------------------------------------------------------------------
    # Delta compile
    # ------------------------------------------------------------------

    #: Mutation-log ops :meth:`apply_delta` can patch in place.
    #: ``remove_node`` is deliberately absent: deleting a row renumbers
    #: every dense id, which is a full re-lower by definition.
    _DELTA_OPS = frozenset(
        {"set_probability", "add_edge", "remove_edge", "add_node"}
    )

    def apply_delta(self, ops: Iterable[tuple[Any, ...]]) -> bool:
        """Patch the artifact in place with a mutation-log slice.

        ``ops`` is the tuple returned by
        :meth:`repro.uncertain.graph.UncertainGraph.mutations_since` for
        this artifact's :attr:`version`.  Returns ``True`` when every op
        was applied — the patched artifact is then equivalent to
        :func:`compile_graph` on the mutated graph once both are fully
        lowered (same node order, same insertion-order ids and float
        sequences; memoized core numbers are dropped by structural
        ops only) — or ``False`` without
        touching anything when the slice contains an op the patcher does
        not support (``remove_node``), in which case the caller must
        re-lower.

        A patch first finishes the lowering (a one-off ``O(m)`` id
        mapping on an artifact no whole-graph reader has lowered yet),
        so the structural ops splice the ids and probabilities only —
        never a third, label list.  Reweights are then ``O(d)`` (two row
        writes); structural single-edge ops splice the flat lists
        (``O(m)`` worst case).
        """
        ops = tuple(ops)
        for entry in ops:
            if entry[1] not in self._DELTA_OPS:
                return False
        self._finish_lowering()
        for entry in ops:
            op = entry[1]
            if op == "set_probability":
                _, _, u, v, _, new_p = entry
                self._patch_reweight(u, v, new_p)
            elif op == "add_edge":
                _, _, u, v, p, new_u, new_v = entry
                # The graph creates ``u`` before ``v`` (setdefault
                # order), so the dense numbering must append in the same
                # order to match a cold compile.
                if new_u:
                    self._append_node(u)
                if new_v:
                    self._append_node(v)
                self._insert_edge(u, v, p)
            elif op == "remove_edge":
                _, _, u, v, _ = entry
                self._delete_edge(u, v)
            else:  # add_node
                self._append_node(entry[2])
        if ops:
            self.version = ops[-1][0]
        return True

    def _append_node(self, node: Node) -> None:
        """Append an isolated node (new dense id, empty row)."""
        i = self.n
        self.nodes = self.nodes + (node,)
        self.index[node] = i
        self.n = i + 1
        self.row_offsets.append(self.row_offsets[-1])
        nodes = self.nodes
        order = sorted(range(self.n), key=lambda j: node_sort_key(nodes[j]))
        rank = [0] * self.n
        for r, j in enumerate(order):
            rank[j] = r
        self.sort_rank = rank
        if self._core_ids is not None:
            self._core_ids.append(0)

    def _row_pos(self, i: int, nbr_id: int) -> int:
        """Flat position of neighbor ``nbr_id`` within row ``i``."""
        rf = self.row_offsets
        ids = self.nbr_ids
        for j in range(rf[i], rf[i + 1]):
            if ids[j] == nbr_id:
                return j
        raise KeyError((self.nodes[i], self.nodes[nbr_id]))

    def _patch_reweight(self, u: Node, v: Node, new_p: float) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self.nbr_probs[self._row_pos(iu, iv)] = new_p
        self.nbr_probs[self._row_pos(iv, iu)] = new_p
        # Reweights leave the deterministic structure — and therefore the
        # memoized core numbers — untouched.

    def _splice_in(self, i: int, nbr_id: int, p: float) -> None:
        # The graph appends a new edge at the end of each endpoint's
        # adjacency dict, so the row end is the insertion-order position.
        pos = self.row_offsets[i + 1]
        self.nbr_ids.insert(pos, nbr_id)
        self.nbr_probs.insert(pos, p)
        rf = self.row_offsets
        for t in range(i + 1, len(rf)):
            rf[t] += 1

    def _splice_out(self, i: int, nbr_id: int) -> None:
        pos = self._row_pos(i, nbr_id)
        del self.nbr_ids[pos]
        del self.nbr_probs[pos]
        rf = self.row_offsets
        for t in range(i + 1, len(rf)):
            rf[t] -= 1

    def _insert_edge(self, u: Node, v: Node, p: float) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self._splice_in(iu, iv, p)
        self._splice_in(iv, iu, p)
        self._core_ids = None

    def _delete_edge(self, u: Node, v: Node) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self._splice_out(iu, iv)
        self._splice_out(iv, iu)
        self._core_ids = None


def compile_graph(graph: UncertainGraph) -> CompiledGraph:
    """Lower ``graph`` into the unified :class:`CompiledGraph` (one pass).

    Copies the insertion-order rows in ``O(m)`` — neighbour labels and
    probabilities, no per-edge id lookup and no sort — plus the
    ``O(n log n)`` node ranking; row ids are mapped lazily on first
    read.  The result references nothing of the source graph's
    adjacency, so later graph mutations cannot corrupt it — the
    embedded ``version`` tells :func:`repro.core.pipeline.lowering`
    which mutations to replay into it.
    """
    nodes = tuple(graph.nodes())
    row_offsets = [0]
    nbr_labels: list[Node] = []
    nbr_probs: list[float] = []
    for u in nodes:
        inc = graph.incident(u)
        nbr_labels.extend(inc)
        nbr_probs.extend(inc.values())
        row_offsets.append(len(nbr_labels))
    return CompiledGraph(nodes, row_offsets, nbr_labels, nbr_probs,
                         graph.version)


def _initial_dead(
    cpg: CompiledGraph, members: Iterable[Node] | None
) -> bytearray:
    """Liveness seed: everything alive, or only ``members`` when given."""
    if members is None:
        return bytearray(cpg.n)
    dead = bytearray(b"\x01" * cpg.n)
    index = cpg.index
    for u in members:
        dead[index[u]] = 0
    return dead


def _frontier_seeds(
    cpg: CompiledGraph,
    frontier: Iterable[Node],
    dead: bytearray,
) -> list[int]:
    """Deduplicated compiled ids of live frontier nodes, in given order.

    Frontier nodes absent from the graph or outside the member set are
    ignored — a maintainer's dirty endpoints may have been deleted or
    may never have been part of the seeded core.
    """
    index_get = cpg.index.get
    seeds: list[int] = []
    seen: set[int] = set()
    for u in frontier:
        i = index_get(u)
        if i is not None and not dead[i] and i not in seen:
            seen.add(i)
            seeds.append(i)
    return seeds


def survival_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> set[Node]:
    """DPCore+ (Algorithm 2) over the compiled arrays.

    Semantically identical to the legacy verified peel
    (:func:`repro.core.ktau_core.dp_core_plus` with ``engine="legacy"``):
    the deterministic-core prefilter, the Eq. (5) forward survival DP as
    the fresh (division-free) state builder, the Eq. (6) in-place
    deletion update with the ``STABLE_P_LIMIT`` rebuild fallback,
    verify-before-condemn, and a final verification sweep repeated to a
    clean fixpoint.  ``members`` restricts the peel to a node subset
    (the session layer's monotone seeds); peeling any superset of the
    core converges to the same unique fixpoint, so the result set is
    independent of the seed.

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

    Two flat-array specifics beyond the legacy code, neither of which
    can change the fixpoint:

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
    cpg._finish_lowering()
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs

    dead = _initial_dead(cpg, members)
    if frontier is None:
        core = cpg.core_ids()
        for i in range(n):
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
        for j in range(rf[i], rf[i + 1]):
            if dead[ids[j]]:
                continue
            p = ps[j]
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
        seeds = [i for i in range(n) if not dead[i]]
    else:
        seeds = _frontier_seeds(cpg, frontier, dead)
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
                for j in range(rf[i], rf[i + 1]):
                    v = ids[j]
                    if dead[v] or queued[v]:
                        continue
                    if not known[v]:
                        # Trusted member touched for the first time:
                        # evaluate with a fresh DP (no state to patch).
                        if rebuild(v) < k:
                            queued[v] = 1
                            bucket.append(v)
                        continue
                    p = ps[j]
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
        for i in range(n):
            if dead[i] or not stale[i]:
                continue
            if rebuild(i) < k:
                queued[i] = 1
                frontier_bucket.append(i)
        if not frontier_bucket:
            nodes = cpg.nodes
            return {nodes[i] for i in range(n) if not dead[i]}


def distribution_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> set[Node]:
    """DPCore (the Bonchi et al. [16] baseline) over the compiled arrays.

    Semantics of :func:`repro.core.ktau_core.dp_core` with
    ``engine="legacy"``: per-node state is the ``Pr(d = i)`` prefix up
    to the current tau-degree, built lazily column by column (Eq. 3)
    and updated on deletion with Eq. (4), under the same
    verify-before-condemn + final-sweep discipline.  The two column
    scratch buffers are preallocated once at the maximum degree and
    reused across every rebuild (each rebuild writes the ``0..d`` prefix
    it reads, so reuse is float-exact).

    ``frontier`` requests a seeded re-peel with the same trusted-member
    contract as :func:`survival_peel`: only frontier members get an
    initial DP, everyone else is evaluated lazily when the cascade first
    touches them.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    tau_floor = threshold_floor(tau)
    cpg._finish_lowering()
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs

    dead = _initial_dead(cpg, members)
    max_degree = 0
    for i in range(n):
        d = rf[i + 1] - rf[i]
        if d > max_degree:
            max_degree = d
    col_buf = [0.0] * (max_degree + 1)
    nxt_buf = [0.0] * (max_degree + 1)

    state: list[list[float]] = [[] for _ in range(n)]
    tau_deg = [0] * n
    stale = bytearray(n)
    queued = bytearray(n)
    known = bytearray(n)
    p_limit = STABLE_P_LIMIT

    def rebuild(i: int) -> int:
        """Fresh lazy Eq. (3) prefix DP over live incident edges."""
        probs = [
            ps[j] for j in range(rf[i], rf[i + 1]) if not dead[ids[j]]
        ]
        d = len(probs)
        col = col_buf
        nxt = nxt_buf
        col[0] = 1.0
        for h in range(1, d + 1):
            col[h] = col[h - 1] * (1.0 - probs[h - 1])
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
                p = probs[h - 1]
                nxt[h] = p * col[h - 1] + (1.0 - p) * nxt[h - 1]
            col, nxt = nxt, col
            eq.append(col[d])
        state[i] = eq
        tau_deg[i] = r
        stale[i] = 0
        known[i] = 1
        return r

    if frontier is None:
        seeds = [i for i in range(n) if not dead[i]]
    else:
        seeds = _frontier_seeds(cpg, frontier, dead)
    frontier_bucket: list[int] = []
    for i in seeds:
        if rebuild(i) < k:
            queued[i] = 1
            frontier_bucket.append(i)

    while True:
        while frontier_bucket:
            bucket: list[int] = []
            for i in frontier_bucket:
                dead[i] = 1
                for j in range(rf[i], rf[i + 1]):
                    v = ids[j]
                    if dead[v] or queued[v]:
                        continue
                    if not known[v]:
                        if rebuild(v) < k:
                            queued[v] = 1
                            bucket.append(v)
                        continue
                    p = ps[j]
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
    frontier: Iterable[Node] | None = None,
) -> frozenset[Node] | None:
    """Algorithm 3's (Top_k, tau)-core peel over the compiled arrays.

    Each survival check multiplies the ``k`` highest live incident
    probabilities in ascending order — the exact float sequence of the
    legacy ``math.prod(sorted(probs)[-k:])`` — against
    ``threshold_floor(tau)``.  The peel condition is monotone under node
    removal, so the surviving fixpoint is unique regardless of worklist
    order, and a ``fixed`` node (the paper's ``V_I``) is condemned under
    *some* order iff it lies outside that fixpoint — the early ``None``
    abort is therefore order-independent too.

    ``members`` restricts the peel to an induced subset (ascending rows
    are then re-gathered from live entries); ``fixed`` nodes absent from
    the graph or the member set never abort, matching the legacy peel
    over an induced subgraph that simply does not contain them.

    ``frontier`` requests a seeded re-peel (trusted-member contract of
    :func:`survival_peel`): only frontier members are checked up front,
    every other member's ascending live row is gathered lazily the first
    time the cascade touches it.  Lazy gathers exclude exactly the
    neighbors whose bisect-pop can no longer arrive — non-members and
    already-*drained* condemned nodes — while a condemned-but-undrained
    neighbor stays in the gathered row because its pop is still coming:
    that bookkeeping keeps every row consistent with the pops the drain
    will actually perform, so the fixpoint matches the eager peel's.

    The peel reads neighbour ids only from the rows it gathers, and maps
    just those (:meth:`CompiledGraph._map_row`): on an artifact no
    whole-graph reader has lowered, the prefilter's losers stay
    unmapped.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    nodes = cpg.nodes
    if k == 0:
        # pi_0 is the empty product 1.0, which clears any valid tau.
        if members is None:
            return frozenset(nodes)
        return frozenset(members)
    tau_floor = threshold_floor(tau)
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs
    map_row = cpg._map_row

    condemned = _initial_dead(cpg, members)
    is_fixed = bytearray(n)
    if fixed:
        index_get = cpg.index.get
        for u in fixed:
            i = index_get(u)
            if i is not None and not condemned[i]:
                is_fixed[i] = 1

    def below(values: list[float]) -> bool:
        # pi_k as the legacy peel computes it: math.prod of the
        # ascending top-k slice multiplies left to right.
        nv = len(values)
        if nv < k:
            return True
        product = 1.0
        for p in values[nv - k :]:
            product *= p
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        return product < tau_floor  # repro-lint: ignore[RPL001]

    if frontier is not None:
        # Seeded re-peel: no pristine-row prefilter (it condemns without
        # notifying neighbors, which is only sound when every member is
        # checked up front) and no eager gather.
        outside = bytes(condemned)
        gathered = bytearray(n)
        drained = bytearray(n)
        vals: list[list[float]] = [[] for _ in range(n)]

        def gather(i: int) -> list[float]:
            map_row(i)
            row = sorted(
                ps[j]
                for j in range(rf[i], rf[i + 1])
                if not outside[ids[j]] and not drained[ids[j]]
            )
            vals[i] = row
            gathered[i] = 1
            return row

        stack: list[int] = []
        for i in _frontier_seeds(cpg, frontier, condemned):
            if below(gather(i)):
                if is_fixed[i]:
                    return None
                condemned[i] = 1
                stack.append(i)

        while stack:
            u = stack.pop()
            drained[u] = 1
            for j in range(rf[u], rf[u + 1]):
                v = ids[j]
                if condemned[v]:
                    continue
                if not gathered[v]:
                    # Trusted member touched for the first time: the
                    # fresh gather already excludes u (just drained).
                    if below(gather(v)):
                        if is_fixed[v]:
                            return None
                        condemned[v] = 1
                        stack.append(v)
                    continue
                vv = vals[v]
                idx = bisect_left(vv, ps[j])
                vv.pop(idx)
                if idx <= len(vv) - k:
                    continue
                if below(vv):
                    if is_fixed[v]:
                        return None
                    condemned[v] = 1
                    stack.append(v)

        return frozenset(
            nodes[i] for i in range(n) if not condemned[i]
        )

    # Phase 1 — prefilter on the pristine full rows.  pi_k over the
    # whole row upper-bounds pi_k under any node removals (probabilities
    # only leave the top-k window), so a node below tau on its full row
    # is below tau in every restriction: condemning it is sound for the
    # full peel and for any members= subset.  On the registry graphs
    # this one pass settles ~95% of nodes without popping a value;
    # phase-1 losers never enter the worklist, so the drain below never
    # walks their edges either — their absence is baked into the
    # phase-2 gather instead.  Each row's probabilities are sorted here
    # and dropped: phase 1 needs no ids, so the rows it condemns are
    # never mapped.
    for i in range(n):
        if condemned[i]:
            continue
        if below(sorted(ps[rf[i]:rf[i + 1]])):
            if is_fixed[i]:
                return None
            condemned[i] = 1

    # Phase 2 — ascending sorted *live* probabilities for the remnant
    # (the exact state the legacy peel keeps), gathered before any
    # further condemnation so the drain's bisect-pops stay consistent.
    # Only these rows are mapped to ids; the drain walks no others.
    vals: list[list[float]] = [[] for _ in range(n)]
    for i in range(n):
        if condemned[i]:
            continue
        map_row(i)
        vals[i] = sorted(
            ps[j]
            for j in range(rf[i], rf[i + 1])
            if not condemned[ids[j]]
        )

    stack: list[int] = []
    for i in range(n):
        if condemned[i]:
            continue
        if below(vals[i]):
            if is_fixed[i]:
                return None
            condemned[i] = 1
            stack.append(i)

    while stack:
        u = stack.pop()
        for j in range(rf[u], rf[u + 1]):
            v = ids[j]
            if condemned[v]:
                continue
            vv = vals[v]
            idx = bisect_left(vv, ps[j])
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

    return frozenset(nodes[i] for i in range(n) if not condemned[i])
