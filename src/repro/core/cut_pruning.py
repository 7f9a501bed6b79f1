"""Cut-based optimization (Section III-C).

A cut set of a connected uncertain graph is *low-probability* when the
product of its ``k`` highest edge probabilities is below ``tau`` (or the cut
has fewer than ``k`` edges at all) — Eq. (7) and Definition 10.  Lemma 5
shows no maximal (k, tau)-clique subgraph contains an edge of such a cut, so
all its edges can be dropped, splitting the graph into smaller components
that are enumerated independently.

Finding *all* low-probability cuts is intractable; following the paper we
run the Stoer-Wagner maximum-adjacency sweep: grow a set ``S`` by repeatedly
absorbing the node most tightly connected to it (by total incident
probability) and test the cut ``(S, rest)`` after every absorption.  When a
low-probability cut appears, its edges are deleted.  Here this departs
from the paper, which processes both sides recursively: only the pieces
of the initial split are swept, once each from their lowest id, and the
parts a sweep's cuts leave are final.  Single-node cuts (the paper's
Remark: the TopKCore rule) are peeled first, and again on those parts,
re-testing only the nodes that can fail: none on the ``topk`` prune's
survivors, only the endpoints of a sweep's crossing edges after it
(:func:`cut_rows`).

The whole optimization runs on dense int ids, read once from the
whole-graph compile (:class:`~repro.core.prune_kernel.CompiledGraph`):
:func:`induced_rows` turns a node subset — the pipeline passes one
graph component's prune survivors as ascending compile ids — into local
``(id, p)`` rows, and no subgraph is built.  When a level index's
(Top_k, tau)-core holds the whole subset, the gather reads that core's
short rows instead of the full ones
(:meth:`~repro.core.prune_kernel.CompiledGraph.core_rows`).  The
pipeline's search builds its views from the same rows
(:func:`~repro.core.kernel.derive_component_view`), so a cold query
reads no lowering row twice.  A *piece* (a connected
part still being split) is a sorted local-id list whose members share
one mark in ``owner``.  An edge is alive exactly when both ends carry
the same mark — every deleted edge crosses two pieces — so deletion
needs no bookkeeping, the removed edges are counted from the marks, and
the input graph is never copied or mutated.  Every traversal runs in id
order, which makes the cuts independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import count
from typing import Iterator, Sequence

from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.uncertain.graph import UncertainGraph
from repro.utils.validation import (
    threshold_floor,
    validate_k,
    validate_tau,
)

__all__ = [
    "cut_optimize",
    "CutOptimizeResult",
    "induced_rows",
    "local_ids",
    "cut_rows",
    "split_rows",
    "greedy_clique_size",
]

#: Local adjacency: ``rows[i]`` lists ``(neighbour id, p)`` for node ``i``.
Rows = list[list[tuple[int, float]]]

#: ``owner`` mark of a fringe-peeled node: no live piece carries it.
_PEELED = -1

#: How many of the highest-degree nodes :func:`greedy_clique_size`
#: grows a clique from.
_GREEDY_SEEDS = 32

#: Relative margin a greedy clique keeps above the floor, so it clears
#: the floor in whatever order a later stage multiplies its edges (a
#: reassociated product of a few hundred factors moves by < 1e-13).
_BOUND_SAFETY = 1.0 + 1e-9


@dataclass
class CutOptimizeResult:
    """Outcome of :func:`cut_optimize`.

    ``components`` are the connected pieces left after all discovered
    low-probability cuts were removed, as induced uncertain subgraphs.
    ``fringe_nodes_peeled`` counts nodes removed through *single-node*
    low-probability cuts (the TopKCore special case of the paper's
    Remark); ``cuts_found`` counts the multi-node cuts found by sweeps.
    """

    components: list[UncertainGraph]
    cuts_found: int
    edges_removed: int
    fringe_nodes_peeled: int = 0


def cut_optimize(
    graph: UncertainGraph, k: int, tau: float
) -> CutOptimizeResult:
    """Remove low-probability cut sets and return the resulting components.

    The input graph is not modified.  Every edge deleted is justified by
    Lemma 5, so the union of the returned components contains every maximal
    (k, tau)-clique of ``graph``.

    The pipeline's cut (:func:`cut_rows`) on the rows of
    ``compile_graph(graph)``, each piece then built as an induced
    subgraph.  Components come out in order of their first node in
    ``graph``'s iteration order, each listing its nodes in that order.
    """
    validate_k(k)
    tau = validate_tau(tau)
    compiled = compile_graph(graph)
    ids = list(compiled.index.values())
    pieces, cuts_found, edges_removed, fringe_peeled = cut_rows(
        induced_rows(compiled, ids), k, tau
    )
    nodes = compiled.nodes
    components = [
        graph.induced_subgraph([nodes[ids[i]] for i in piece])
        for piece in pieces
    ]
    return CutOptimizeResult(
        components, cuts_found, edges_removed, fringe_peeled
    )


def local_ids(n: int, ids: Sequence[int]) -> list[int | None]:
    """``local[g] == i`` for ``g = ids[i]``, ``None`` for the other ids
    below ``n``: a list over every id, whose indexing beats a dict."""
    local: list[int | None] = [None] * n
    for i, g in enumerate(ids):
        local[g] = i
    return local


def induced_rows(compiled: CompiledGraph, ids: Sequence[int]) -> Rows:
    """Rows of the subgraph the ids ``ids`` of ``compiled`` induce: local
    id ``i`` is ``ids[i]``; each row keeps its in-subset ``(local id,
    p)`` entries in insertion order.

    Each row is read once: from the smallest indexed core's rows when
    that core holds every id (the same entries inside the core, and no
    others survive the restriction to ``ids``), else the full row.
    """
    core = compiled.core_rows(ids)
    row = compiled.row if core is None else core.__getitem__
    local = local_ids(compiled.n, ids)
    return [
        [(li, p) for j, p in zip(*row(g)) if (li := local[j]) is not None]
        for g in ids
    ]


def split_rows(rows: Rows) -> list[list[int]]:
    """Connected parts of ``rows``, each sorted, in order of lowest id."""
    n = len(rows)
    return _split(rows, [0] * n, list(range(n)), count(1))


def cut_rows(
    rows: Rows, k: int, tau: float, core: bool = False
) -> tuple[list[list[int]], int, int, int]:
    """The cut optimization over local ``(id, p)`` rows.

    Returns ``(pieces, cuts_found, edges_removed, fringe_nodes_peeled)``;
    the pieces are sorted id lists in order of their lowest id.

    Implementation note: the set of edges incident to one node is itself a
    cut, and testing it is exactly the (Top_k, tau)-core condition — the
    paper's Remark in Section III-C.  Each piece is therefore
    *fringe-peeled* with the TopKCore rule (near-linear) before the
    maximum-adjacency sweep hunts for genuine multi-node cuts; without
    this, a hub-heavy graph makes the sweep strip one thin fringe per
    O(m log m) pass.  The peel only re-tests what can fail it:

    * ``core=True`` says ``rows`` are already their own (Top_k,
      tau)-core, as the ``topk`` prune's survivors at this ``k`` are, so
      the initial pieces skip the peel;
    * the peel's connected remnants are stable;
    * a part a sweep cut off re-tests only the nodes that lost an edge
      to another segment (the sweep's crossing edges), since every
      other node's live row is the one that passed before the cut
      (:func:`_fringe_peel`'s ``seeds``).

    Each piece of the initial split (or of its peel's remnant) is swept
    once, from its lowest id.  What a sweep's cut leaves — the
    connected parts of its segments, after their seeded peel — is
    final and never swept again: a later sweep could find more low
    cuts there, but deleting them is only an optimization (Lemma 5),
    and the extra sweeps cost more than the smaller pieces save the
    search (``docs/algorithms.md`` §4).
    """
    tau_floor = threshold_floor(tau)
    n = len(rows)
    owner = [0] * n
    marks = count(1)
    conn = [0.0] * n
    in_s = bytearray(n)
    cuts_found = 0
    finished: list[list[int]] = []

    def peel(piece: list[int], seeds: list[int] | None) -> list[list[int]]:
        """Fringe-peel ``piece`` from ``seeds``; the peeled nodes finish
        alone, and the connected parts of what is left come back."""
        mark = owner[piece[0]]
        if len(piece) <= 1 or not _fringe_peel(
            rows, owner, piece, k, tau_floor, seeds
        ):
            return [piece]
        remnant: list[int] = []
        for i in piece:
            if owner[i] == mark:
                remnant.append(i)
            else:
                finished.append([i])
        return _split(rows, owner, remnant, marks)

    pieces = _split(rows, owner, list(range(n)), marks)
    if not core:
        pieces = [part for piece in pieces for part in peel(piece, None)]
    for piece in pieces:
        if len(piece) <= 1:
            finished.append(piece)
            continue
        segments, seeds = _sweep_split(
            rows, owner, conn, in_s, piece, piece[0], k, tau_floor
        )
        if len(segments) == 1:
            finished.append(piece)
            continue
        cuts_found += len(segments) - 1
        # A fresh mark per segment deletes every crossing edge at once.
        # Each segment may have fallen apart: its connected parts are
        # peeled from the endpoints of the crossing edges, and final.
        for segment in segments:
            mark = next(marks)
            for i in segment:
                owner[i] = mark
        for segment in segments:
            for part in _split(rows, owner, segment, marks):
                finished += peel(part, [i for i in part if i in seeds])

    finished.sort()  # disjoint sorted lists: in order of lowest id
    # An edge is kept exactly when both ends finish on one live mark.
    kept = 0
    fringe_peeled = 0
    for i, row in enumerate(rows):
        mark = owner[i]
        if mark == _PEELED:
            fringe_peeled += 1
        else:
            kept += [owner[j] for j, _ in row].count(mark)
    removed = (sum(map(len, rows)) - kept) // 2
    return finished, cuts_found, removed, fringe_peeled


def greedy_clique_size(rows: Rows, tau: float) -> int:
    """The size of a tau-clique of ``rows`` found greedily: a lower
    bound on the maximum tau-clique's size (0 for no rows).

    A clique grows from each of the :data:`_GREEDY_SEEDS` nodes with the
    longest rows (ties to the lowest id) by the candidate whose edges to
    the clique have the largest product (ties to the lowest id), while
    the clique's probability times that product clears
    ``threshold_floor(tau)`` with the :data:`_BOUND_SAFETY` margin.  A
    row becomes a dict only when the greedy adds its node.
    """
    floor = threshold_floor(tau) * _BOUND_SAFETY
    seeds = sorted(range(len(rows)), key=lambda i: (-len(rows[i]), i))
    row_dicts: dict[int, dict[int, float]] = {}
    best = 0
    for seed in seeds[:_GREEDY_SEEDS]:
        if len(rows[seed]) < best:
            break  # no later seed can grow past ``best`` either
        # cand[w]: the product of w's edges to the clique.
        cand = {
            # Hot path: floor = threshold_floor(tau) with a margin.
            w: p for w, p in rows[seed] if p >= floor  # repro-lint: ignore[RPL001]
        }
        prob = 1.0
        size = 1
        while cand and size + len(cand) > best:
            top = max(cand.values())
            u = min(w for w, c in cand.items() if c == top)
            prob *= top
            size += 1
            row = row_dicts.get(u)
            if row is None:
                row = row_dicts[u] = dict(rows[u])
            cand = {
                w: cp for w, c in cand.items()
                if (p := row.get(w)) is not None
                # Hot path: floor = threshold_floor(tau) with a margin.
                and prob * (cp := c * p) >= floor  # repro-lint: ignore[RPL001]
            }
        best = max(best, size)
    return best


def _split(
    rows: Rows, owner: list[int], members: list[int], marks: Iterator[int]
) -> list[list[int]]:
    """Connected parts of ``members``, which all share one mark.

    BFS over live edges (both ends on that mark); each part gets a fresh
    mark as it is visited.  Parts come out sorted, in order of their
    lowest id.
    """
    if not members:
        return []
    old = owner[members[0]]
    parts: list[list[int]] = []
    for start in sorted(members):
        if owner[start] != old:
            continue
        mark = next(marks)
        owner[start] = mark
        part = [start]
        for u in part:  # the list is the BFS queue
            for v, _ in rows[u]:
                if owner[v] == old:
                    owner[v] = mark
                    part.append(v)
        part.sort()
        parts.append(part)
    return parts


def _fringe_peel(
    rows: Rows,
    owner: list[int],
    piece: list[int],
    k: int,
    tau_floor: float,
    seeds: list[int] | None = None,
) -> bool:
    """Peel ``piece`` to its (Top_k, tau)-core; return whether any node left.

    Peeled nodes get the :data:`_PEELED` mark.  The survival test is the
    one :func:`repro.core.prune_kernel.topk_peel` runs: the ascending
    top-k slice of each node's live incident probabilities, multiplied
    left to right, against ``threshold_floor(tau)``; a peeled node's
    edges leave its neighbours' sorted lists by bisect-pop.

    ``seeds`` (default: every node) are the nodes tested first; the
    caller vouches that every other node of ``piece`` passes.  Such a
    node's sorted list is built the first time a peeled neighbour
    reaches it, and still holds its edges to the peeled nodes whose
    edges are not yet withdrawn (``pending``), as an eager list would.
    The core is unique, so the same nodes leave either way.
    """
    if k == 0:
        return False  # pi_0 is the empty product 1.0, which clears any tau
    mark = owner[piece[0]]

    def below(values: list[float]) -> bool:
        nv = len(values)
        if nv < k:
            return True
        product = 1.0
        for p in values[nv - k :]:
            product *= p
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        return product < tau_floor  # repro-lint: ignore[RPL001]

    vals: dict[int, list[float]] = {}
    stack: list[int] = []
    for i in piece if seeds is None else seeds:
        row = [p for j, p in rows[i] if owner[j] == mark]
        if len(row) < k:
            stack.append(i)  # peeled at once: its list is never read
            continue
        row.sort()
        vals[i] = row
        if below(row):
            stack.append(i)
    if not stack:
        return False
    for i in stack:
        owner[i] = _PEELED
    pending = set(stack)
    while stack:
        u = stack.pop()
        for v, p in rows[u]:
            if owner[v] != mark:
                continue
            vv = vals.get(v)
            if vv is None:
                vv = vals[v] = sorted(
                    q for j, q in rows[v] if owner[j] == mark or j in pending
                )
            idx = bisect_left(vv, p)
            del vv[idx]
            # Only a change inside the top-k window can flip the test.
            if idx > len(vv) - k and below(vv):
                owner[v] = _PEELED
                stack.append(v)
                pending.add(v)
        pending.discard(u)
    return True


def _cut_is_low(cut: list[float], k: int, tau_floor: float) -> bool:
    """Definition 10 on a cut held as an ascending list of probabilities.

    The top-k product multiplies the largest entry first, down to the
    k-th largest.
    """
    nc = len(cut)
    if nc < k:
        return True
    product = 1.0
    for j in range(nc - 1, nc - 1 - k, -1):
        product *= cut[j]
    # Hot path: tau_floor = threshold_floor(tau) fast path.
    return product < tau_floor  # repro-lint: ignore[RPL001]


def _sweep_split(
    rows: Rows,
    owner: list[int],
    conn: list[float],
    in_s: bytearray,
    piece: list[int],
    start: int,
    k: int,
    tau_floor: float,
) -> tuple[list[list[int]], set[int]]:
    """One maximum-adjacency sweep over ``piece``, recording *every* low
    boundary.

    Grows ``S`` from ``start``; after each absorption tests
    whether the cut ``(S, piece - S)`` is low-probability and, if so,
    flags the boundary.  Every flagged boundary is a genuine
    low-probability cut of the *current* graph, so Lemma 5 independently
    justifies deleting each one — which lets a single sweep find many cuts
    at once.  Heap ties go to the lowest id.

    ``conn`` (connection weights) and ``in_s`` (membership of ``S``) are
    scratch arrays over all ids, reset here for the piece's members.
    Returns the runs of nodes between consecutive flagged boundaries, in
    absorption order — an edge is deleted exactly when its ends fall in
    different runs — and the endpoints of those crossing edges.  With no
    low boundary that is one run, the whole absorption order, and no
    endpoint.

    The endpoints cost nothing until a boundary is flagged.  There, the
    heap's live entries are exactly the nodes outside ``S`` with an edge
    into it: the heap is compacted to them (dropping stale entries
    changes no pop) and they are collected.  Each crossing edge has its
    later end collected at the boundary after its earlier end, and the
    earlier ends are read from the collected nodes' rows.
    """
    mark = owner[piece[0]]
    for i in piece:
        conn[i] = 0.0
        in_s[i] = 0
    order: list[int] = []
    low: list[bool] = []  # low[i]: the boundary after order[i]
    cut: list[float] = []  # probabilities of the edges leaving S, ascending
    heap: list[tuple[float, int]] = [(0.0, start)]
    later: set[int] = set()  # nodes with an edge into an earlier run
    scan = 0
    while True:
        while heap:
            neg_w, u = heappop(heap)
            if not in_s[u] and -neg_w == conn[u]:
                break
        else:
            # Disconnected remainder: empty cut, trivially low; restart
            # the sweep from the lowest unabsorbed id.
            low[-1] = True
            while in_s[piece[scan]]:
                scan += 1
            u = piece[scan]
        in_s[u] = 1
        order.append(u)
        for v, p in rows[u]:
            if owner[v] != mark:
                continue
            if in_s[v]:
                del cut[bisect_left(cut, p)]  # edge now inside S
            else:
                insort(cut, p)
                w = conn[v] + p
                conn[v] = w
                heappush(heap, (-w, v))
        if len(order) == len(piece):
            break
        is_low = _cut_is_low(cut, k, tau_floor)
        low.append(is_low)
        if is_low:
            heap = [e for e in heap if not in_s[e[1]] and -e[0] == conn[e[1]]]
            heapify(heap)
            later.update(v for _, v in heap)

    segments: list[list[int]] = []
    begin = 0
    for i, is_low in enumerate(low):
        if is_low:
            segments.append(order[begin : i + 1])
            begin = i + 1
    segments.append(order[begin:])
    if len(segments) == 1:
        return segments, later
    run = {i: r for r, segment in enumerate(segments) for i in segment}
    ends = set(later)
    for v in later:
        rv = run[v]
        ends.update(
            j for j, _ in rows[v] if owner[j] == mark and run[j] < rv
        )
    return segments, ends
