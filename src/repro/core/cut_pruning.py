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
low-probability cut appears, its edges are deleted and both sides are
processed recursively.

The whole optimization runs on dense int ids, gathered once from the
whole-graph compile (:class:`~repro.core.prune_kernel.CompiledGraph`):
:func:`induced_rows` turns a node subset — the pipeline passes one
graph component's prune survivors as ascending compile ids — into local
``(id, p)`` rows, and no subgraph is built.  A *piece* (a connected
part still being split) is a sorted local-id list whose members share
one mark in ``owner``.  An edge is alive exactly when both ends carry
the same mark — every deleted edge crosses two pieces — so deletion
needs no bookkeeping, the removed edges are counted from the marks, and
the input graph is never copied or mutated.  Every traversal runs in id
order, which makes the cuts independent of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import count
from typing import Iterator, Sequence

from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.uncertain.graph import UncertainGraph
from repro.utils.validation import (
    prob_below,
    threshold_floor,
    validate_k,
    validate_tau,
)

__all__ = [
    "cut_probability",
    "is_low_probability_cut",
    "cut_optimize",
    "CutOptimizeResult",
    "induced_rows",
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


def cut_probability(cut_probs: Sequence[float], k: int) -> float:
    """``pi_k(E_chi)`` — Eq. (7): the product of the ``k`` largest
    probabilities in the cut, or 0.0 when the cut has fewer than ``k``
    edges."""
    validate_k(k)
    if len(cut_probs) < k:
        return 0.0
    if k == 0:
        return 1.0
    return math.prod(sorted(cut_probs, reverse=True)[:k])


def is_low_probability_cut(
    cut_probs: Sequence[float], k: int, tau: float
) -> bool:
    """Definition 10: whether the cut's top-k product is below ``tau``."""
    tau = validate_tau(tau)
    return prob_below(cut_probability(cut_probs, k), tau)


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
    pieces, cuts_found, edges_removed, fringe_peeled = cut_rows(
        induced_rows(compiled, range(compiled.n)), k, tau
    )
    nodes = compiled.nodes
    components = [
        graph.induced_subgraph([nodes[i] for i in piece]) for piece in pieces
    ]
    return CutOptimizeResult(
        components, cuts_found, edges_removed, fringe_peeled
    )


def induced_rows(compiled: CompiledGraph, ids: Sequence[int]) -> Rows:
    """Rows of the subgraph the compile ids ``ids`` induce: local id
    ``i`` is ``ids[i]``; each row keeps its in-subset ``(local id, p)``
    entries in insertion order."""
    # A list over every compile id: indexing it beats a dict lookup.
    local: list[int | None] = [None] * compiled.n
    for i, g in enumerate(ids):
        local[g] = i
    rows: Rows = []
    for g in ids:
        nbrs, probs = compiled.row(g)
        rows.append([
            (li, p) for j, p in zip(nbrs, probs)
            if (li := local[j]) is not None
        ])
    return rows


def split_rows(rows: Rows) -> list[list[int]]:
    """Connected parts of ``rows``, each sorted, in order of lowest id."""
    n = len(rows)
    return _split(rows, [0] * n, list(range(n)), count(1))


def cut_rows(
    rows: Rows, k: int, tau: float
) -> tuple[list[list[int]], int, int, int]:
    """The cut optimization over local ``(id, p)`` rows.

    Returns ``(pieces, cuts_found, edges_removed, fringe_nodes_peeled)``;
    the pieces are sorted id lists in order of their lowest id.

    Implementation note: the set of edges incident to one node is itself a
    cut, and testing it is exactly the (Top_k, tau)-core condition — the
    paper's Remark in Section III-C.  Each piece is therefore first
    *fringe-peeled* with the TopKCore rule (near-linear) before the
    maximum-adjacency sweep hunts for genuine multi-node cuts; without
    this, a hub-heavy graph makes the sweep strip one thin fringe per
    O(m log m) pass.  The peel's connected remnants are already stable,
    so they go straight to the sweep; the pieces a sweep cuts off are
    peeled again, since the deleted edges can leave new fringe nodes.
    """
    tau_floor = threshold_floor(tau)
    n = len(rows)
    owner = [0] * n
    marks = count(1)
    conn = [0.0] * n
    in_s = bytearray(n)
    cuts_found = 0
    fringe_peeled = 0

    # (piece, stable): a stable piece is known to survive the fringe peel.
    stack = [
        (piece, False)
        for piece in _split(rows, owner, list(range(n)), marks)
    ]
    finished: list[list[int]] = []
    while stack:
        piece, stable = stack.pop()
        if len(piece) <= 1:
            finished.append(piece)
            continue

        # Stage 1: single-node cuts (TopKCore rule) — cheap fixpoint.
        if not stable:
            mark = owner[piece[0]]
            if _fringe_peel(rows, owner, piece, k, tau_floor):
                core: list[int] = []
                for i in piece:
                    if owner[i] == mark:
                        core.append(i)
                    else:
                        fringe_peeled += 1
                        finished.append([i])
                stack.extend(
                    (part, True)
                    for part in _split(rows, owner, core, marks)
                )
                continue

        # Stage 2: multi-node cuts via the maximum-adjacency sweep.  Which
        # cuts a sweep shows depends on its start, so a sweep from the
        # lowest id that finds none is repeated once from the far end of
        # its absorption order before the piece counts as final.
        segments = _sweep_split(
            rows, owner, conn, in_s, piece, piece[0], k, tau_floor
        )
        if len(segments) == 1:
            segments = _sweep_split(
                rows, owner, conn, in_s, piece, segments[0][-1], k, tau_floor
            )
        if len(segments) == 1:
            finished.append(piece)
            continue
        cuts_found += len(segments) - 1
        # A fresh mark per segment deletes every crossing edge at once;
        # each segment may itself have fallen apart, so re-split it by
        # connectivity and process each part again.
        for segment in segments:
            mark = next(marks)
            for i in segment:
                owner[i] = mark
        for segment in segments:
            stack.extend(
                (part, False) for part in _split(rows, owner, segment, marks)
            )

    finished.sort()  # disjoint sorted lists: in order of lowest id
    # An edge is kept exactly when both ends finish on one live mark.
    kept = 0
    for i, row in enumerate(rows):
        mark = owner[i]
        if mark != _PEELED:
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
    rows: Rows, owner: list[int], piece: list[int], k: int, tau_floor: float
) -> bool:
    """Peel ``piece`` to its (Top_k, tau)-core; return whether any node left.

    Peeled nodes get the :data:`_PEELED` mark.  The survival test is the
    one :func:`repro.core.prune_kernel.topk_peel` runs: the ascending
    top-k slice of each node's live incident probabilities, multiplied
    left to right, against ``threshold_floor(tau)``; a peeled node's
    edges leave its neighbours' sorted lists by bisect-pop.
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
    for i in piece:
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
    while stack:
        u = stack.pop()
        for v, p in rows[u]:
            if owner[v] != mark:
                continue
            vv = vals[v]
            idx = bisect_left(vv, p)
            del vv[idx]
            # Only a change inside the top-k window can flip the test.
            if idx > len(vv) - k and below(vv):
                owner[v] = _PEELED
                stack.append(v)
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
) -> list[list[int]]:
    """One maximum-adjacency sweep over ``piece``, recording *every* low
    boundary.

    Grows ``S`` from ``start``; after each absorption tests
    whether the cut ``(S, piece - S)`` is low-probability and, if so,
    flags the boundary.  Every flagged boundary is a genuine
    low-probability cut of the *current* graph, so Lemma 5 independently
    justifies deleting each one — which lets a single sweep find many cuts
    before any re-sweep, instead of restarting after the first hit.
    Heap ties go to the lowest id.

    ``conn`` (connection weights) and ``in_s`` (membership of ``S``) are
    scratch arrays over all ids, reset here for the piece's members.
    Returns the runs of nodes between consecutive flagged boundaries, in
    absorption order — an edge is deleted exactly when its ends fall in
    different runs.  With no low boundary that is one run, the whole
    absorption order.
    """
    mark = owner[piece[0]]
    for i in piece:
        conn[i] = 0.0
        in_s[i] = 0
    order: list[int] = []
    low: list[bool] = []  # low[i]: the boundary after order[i]
    cut: list[float] = []  # probabilities of the edges leaving S, ascending
    heap: list[tuple[float, int]] = [(0.0, start)]
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
        low.append(_cut_is_low(cut, k, tau_floor))

    segments: list[list[int]] = []
    begin = 0
    for i, is_low in enumerate(low):
        if is_low:
            segments.append(order[begin : i + 1])
            begin = i + 1
    segments.append(order[begin:])
    return segments
