"""The :class:`UncertainGraph` data structure.

An uncertain graph ``G = (V, E, p)`` is an undirected simple graph whose
edges carry independent existence probabilities ``p : E -> (0, 1]``
(Section II of the paper).  The class below is the substrate every algorithm
in :mod:`repro.core` operates on.

Design notes
------------
* Nodes may be any hashable object; the synthetic datasets use ints.
* Storage is a dict-of-dicts adjacency map ``{u: {v: p_uv}}`` — the natural
  fit for the peeling algorithms, which interleave neighbor iteration with
  edge deletion.
* Self loops are rejected: a clique probability only involves edges between
  *distinct* nodes, and every referenced model (k-core, coloring,
  Bron-Kerbosch) assumes simple graphs.
* Mutators keep both endpoints' adjacency entries in sync, so the invariant
  ``v in adj[u] <=> u in adj[v]`` (with equal probability) always holds.
* Every mutator bumps a monotone :attr:`version` counter.  The pipeline
  session layer (:mod:`repro.core.session`) keys its memoized stage
  artifacts on it, and the iterator methods (:meth:`neighbors`,
  :meth:`edges`) use it as a tripwire: mutating the graph while one of
  those iterators is live raises :class:`~repro.errors.GraphMutationError`
  instead of silently traversing stale structure.  ``incident()`` stays an
  unguarded view — it is the hot path of every DP, and its callers follow
  the copy-before-mutate convention enforced by repro-lint RPL004.

Two-level versioning
--------------------
On top of the global :attr:`version` the graph maintains a **per-component
version vector**: every node belongs to exactly one connected component,
each component carries a stable integer id plus a monotone *epoch* (the
global version at its last mutation), and every mutator updates only the
touched component's entry — ``add_edge`` merges two components (new
epoch), ``remove_edge``/``remove_node`` re-label only the affected
component when it splits, ``set_probability`` bumps one epoch in place.
``(component id, epoch)`` pairs are never reused, so the session layer
can key component-scoped memo entries on them: a mutation in one
component leaves every other component's cached artifacts reachable and
warm, while the global version stays the correctness backstop for the
iterator tripwires and cross-process keys.

Each mutation is also appended to a bounded **mutation log**;
:meth:`mutations_since` replays the exact operation sequence between two
versions (or reports the log no longer covers it).  The graph carries
one opaque ``_lowering`` slot, owned by :mod:`repro.core`: the
whole-graph compile every session, free function and core maintainer
over this graph shares, which :func:`repro.core.pipeline.lowering`
patches forward through the log
(:meth:`repro.core.prune_kernel.CompiledGraph.apply_delta`) instead of
re-lowering the whole graph.  Derived graphs (``copy()``,
``induced_subgraph()``) and pickles never carry it: a lowering patched
in place for one graph must not be read by another.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Hashable, Iterable, Iterator, Mapping

from repro.errors import (
    EdgeNotFoundError,
    GraphError,
    GraphMutationError,
    NodeNotFoundError,
)
from repro.utils.validation import validate_probability

Node = Hashable

#: Capacity of the bounded mutation log.  Large enough to cover any
#: realistic burst of updates between two queries, small enough that an
#: unbounded mutation stream cannot grow memory.
_MUTLOG_MAXLEN = 512

__all__ = ["UncertainGraph", "Node"]


class UncertainGraph:
    """An undirected simple graph with an existence probability per edge.

    Example::

        g = UncertainGraph()
        g.add_edge("a", "b", 0.9)
        g.add_edge("b", "c", 0.5)
        g.probability("a", "b")      # 0.9
        sorted(g.neighbors("b"))     # ["a", "c"]
    """

    __slots__ = (
        "_adj",
        "_num_edges",
        "_version",
        "_comp_id",
        "_comp_nodes",
        "_comp_epoch",
        "_next_comp",
        "_mutlog",
        "_lowering",
    )

    def __init__(
        self,
        edges: Iterable[tuple[Node, Node, float]] | None = None,
        nodes: Iterable[Node] | None = None,
    ) -> None:
        """Create a graph, optionally from ``(u, v, p)`` triples.

        ``nodes`` adds isolated nodes in addition to edge endpoints.
        """
        self._adj: dict[Node, dict[Node, float]] = {}
        self._num_edges = 0
        self._version = 0
        # Two-level versioning state: node -> component id, component id ->
        # ordered member set, component id -> epoch (global version at the
        # component's last mutation).  Component ids are never reused.
        self._comp_id: dict[Node, int] = {}
        self._comp_nodes: dict[int, dict[Node, None]] = {}
        self._comp_epoch: dict[int, int] = {}
        self._next_comp = 0
        self._mutlog: deque[tuple[Any, ...]] = deque(maxlen=_MUTLOG_MAXLEN)
        # Opaque to this package; see the module notes.
        self._lowering: object | None = None
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for u, v, p in edges:
                self.add_edge(u, v, p)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """``n = |V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """``m = |E|``."""
        return self._num_edges

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumped by every structural change.

        Two reads returning the same value guarantee the graph was not
        mutated in between, which is what the session cache keys on and
        what the guarded iterators check.  Derived graphs (``copy()``,
        ``induced_subgraph()``) inherit the source's current version, so a
        snapshot can be correlated with the graph it came from.
        """
        return self._version

    # ------------------------------------------------------------------
    # Component version vector
    # ------------------------------------------------------------------

    @property
    def num_components(self) -> int:
        """Number of connected components (isolated nodes count)."""
        return len(self._comp_nodes)

    def component_id(self, node: Node) -> int:
        """Stable id of the connected component containing ``node``.

        Ids are never reused: a merge keeps the larger side's id, a split
        assigns a fresh id to the piece carved off.
        """
        try:
            return self._comp_id[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def component_key(self, node: Node) -> tuple[int, int]:
        """``(component id, epoch)`` for the component containing ``node``.

        The epoch is the global :attr:`version` at the component's last
        mutation, so the pair uniquely identifies one component *state* —
        the session layer keys component-scoped memo entries on it.
        """
        cid = self.component_id(node)
        return (cid, self._comp_epoch[cid])

    def component_keys(self) -> tuple[tuple[int, int], ...]:
        """``(component id, epoch)`` for every component.

        Deterministic order: components appear in creation order (merges
        keep the surviving id's position).  Useful as a cheap snapshot for
        invalidation accounting — comparing two snapshots shows exactly
        which components an update dirtied.
        """
        return tuple(
            (cid, self._comp_epoch[cid]) for cid in self._comp_nodes
        )

    def component_nodes(self, node: Node) -> tuple[Node, ...]:
        """All members of the component containing ``node``.

        Order is deterministic (membership-map order) but not necessarily
        graph insertion order; callers needing the canonical graph order
        filter the graph's own iteration order instead.
        """
        return tuple(self._comp_nodes[self.component_id(node)])

    def mutations_since(self, version: int) -> tuple[tuple[Any, ...], ...] | None:
        """The exact operation sequence between ``version`` and now.

        Returns a tuple of log entries ``(version_after, op, *args)`` — one
        per version bump, oldest first — or ``None`` when the bounded log
        no longer covers the requested range (caller must rebuild from
        scratch).  ``op`` is one of ``"add_node"``, ``"add_edge"``,
        ``"set_probability"``, ``"remove_edge"``, ``"remove_node"``.
        """
        if version > self._version:
            return None
        needed = self._version - version
        if needed == 0:
            return ()
        log = self._mutlog
        if len(log) < needed:
            return None
        ops = list(log)[-needed:]
        if ops[0][0] != version + 1:
            return None
        return tuple(ops)

    def __getstate__(self) -> dict[str, Any]:
        # Pickles and copy.copy / copy.deepcopy start without a lowering.
        state = {name: getattr(self, name) for name in self.__slots__}
        state["_lowering"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(num_nodes={self.num_nodes}, "
            f"num_edges={self.num_edges})"
        )

    def nodes(self) -> list[Node]:
        """All nodes, in insertion order."""
        return list(self._adj)

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Yield each edge exactly once as ``(u, v, p)``.

        The edge is reported from the endpoint that was inserted first.
        Mutating the graph while the iterator is live raises
        :class:`~repro.errors.GraphMutationError`.
        """
        # The version is checked *before* each advance of the underlying
        # dict iterators, so a concurrent mutation surfaces as the typed
        # error rather than dict's own "changed size during iteration".
        expected = self._version
        seen: set[Node] = set()
        outer = iter(self._adj.items())
        while True:
            if self._version != expected:
                raise GraphMutationError(
                    "graph mutated during edges() iteration"
                )
            try:
                u, nbrs = next(outer)
            except StopIteration:
                return
            inner = iter(nbrs.items())
            while True:
                if self._version != expected:
                    raise GraphMutationError(
                        "graph mutated during edges() iteration"
                    )
                try:
                    v, p = next(inner)
                except StopIteration:
                    break
                if v not in seen:
                    yield (u, v, p)
            seen.add(u)

    def has_node(self, node: Node) -> bool:
        """Whether ``node`` is in the graph."""
        return node in self._adj

    def has_edge(self, u: Node, v: Node) -> bool:
        """Whether the undirected edge ``(u, v)`` is in the graph."""
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def probability(self, u: Node, v: Node) -> float:
        """Existence probability of edge ``(u, v)``.

        Raises :class:`EdgeNotFoundError` if the edge is absent.
        """
        try:
            return self._adj[u][v]
        except KeyError:
            raise EdgeNotFoundError(u, v) from None

    def neighbors(self, node: Node) -> Iterator[Node]:
        """Iterate over the neighbors of ``node``.

        The returned iterator is guarded: mutating the graph before it is
        exhausted raises :class:`~repro.errors.GraphMutationError` on the
        next step.  Internal hot loops that need raw speed iterate
        :meth:`incident` instead (same keys, no guard) — they own their
        scratch graphs and never interleave mutation with traversal.
        """
        try:
            nbrs = self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None
        return self._guarded_iter(nbrs)

    def _guarded_iter(self, nbrs: dict[Node, float]) -> Iterator[Node]:
        # Check before advancing the dict iterator: a mutation of this
        # very dict must raise the typed error, not dict's RuntimeError.
        expected = self._version
        it = iter(nbrs)
        while True:
            if self._version != expected:
                raise GraphMutationError(
                    "graph mutated during neighbors() iteration"
                )
            try:
                v = next(it)
            except StopIteration:
                return
            yield v

    def incident(self, node: Node) -> Mapping[Node, float]:
        """Read-only view of ``{neighbor: probability}`` for ``node``.

        This is the hot path for the DP algorithms; callers must not mutate
        the returned mapping.
        """
        try:
            return self._adj[node]
        except KeyError:
            raise NodeNotFoundError(node) from None

    def degree(self, node: Node) -> int:
        """Degree of ``node`` in the deterministic graph ``~G``."""
        try:
            return len(self._adj[node])
        except KeyError:
            raise NodeNotFoundError(node) from None

    def max_degree(self) -> int:
        """``d_max`` of the deterministic graph (0 for an empty graph)."""
        if not self._adj:
            return 0
        return max(len(nbrs) for nbrs in self._adj.values())

    # ------------------------------------------------------------------
    # Mutators
    # ------------------------------------------------------------------

    def _log(self, *entry: Any) -> None:
        """Append ``(version, op, *args)`` to the bounded mutation log."""
        self._mutlog.append((self._version, *entry))

    def _fresh_component(self, members: dict[Node, None]) -> int:
        """Register a new component with a never-before-used id."""
        cid = self._next_comp
        self._next_comp += 1
        for node in members:
            self._comp_id[node] = cid
        self._comp_nodes[cid] = members
        self._comp_epoch[cid] = self._version
        return cid

    def add_node(self, node: Node) -> None:
        """Add an isolated node (no-op if it already exists)."""
        if node not in self._adj:
            self._adj[node] = {}
            self._version += 1
            self._fresh_component({node: None})
            self._log("add_node", node)

    def add_edge(self, u: Node, v: Node, p: float) -> None:
        """Add edge ``(u, v)`` with probability ``p`` in ``(0, 1]``.

        Endpoints are created on demand.  Re-adding an existing edge
        raises :class:`GraphError` — silently overwriting a probability is
        almost always a dataset-generation bug; use :meth:`set_probability`
        to update deliberately.
        """
        if u == v:
            raise GraphError(f"self loops are not allowed (node {u!r})")
        p = validate_probability(p)
        u_nbrs = self._adj.setdefault(u, {})
        if v in u_nbrs:
            raise GraphError(f"edge ({u!r}, {v!r}) already exists")
        v_nbrs = self._adj.setdefault(v, {})
        new_u = u not in self._comp_id
        new_v = v not in self._comp_id
        u_nbrs[v] = p
        v_nbrs[u] = p
        self._num_edges += 1
        self._version += 1
        if new_u and new_v:
            self._fresh_component({u: None, v: None})
        elif new_u or new_v:
            fresh, anchor = (u, v) if new_u else (v, u)
            cid = self._comp_id[anchor]
            self._comp_id[fresh] = cid
            self._comp_nodes[cid][fresh] = None
            self._comp_epoch[cid] = self._version
        else:
            cu = self._comp_id[u]
            cv = self._comp_id[v]
            if cu == cv:
                self._comp_epoch[cu] = self._version
            else:
                # Union by size: the larger component keeps its id (and its
                # warm downstream artifacts keyed on older epochs die only
                # through the epoch bump, never an id change).
                if len(self._comp_nodes[cu]) >= len(self._comp_nodes[cv]):
                    keep, drop = cu, cv
                else:
                    keep, drop = cv, cu
                absorbed = self._comp_nodes.pop(drop)
                del self._comp_epoch[drop]
                keep_nodes = self._comp_nodes[keep]
                for node in absorbed:
                    keep_nodes[node] = None
                    self._comp_id[node] = keep
                self._comp_epoch[keep] = self._version
        self._log("add_edge", u, v, p, new_u, new_v)

    def set_probability(self, u: Node, v: Node, p: float) -> None:
        """Update the probability of an existing edge."""
        p = validate_probability(p)
        if not self.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        old_p = self._adj[u][v]
        self._adj[u][v] = p
        self._adj[v][u] = p
        self._version += 1
        # Reweights never change connectivity: one epoch bump, no re-label.
        self._comp_epoch[self._comp_id[u]] = self._version
        self._log("set_probability", u, v, old_p, p)

    def _split_piece(
        self, u: Node, v: Node
    ) -> dict[Node, None] | None:
        """After deleting edge ``(u, v)``: the piece split off, if any.

        Bidirectional BFS from both endpoints, always expanding the
        smaller frontier; returns ``None`` when the endpoints are still
        connected, else the full member set of whichever side exhausted
        first (deterministic BFS order).
        """
        adj = self._adj
        seen_a: dict[Node, None] = {u: None}
        seen_b: dict[Node, None] = {v: None}
        frontier_a = [u]
        frontier_b = [v]
        while frontier_a and frontier_b:
            if len(frontier_a) <= len(frontier_b):
                frontier, seen, other = frontier_a, seen_a, seen_b
                frontier_a = nxt = []
            else:
                frontier, seen, other = frontier_b, seen_b, seen_a
                frontier_b = nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y in other:
                        return None
                    if y not in seen:
                        seen[y] = None
                        nxt.append(y)
        return seen_a if not frontier_a else seen_b

    def remove_edge(self, u: Node, v: Node) -> float:
        """Remove edge ``(u, v)`` and return its probability."""
        try:
            p = self._adj[u].pop(v)
        except KeyError:
            raise EdgeNotFoundError(u, v) from None
        del self._adj[v][u]
        self._num_edges -= 1
        self._version += 1
        cid = self._comp_id[u]
        piece = self._split_piece(u, v)
        if piece is None:
            self._comp_epoch[cid] = self._version
        else:
            # The component split: the piece that exhausted first gets a
            # fresh id, the remainder keeps ``cid`` with a new epoch.
            members = self._comp_nodes[cid]
            for node in piece:
                del members[node]
            self._comp_epoch[cid] = self._version
            self._fresh_component(piece)
        self._log("remove_edge", u, v, p)
        return p

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and all incident edges."""
        try:
            nbrs = self._adj.pop(node)
        except KeyError:
            raise NodeNotFoundError(node) from None
        for v in nbrs:
            del self._adj[v][node]
        self._num_edges -= len(nbrs)
        self._version += 1
        cid = self._comp_id.pop(node)
        members = self._comp_nodes[cid]
        del members[node]
        if not members:
            del self._comp_nodes[cid]
            del self._comp_epoch[cid]
        elif nbrs:
            # The component may shatter into one piece per surviving
            # neighbor region.  Every remaining member is reachable from
            # some former neighbor (its old path to ``node`` ended at
            # one), so BFS from each neighbor covers all of them.
            pieces: list[dict[Node, None]] = []
            assigned: set[Node] = set()
            for start in nbrs:
                if start in assigned:
                    continue
                piece: dict[Node, None] = {start: None}
                stack = [start]
                while stack:
                    x = stack.pop()
                    for y in self._adj[x]:
                        if y not in piece:
                            piece[y] = None
                            stack.append(y)
                assigned.update(piece)
                pieces.append(piece)
            largest = max(pieces, key=len)
            self._comp_nodes[cid] = largest
            self._comp_epoch[cid] = self._version
            for piece in pieces:
                if piece is largest:
                    continue
                for n in piece:
                    del self._comp_id[n]
                self._fresh_component(piece)
        else:
            # ``node`` was isolated within a multi-node component: cannot
            # happen (isolated nodes are singleton components), but keep
            # the epoch bump as a defensive backstop.
            self._comp_epoch[cid] = self._version
        self._log("remove_node", node)

    def remove_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove several nodes (each must exist)."""
        for node in list(nodes):
            self.remove_node(node)

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------

    def copy(self) -> "UncertainGraph":
        """Deep copy (independent adjacency maps).

        The copy inherits the source's current :attr:`version` and its
        full component map / epoch vector (deep-copied: mutating the clone
        never touches the source's component bookkeeping, so the source
        session's ``(component id, epoch)``-keyed memos stay valid).  The
        mutation log and the lowering start empty — replaying ops across
        graph objects is meaningless, so the copy lowers itself afresh.
        """
        clone = UncertainGraph()
        clone._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        clone._num_edges = self._num_edges
        clone._version = self._version
        clone._comp_id = dict(self._comp_id)
        clone._comp_nodes = {
            cid: dict(members) for cid, members in self._comp_nodes.items()
        }
        clone._comp_epoch = dict(self._comp_epoch)
        clone._next_comp = self._next_comp
        return clone

    def induced_subgraph(self, nodes: Iterable[Node]) -> "UncertainGraph":
        """The uncertain subgraph induced by ``nodes`` (Section II).

        Unknown nodes raise :class:`NodeNotFoundError`.  Node insertion
        order in the subgraph follows the order of ``nodes`` (duplicates
        collapse to their first occurrence) — the session layer passes
        graph-ordered tuples here so a cached survivor set reproduces the
        cold run's component order exactly.  The subgraph inherits the
        source's current :attr:`version`; its component map is rebuilt
        (restriction can split a source component) with fresh ids, each
        piece inheriting the epoch of the source component it came from.
        """
        keep = dict.fromkeys(nodes)
        for node in keep:
            if node not in self._adj:
                raise NodeNotFoundError(node)
        sub = UncertainGraph()
        sub._adj = {
            u: {v: p for v, p in self._adj[u].items() if v in keep}
            for u in keep
        }
        sub._num_edges = sum(len(nbrs) for nbrs in sub._adj.values()) // 2
        sub._version = self._version
        for start in sub._adj:
            if start in sub._comp_id:
                continue
            piece: dict[Node, None] = {start: None}
            frontier = [start]
            while frontier:
                nxt: list[Node] = []
                for x in frontier:
                    for y in sub._adj[x]:
                        if y not in piece:
                            piece[y] = None
                            nxt.append(y)
                frontier = nxt
            cid = sub._fresh_component(piece)
            # _fresh_component stamps the *sub's* version; overwrite with
            # the source component's epoch so the snapshot correlates.
            sub._comp_epoch[cid] = self._comp_epoch[self._comp_id[start]]
        return sub

    def deterministic_edges(self) -> Iterator[tuple[Node, Node]]:
        """Edges of the deterministic graph ``~G`` (probabilities dropped)."""
        for u, v, _ in self.edges():
            yield (u, v)

    # ------------------------------------------------------------------
    # Comparisons
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UncertainGraph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> None:  # type: ignore[override]
        raise TypeError("UncertainGraph is mutable and unhashable")

    def is_subgraph_of(self, other: "UncertainGraph") -> bool:
        """Whether every node and edge (with equal probability) is in ``other``."""
        for u, nbrs in self._adj.items():
            if u not in other._adj:
                return False
            other_nbrs = other._adj[u]
            for v, p in nbrs.items():
                if other_nbrs.get(v) != p:
                    return False
        return True
