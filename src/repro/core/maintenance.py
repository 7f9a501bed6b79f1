"""Incremental (k, tau)-core maintenance under graph updates.

Real uncertain networks evolve: interactions accumulate (weights and
probabilities rise) and edges appear or disappear.  Recomputing the
(k, tau)-core from scratch on each update wastes work when the change is
local.  This module maintains the core incrementally, in the spirit of the
deterministic core-maintenance literature the paper cites ([1]):

* **deletions / probability decreases** are handled exactly: the change
  can only shrink the core, and the shrinkage is the peeling fixpoint
  reachable from the affected endpoints;
* **insertions / probability increases** can only grow the core, and any
  new member must lie in the (deterministic) k-core of the updated graph
  and be connected to the changed edge through it; the affected region is
  re-peeled locally.

Both cascades run as **compiled frontier re-peels** over the graph's
own lowering (:func:`repro.core.pipeline.lowering`, a view over the id
rows the graph keeps in step with each mutation): each update calls
:func:`~repro.core.prune_kernel.survival_peel` with ``members=`` the
previous core (plus the candidate region on growth) and ``frontier=``
the dirty endpoints — the seeded re-peel trusts every untouched member
and visits only the cascade.  In session mode that is the session's
graph, so maintainer updates and queries share one lowering; the
baseline core is one whole-graph peel over that same lowering, so
constructing a maintainer lowers the graph at most once for everyone.
That graph is the caller's too: when it moved since the maintainer's
last update (a direct mutation, or a ``remove_node`` the maintainer has
no update for), the next update first re-peels the whole graph, because
the previous core is no longer one the re-peels may trust.

The maintainer writes nothing into a session.  Queries read only the
state the graph keeps (its lowering, component epochs and walk), so a
session's next ``pruning="ktau"`` query re-peels just the dirty
component, exactly as a ``topk`` query does.

The maintained core always equals ``dp_core_plus(graph, k, tau)`` — the
test suite checks this after randomized update sequences.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Union

from repro.core import pipeline
from repro.core.prune_kernel import CompiledGraph, survival_peel
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import (
    validate_k,
    validate_probability,
    validate_tau,
)

if TYPE_CHECKING:  # pragma: no cover - type-only (session imports us not)
    from repro.core.session import PreparedGraph

__all__ = ["KTauCoreMaintainer"]


class KTauCoreMaintainer:
    """Maintains the (k, tau)-core of a mutable uncertain graph.

    Constructed over a plain :class:`UncertainGraph` the maintainer owns
    a private copy (historical behavior: the caller's graph is never
    touched).  Constructed over a :class:`~repro.core.session.
    PreparedGraph` it operates on the **session's live graph** instead:
    each update mutates that graph (bumping its version and the touched
    component's epoch, which orphans that component's cached artifacts),
    and the session's next query re-peels only that component.  The
    maintainer stores nothing in the session's cache; it shares the
    graph's lowering with it.  The maintainer records the graph version
    each update leaves; an update that finds the graph at another version
    (the caller mutated it directly) first rebuilds the core with one
    whole-graph peel, so :attr:`core` always equals
    ``dp_core_plus(graph, k, tau)`` after an update.

    Apply updates through :meth:`add_edge`, :meth:`remove_edge` and
    :meth:`set_probability`, and read the current core via :attr:`core`.

    Example::

        maintainer = KTauCoreMaintainer(graph, k=3, tau=0.5)
        maintainer.add_edge("a", "b", 0.9)
        maintainer.core          # updated (k, tau)-core node set

        session = PreparedGraph(graph)
        maintainer = KTauCoreMaintainer(session, k=3, tau=0.5)
        maintainer.add_edge("c", "d", 0.8)   # mutates session.graph
    """

    def __init__(
        self,
        source: Union[UncertainGraph, "PreparedGraph"],
        k: int,
        tau: float,
    ) -> None:
        validate_k(k)
        self.k = k
        self.tau = validate_tau(tau)
        if isinstance(source, UncertainGraph):
            self._session = None
            self._graph = source.copy()
        else:
            self._session = source
            self._graph = source.graph
        # The baseline core: one whole-graph peel over the graph's own
        # lowering, as _sync rebuilds it; incremental updates take over
        # from here.
        self._core = survival_peel(self._compiled(), k, tau)
        self._version = self._graph.version

    @property
    def graph(self) -> UncertainGraph:
        """A copy of the maintained graph (mutations don't leak in)."""
        return self._graph.copy()

    @property
    def core(self) -> frozenset[Node]:
        """The current (k, tau)-core."""
        return frozenset(self._core)

    @property
    def session(self) -> "PreparedGraph | None":
        """The attached session, or ``None`` in private-copy mode."""
        return self._session

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def add_edge(self, u: Node, v: Node, p: float) -> frozenset[Node]:
        """Insert an edge and return the updated core."""
        self._sync()
        self._graph.add_edge(u, v, p)
        self._grow(u, v)
        self._version = self._graph.version
        return self.core

    def remove_edge(self, u: Node, v: Node) -> frozenset[Node]:
        """Delete an edge and return the updated core."""
        self._sync()
        self._graph.remove_edge(u, v)
        self._shrink((u, v))
        self._version = self._graph.version
        return self.core

    def set_probability(self, u: Node, v: Node, p: float) -> frozenset[Node]:
        """Change an edge probability and return the updated core."""
        p = validate_probability(p)
        self._sync()
        old = self._graph.probability(u, v)
        self._graph.set_probability(u, v, p)
        if p >= old:
            self._grow(u, v)
        else:
            self._shrink((u, v))
        self._version = self._graph.version
        return self.core

    def add_node(self, node: Node) -> None:
        """Insert an isolated node (never in the core for ``k >= 1``)."""
        self._sync()
        self._graph.add_node(node)
        if self.k == 0:
            self._core.add(node)
        self._version = self._graph.version

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _compiled(self) -> CompiledGraph:
        """The graph's lowering at its *current* version.

        Session mode resolves it through the session, which counts the
        advance or first build in its cache accounting; private mode
        resolves the private copy's own lowering directly.
        """
        if self._session is not None:
            return self._session._compiled_artifact()
        return pipeline.lowering(self._graph)[0]

    def _sync(self) -> None:
        """Rebuild the core with a whole-graph peel if the graph moved
        since the last update: the re-peels trust the previous core,
        which a mutation the maintainer did not see may have broken."""
        if self._graph.version != self._version:
            self._core = survival_peel(self._compiled(), self.k, self.tau)

    def _shrink(self, seed_edge: tuple[Node, Node]) -> None:
        """Deletion/decrease: seeded re-peel from the affected endpoints.

        Only current core members adjacent to the change can fall out,
        and their removal cascades — exactly the compiled frontier
        re-peel with ``members=`` the previous core and ``frontier=`` the
        changed endpoints still in it.  A change with neither endpoint in
        the core cannot touch any member's incident row, so the core is
        already the fixpoint.
        """
        frontier = [u for u in seed_edge if u in self._core]
        if not frontier:
            return
        self._core = set(
            survival_peel(
                self._compiled(), self.k, self.tau,
                members=self._core, frontier=frontier,
            )
        )

    def _grow(self, u: Node, v: Node) -> None:
        """Insertion/increase: seeded re-peel over the affected region.

        New core members must be connected to the changed edge through
        nodes outside the current core (members stay members: their
        tau-degrees only went up, and the frontier re-peel's trusted-
        member contract explicitly admits monotone-up row changes).  We
        collect that candidate region — non-core nodes reachable from
        the endpoints without crossing the existing core — and re-peel
        ``core | region`` with the region as the frontier.
        """
        region: set[Node] = set()
        queue = deque(x for x in (u, v) if x not in self._core)
        region.update(queue)
        while queue:
            x = queue.popleft()
            for w in self._graph.neighbors(x):
                if w not in self._core and w not in region:
                    region.add(w)
                    queue.append(w)
        if not region:
            return
        self._core = set(
            survival_peel(
                self._compiled(), self.k, self.tau,
                members=self._core | region, frontier=region,
            )
        )
