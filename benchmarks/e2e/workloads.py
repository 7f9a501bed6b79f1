"""The three workloads of the end-to-end benchmark.

A workload turns ``--seed`` into a deterministic plan, builds its graph
through the public dataset API, and runs ops through the public query
API only: ``PreparedGraph.maximal_cliques`` / ``max_uc_plus`` /
``cliques_containing`` and ``KTauCoreMaintainer.set_probability`` /
``add_edge`` / ``remove_edge``, with the default engine and ``jobs=1``.

Ops come in *rounds*.  A read round holds, for every (k, tau) pair, one
enumeration, one maximum and one anchored query, shuffled by the seed,
so every run measures the same mix whatever its length.  The update
stream's rounds are three (update, standing query) pairs.  Each op falls
in a *cell* (``cell``), the ops that repeat the same request: the
harness reports per-cell medians.

Correctness is gated outside every timer, and the gate's heavy work runs
in forked children (``child.in_child``) so that it never counts toward
the measured process's peak memory.  Read workloads compare each answer
with a digest of a reference computed before measuring by a fresh
``PreparedGraph`` on ``graph.copy()``; ``verify_maximal_cliques`` checks
a fixed sample of each reference.  Their references depend on no seed,
so the first run in a checkout computes them and later runs of the same
code reuse them (``child.cached_in_child``).  The update stream compares
with a fresh session every ``CHECKPOINT_EVERY`` updates and after the
last one, when it also checks the maintained core against
``dp_core_plus``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Iterable, Iterator, Sequence

from repro import (
    EnumerationStats,
    KTauCoreMaintainer,
    MaximumSearchStats,
    PreparedGraph,
    UncertainGraph,
    dp_core_plus,
    is_k_tau_clique,
    verify_maximal_cliques,
)
from repro.datasets import (
    ExponentialWeightModel,
    collaboration_network,
    load_dataset,
)

from benchmarks.e2e.child import cached_in_child, in_child

__all__ = [
    "GateError",
    "Op",
    "ReadWorkload",
    "UpdateStream",
    "WORKLOADS",
    "workload",
]

#: The (k, tau) grid of the dblp_like workloads, as specified for this
#: benchmark: k in {4, 5, 6, 8} x tau in {0.05, 0.1, 0.2, 0.25}.
GRID: tuple[tuple[int, float], ...] = tuple(
    (k, tau) for k in (4, 5, 6, 8) for tau in (0.05, 0.1, 0.2, 0.25)
)

#: Largest reference sample handed to ``verify_maximal_cliques``, whose
#: pairwise containment check is quadratic.
VERIFY_SAMPLE = 200

#: Anchors come from the ``ANCHOR_POOL`` highest-degree nodes that lie in
#: some reference clique.  (Of the 200 highest-degree nodes overall only
#: 13-17 lie in a clique on dblp_like, so anchoring on them would time
#: the dead-anchor path almost only.)
ANCHOR_POOL = 200

#: A digest keeps 64 bits of its summed clique hashes.
_MASK = (1 << 64) - 1


class GateError(RuntimeError):
    """The correctness gate could not establish a reference."""


@dataclass(frozen=True)
class Op:
    """One client request.

    ``kind`` is ``"enum"``, ``"max"``, ``"anchored"`` (on ``node``) or
    ``"update"`` (``update`` names a maintainer method and its args).
    """

    kind: str
    k: int
    tau: float
    node: Any = None
    update: tuple[Any, ...] = ()


# ----------------------------------------------------------------------
# The gate
# ----------------------------------------------------------------------

def digest(cliques: Iterable[frozenset[Any]]) -> tuple[int, int]:
    """``(count, order-free hash)`` of a clique collection.

    The gate keeps digests instead of cliques.  A missing, extra,
    repeated or wrong clique changes the digest.  Each clique hashes the
    ``repr`` of its sorted members, not Python's ``hash``, which differs
    between interpreter runs for strings: a digest computed in one run
    checks answers in the next.
    """
    count = total = 0
    for clique in cliques:
        count += 1
        key = repr(sorted(map(repr, clique))).encode()
        total += int.from_bytes(
            hashlib.blake2b(key, digest_size=8).digest(), "little"
        )
    return count, total & _MASK


@dataclass(frozen=True)
class Expected:
    """What the gate checks answers against at one (k, tau)."""

    enum: tuple[int, int]
    max_size: int
    anchored: dict[Any, tuple[int, int]] = field(default_factory=dict)


def reference(
    graph: UncertainGraph, k: int, tau: float, rng: random.Random
) -> list[frozenset[Any]]:
    """Enumerate on a fresh session over a copy and verify a sample."""
    cliques = list(PreparedGraph(graph.copy()).maximal_cliques(k, tau))
    if len(set(cliques)) != len(cliques):
        raise GateError(f"reference at ({k}, {tau}) repeats a clique")
    ordered = sorted(cliques, key=lambda c: sorted(map(str, c)))
    sample = rng.sample(ordered, min(VERIFY_SAMPLE, len(ordered)))
    report = verify_maximal_cliques(graph, sample, k, tau)
    if not report.ok:
        raise GateError(f"reference at ({k}, {tau}): {report.summary()}")
    return cliques


def expect(
    cliques: Sequence[frozenset[Any]], anchors: Iterable[Any]
) -> Expected:
    """The digests of ``cliques`` and of their share through each anchor."""
    return Expected(
        enum=digest(cliques),
        max_size=max((len(c) for c in cliques), default=0),
        anchored={a: digest(c for c in cliques if a in c) for a in anchors},
    )


def check_answer(
    graph: UncertainGraph, op: Op, result: Any, expected: Expected
) -> bool:
    """Whether ``result`` is the right answer to ``op``."""
    if op.kind == "enum":
        return digest(result) == expected.enum
    if op.kind == "max":
        if result is None:
            return expected.max_size == 0
        return len(result) == expected.max_size and is_k_tau_clique(
            graph, result, op.k, op.tau
        )
    return digest(result) == expected.anchored[op.node]


def new_stats(kind: str) -> EnumerationStats | MaximumSearchStats | None:
    """A fresh stats object for ``kind``'s ``stats=`` argument, if any."""
    if kind == "enum":
        return EnumerationStats()
    if kind == "max":
        return MaximumSearchStats()
    return None


def run_query(session: PreparedGraph, op: Op, stats: Any = None) -> Any:
    """One read op through the public session API, fully consumed."""
    if op.kind == "enum":
        return list(session.maximal_cliques(op.k, op.tau, stats=stats))
    if op.kind == "max":
        return session.max_uc_plus(op.k, op.tau, stats=stats)
    return list(session.cliques_containing(op.node, op.k, op.tau))


# ----------------------------------------------------------------------
# Read workloads
# ----------------------------------------------------------------------

def pick_anchors(
    graph: UncertainGraph, cliques: Sequence[frozenset[Any]], count: int
) -> tuple[Any, ...]:
    """``count`` anchors spread evenly over the pool's degree ranks."""
    members = {u for c in cliques for u in c}
    pool = sorted(members, key=lambda u: (-graph.degree(u), str(u)))
    pool = pool[:ANCHOR_POOL]
    count = min(count, len(pool))
    return tuple(
        pool[(2 * i + 1) * len(pool) // (2 * count)] for i in range(count)
    )


@dataclass
class ReadPlan:
    pairs: tuple[tuple[int, float], ...]
    expected: dict[tuple[int, float], Expected]
    anchors: dict[tuple[int, float], tuple[Any, ...]]
    seed: int

    def rounds(self) -> Iterator[list[Op]]:
        """Endless rounds, each in a seeded order; a fresh call replays
        the same sequence.  Pair ``i`` of round ``r`` is anchored on its
        anchor ``(r + i) % count``, so every round uses each anchor rank
        equally often."""
        rng = random.Random(f"{self.seed}:rounds")
        for r in itertools.count():
            ops = []
            for i, pair in enumerate(self.pairs):
                anchors = self.anchors[pair]
                ops += [Op("enum", *pair), Op("max", *pair)]
                if anchors:
                    node = anchors[(r + i) % len(anchors)]
                    ops.append(Op("anchored", *pair, node=node))
            rng.shuffle(ops)
            yield ops


@dataclass
class ReadState:
    graph: UncertainGraph
    session: PreparedGraph | None
    #: cold mode: the op's own session, dropped outside the timer
    last: PreparedGraph | None = None
    cache: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class ReadWorkload:
    """Enumeration, maximum and anchored queries over one registry graph.

    ``warm`` runs every op in one session warmed over the plan's working
    set; otherwise every op builds a fresh ``PreparedGraph``, as the free
    functions and ``repro-experiments query`` do.  Each round queries
    every pair once of each kind; the anchored queries cycle through
    ``anchors`` anchors per pair.  The seed orders the ops, but never
    picks them, so every seed measures the same mix.
    """

    name: str
    why: str
    dataset: str
    scale: float
    pairs: tuple[tuple[int, float], ...]
    warm: bool
    anchors: int

    def build(self, seed: int) -> UncertainGraph:
        # Registry graphs keep their registry seed: run length stays fixed.
        return load_dataset(self.dataset, scale=self.scale)

    def prepare(
        self, seed: int, seconds: float, gate_dir: Path | None = None
    ) -> ReadPlan:
        """The plan: the gate's expected answers and each pair's anchors,
        kept in ``gate_dir`` for later runs (see ``child``)."""
        key = repr((self.dataset, self.scale, self.pairs, self.anchors))
        expected, anchors = cached_in_child(gate_dir, key, self._gate)
        return ReadPlan(self.pairs, expected, anchors, seed)

    def _gate(self) -> tuple[dict[Any, Expected], dict[Any, tuple[Any, ...]]]:
        """Expected answers and anchors, from a graph of its own."""
        graph = self.build(0)
        expected, anchors = {}, {}
        for pair in self.pairs:
            cliques = reference(graph, *pair, random.Random(repr(pair)))
            anchors[pair] = pick_anchors(graph, cliques, self.anchors)
            expected[pair] = expect(cliques, anchors[pair])
        return expected, anchors

    def start(self, graph: UncertainGraph, plan: ReadPlan) -> ReadState:
        """Set-up after the graph build: the session and its warming pass."""
        if not self.warm:
            return ReadState(graph, None)
        session = PreparedGraph(graph)
        for pair in plan.pairs:
            run_query(session, Op("enum", *pair))
            run_query(session, Op("max", *pair))
            for node in plan.anchors[pair]:
                run_query(session, Op("anchored", *pair, node=node))
        return ReadState(graph, session)

    def execute(self, state: ReadState, op: Op, stats: Any = None) -> Any:
        session = state.session
        if session is None:
            session = state.last = PreparedGraph(state.graph)
        return run_query(session, op, stats)

    def cell(self, op: Op) -> Hashable:
        """Ops that repeat one request: same kind, pair and anchor."""
        return op.kind, op.k, op.tau, op.node

    def check(
        self, state: ReadState, plan: ReadPlan, op: Op, result: Any
    ) -> bool:
        return check_answer(
            state.graph, op, result, plan.expected[(op.k, op.tau)]
        )

    def after_op(self, state: ReadState) -> None:
        """Fold a cold op's session accounting in, then drop the session."""
        if state.last is not None:
            for key, value in state.last.cache_info().items():
                state.cache[key] = state.cache.get(key, 0) + value
            state.last = None

    def finish(self, state: ReadState, plan: ReadPlan) -> bool:
        return True

    def cache_info(self, state: ReadState) -> dict[str, float]:
        """Cumulative session accounting (summed over cold sessions)."""
        if state.session is not None:
            return dict(state.session.cache_info())
        return dict(state.cache)


# ----------------------------------------------------------------------
# The update stream
# ----------------------------------------------------------------------

#: The maintainer's and the standing queries' parameters.
UPDATE_K, UPDATE_TAU = 4, 0.2
#: Shares of reweights and inserts; the rest are deletes.
UPDATE_MIX = (0.6, 0.2)
#: The standing query after every this-many updates is checked exactly.
CHECKPOINT_EVERY = 25
#: One standing query of each kind per round, in this order.
STANDING = ("enum", "max", "anchored")
#: Updates planned per measured second: about seven times what the
#: program applies now, so a run ends on time, not on an empty stream.
UPDATES_PER_SECOND = 200
#: New probabilities come from the datasets' weight model, w in 1..12.
_WEIGHT = ExponentialWeightModel()


@dataclass
class UpdatePlan:
    seed: int
    #: ``(method, u, v[, p])`` maintainer calls, in stream order
    updates: tuple[tuple[Any, ...], ...]
    #: a node of the first component, anchoring a final check that
    #: follows no update
    first_node: Any

    def rounds(self) -> Iterator[list[Op]]:
        """Rounds of three (update, standing query) pairs until the
        planned updates run out.  The anchored standing query is on the
        first endpoint of the update before it."""
        per_round = len(STANDING)
        for start in range(0, len(self.updates) - per_round + 1, per_round):
            ops = []
            for kind, update in zip(
                STANDING, self.updates[start:start + per_round]
            ):
                ops.append(Op("update", UPDATE_K, UPDATE_TAU, update=update))
                node = update[1] if kind == "anchored" else None
                ops.append(Op(kind, UPDATE_K, UPDATE_TAU, node=node))
            yield ops


def simulate_updates(
    components: Sequence[Sequence[Any]],
    edges: Sequence[Sequence[tuple[Any, Any]]],
    rng: random.Random,
    count: int,
) -> list[tuple[Any, ...]]:
    """``count`` seeded updates, each inside one component.

    The stream keeps its own copy of the edge sets, so every reweight and
    delete names an existing edge and every insert a non-edge.
    """
    edge_lists = [list(es) for es in edges]
    index = [{e: i for i, e in enumerate(es)} for es in edge_lists]
    reweight_share, insert_share = UPDATE_MIX
    updates = []
    for _ in range(count):
        c = rng.randrange(len(edge_lists))
        es = edge_lists[c]
        roll = rng.random()
        if roll < reweight_share and es:
            u, v = es[rng.randrange(len(es))]
            updates.append(("set_probability", u, v, _probability(rng)))
        elif roll < reweight_share + insert_share or not es:
            u, v = _non_edge(rng, components[c], index[c])
            index[c][(u, v)] = len(es)
            es.append((u, v))
            updates.append(("add_edge", u, v, _probability(rng)))
        else:
            at = rng.randrange(len(es))
            u, v = es[at]
            last = es.pop()
            del index[c][(u, v)]
            if at < len(es):
                es[at] = last
                index[c][last] = at
            updates.append(("remove_edge", u, v))
    return updates


def _probability(rng: random.Random) -> float:
    return _WEIGHT(rng.randint(1, 12))


def _non_edge(
    rng: random.Random, nodes: Sequence[Any], index: dict[Any, int]
) -> tuple[Any, Any]:
    while True:
        u, v = sorted(rng.sample(nodes, 2))
        if (u, v) not in index:
            return u, v


@dataclass
class UpdateState:
    graph: UncertainGraph
    session: PreparedGraph
    maintainer: KTauCoreMaintainer
    seed: int
    #: an endpoint of the latest update, anchoring the final check
    last_node: Any
    updates: int = 0


def _checkpoint(
    graph: UncertainGraph, op: Op, result: Any, seed: str
) -> bool:
    """The exact check of one standing query (in a forked child)."""
    cliques = reference(graph, op.k, op.tau, random.Random(seed))
    anchors = [op.node] if op.kind == "anchored" else []
    return check_answer(graph, op, result, expect(cliques, anchors))


def _final_check(state: UpdateState) -> bool:
    """After the last update (in a forked child): all three query kinds
    against a fresh session, and the maintained core against a
    from-scratch peel (too slow to run at every checkpoint)."""
    graph = state.graph
    cliques = reference(graph, UPDATE_K, UPDATE_TAU,
                        random.Random(f"{state.seed}:final"))
    expected = expect(cliques, [state.last_node])
    answers_ok = all(
        check_answer(graph, op, run_query(state.session, op), expected)
        for op in (
            Op("enum", UPDATE_K, UPDATE_TAU),
            Op("max", UPDATE_K, UPDATE_TAU),
            Op("anchored", UPDATE_K, UPDATE_TAU, node=state.last_node),
        )
    )
    core = dp_core_plus(graph.copy(), UPDATE_K, UPDATE_TAU)
    return answers_ok and state.maintainer.core == frozenset(core)


@dataclass(frozen=True)
class UpdateStream:
    """Maintainer updates, each followed by one standing query, over a
    union of disjoint collaboration networks labelled ``"i:u"``."""

    name: str
    why: str
    n_components: int
    n_authors: int
    hot_teams: int
    casual_teams: int

    def build(self, seed: int) -> UncertainGraph:
        # Fixed component seeds, like the registry graphs: the clique
        # count, and with it the enum cost, varies 4x across seeds.
        graph = UncertainGraph()
        for i in range(self.n_components):
            part = collaboration_network(
                n_authors=self.n_authors,
                hot_teams=self.hot_teams,
                casual_teams=self.casual_teams,
                seed=1000 + i,
            )
            for u in part:
                graph.add_node(f"{i}:{u}")
            for u, v, p in part.edges():
                graph.add_edge(f"{i}:{u}", f"{i}:{v}", p)
        return graph

    def prepare(
        self, seed: int, seconds: float, gate_dir: Path | None = None
    ) -> UpdatePlan:
        """The seeded update stream, simulated in a forked child (see
        ``child``).  It depends on the seed, so no run reuses another's."""
        return in_child(self._simulate, seed, seconds)

    def _simulate(self, seed: int, seconds: float) -> UpdatePlan:
        graph = self.build(seed)
        groups: dict[str, list[Any]] = {}
        for u in graph:
            groups.setdefault(u.split(":", 1)[0], []).append(u)
        edge_groups: dict[str, list[tuple[Any, Any]]] = {g: [] for g in groups}
        for u, v, _ in graph.edges():
            edge_groups[u.split(":", 1)[0]].append((min(u, v), max(u, v)))
        order = sorted(groups, key=int)
        components = [sorted(groups[g]) for g in order]
        updates = simulate_updates(
            components,
            [sorted(edge_groups[g]) for g in order],
            random.Random(f"{seed}:updates"),
            int(UPDATES_PER_SECOND * seconds) + len(STANDING),
        )
        return UpdatePlan(seed, tuple(updates), components[0][0])

    def start(self, graph: UncertainGraph, plan: UpdatePlan) -> UpdateState:
        session = PreparedGraph(graph)
        maintainer = KTauCoreMaintainer(session, UPDATE_K, UPDATE_TAU)
        run_query(session, Op("enum", UPDATE_K, UPDATE_TAU))
        run_query(session, Op("max", UPDATE_K, UPDATE_TAU))
        return UpdateState(graph, session, maintainer, plan.seed,
                           plan.first_node)

    def execute(self, state: UpdateState, op: Op, stats: Any = None) -> Any:
        if op.kind == "update":
            method, *args = op.update
            return getattr(state.maintainer, method)(*args)
        return run_query(state.session, op, stats)

    def cell(self, op: Op) -> Hashable:
        """Standing queries of one kind, or updates of one method: every
        op touches another part of the graph, so none repeats exactly."""
        return op.kind, op.update[0] if op.update else None

    def check(
        self, state: UpdateState, plan: UpdatePlan, op: Op, result: Any
    ) -> bool:
        graph = state.graph
        if op.kind == "update":
            state.updates += 1
            state.last_node = op.update[1]
            return True
        if state.updates % CHECKPOINT_EVERY == 0:
            return bool(in_child(_checkpoint, graph, op, result,
                                 f"{state.seed}:{state.updates}"))
        # Between checkpoints: every reported clique must at least be one.
        if op.kind == "max":
            return result is not None and is_k_tau_clique(
                graph, result, op.k, op.tau
            )
        if op.kind == "anchored":
            return all(
                op.node in c and is_k_tau_clique(graph, c, op.k, op.tau)
                for c in result
            )
        return True

    def after_op(self, state: UpdateState) -> None:
        pass

    def finish(self, state: UpdateState, plan: UpdatePlan) -> bool:
        return bool(in_child(_final_check, state))

    def cache_info(self, state: UpdateState) -> dict[str, float]:
        return dict(state.session.cache_info())


# ----------------------------------------------------------------------
# The workload table
# ----------------------------------------------------------------------

Workload = ReadWorkload | UpdateStream

_WHY = {
    "cold-oneshot": "fresh session per op on dblp_like: compile, cut and "
                    "prune set the time; a cold-compile change shows here",
    "warm-session": "one warmed session on dblp_like: compile, prune and cut "
                    "never run, search dominates; a compile or prune change "
                    "must not move it",
    "update-stream": "maintainer updates interleaved with standing queries "
                     "over 16 components: delta compile, re-peel and scoped "
                     "invalidation, working set beyond the LRU",
}


def _workloads(smoke: bool) -> dict[str, Workload]:
    """The workload table; ``smoke`` shrinks every graph for tests."""
    dblp_scale = 0.1 if smoke else 1.0
    return {
        "cold-oneshot": ReadWorkload(
            "cold-oneshot", _WHY["cold-oneshot"], "dblp_like", dblp_scale,
            GRID, warm=False, anchors=4,
        ),
        "warm-session": ReadWorkload(
            "warm-session", _WHY["warm-session"], "dblp_like", dblp_scale,
            GRID, warm=True, anchors=4,
        ),
        "update-stream": UpdateStream(
            "update-stream", _WHY["update-stream"],
            n_components=4 if smoke else 16,
            n_authors=120 if smoke else 600,
            hot_teams=2 if smoke else 4,
            casual_teams=300 if smoke else 1800,
        ),
    }


WORKLOADS: tuple[str, ...] = tuple(_workloads(False))


def workload(name: str, smoke: bool = False) -> Workload:
    """The named workload (``smoke``: tiny graphs, same code paths)."""
    return _workloads(smoke)[name]
