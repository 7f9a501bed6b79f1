"""Property-based parity: the compiled kernel (``engine="pivot"``) against
the paper-following reference (``engine="legacy"``) and brute force.

The contracts differ by query kind:

* **enumeration** — pivoting reorders emission, so pivot must emit
  exactly the legacy engine's *set* of cliques (each once), which is in
  turn the brute-force set, with identical pre-search counters;
* **maximum** — the compiled MaxUC+ promises *bit-identical* behavior:
  the same maximum clique and the same statistics counters.  That holds
  because every float that influences a decision is produced by the
  same multiplication sequence in both engines — so the tests compare
  exact equality, never approximate.

The generated graphs deliberately stress the known hazards:

* duplicate edge probabilities (the legacy in-search peel removes sorted
  values by bisect; the kernel indexes by node id — interchangeable only
  because equal floats multiply identically);
* non-integer node labels mixed with integers (the deterministic node
  order sorts by type name first, so mixed labels exercise the compile
  step's ordering);
* thresholds around knife-edge products (tau values from tiny to large
  against a small probability palette).
"""

from __future__ import annotations

import itertools
from dataclasses import asdict
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
import repro.core.pipeline as pipeline_mod
from repro import UncertainGraph
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.kernel import CompiledComponent
from repro.core.maximum import MaximumSearchStats, max_uc_plus

# A small palette forces many duplicate probabilities in one graph.
PROBABILITY_PALETTE = (0.25, 0.4, 0.4, 0.5, 0.7, 0.7, 0.9, 1.0)
TAUS = (0.01, 0.1, 0.3, 0.6)


def _labels(n: int, mixed: bool) -> list[object]:
    if not mixed:
        return list(range(n))
    # Half ints, half strings: exercises the (type name, str) node order.
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


@st.composite
def uncertain_graphs(draw: st.DrawFn) -> UncertainGraph:
    n = draw(st.integers(min_value=0, max_value=12))
    mixed = draw(st.booleans())
    nodes = _labels(n, mixed)
    graph = UncertainGraph(nodes=nodes)
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            probability = draw(st.sampled_from(PROBABILITY_PALETTE))
            graph.add_edge(u, v, probability)
    return graph


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    cut=st.booleans(),
)
def test_enumeration_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # Both engines, under every prune/cut/in-search configuration, emit
    # exactly the brute-force oracle's cliques (the prune stages only
    # remove nodes no maximal (k, tau)-clique contains).
    oracle = brute_force_maximal_cliques(graph, k, tau)
    for engine in ("legacy", "pivot"):
        cliques = list(
            maximal_cliques(
                graph, k, tau, cut=cut, insearch=insearch,
                engine=engine,  # type: ignore[arg-type]
            )
        )
        assert len(cliques) == len(set(cliques))
        assert set(cliques) == oracle


@settings(max_examples=40, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_enumeration_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every search call, so
    # legacy's sorted-list peel and the kernel's mask peel are both
    # exercised on every recursion level, duplicates included — and
    # neither may cost a clique of the brute-force oracle.
    original = enumeration_mod._INSEARCH_MIN_CANDIDATES
    enumeration_mod._INSEARCH_MIN_CANDIDATES = 0
    try:
        results = {
            engine: list(
                maximal_cliques(
                    graph, k, tau, engine=engine,  # type: ignore[arg-type]
                )
            )
            for engine in ("legacy", "pivot")
        }
    finally:
        enumeration_mod._INSEARCH_MIN_CANDIDATES = original
    oracle = brute_force_maximal_cliques(graph, k, tau)
    assert set(results["legacy"]) == oracle
    assert set(results["pivot"]) == oracle


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
)
def test_maximum_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool
) -> None:
    # The branch-and-bound's DFS-first output depends on branch order,
    # so the compiled search does not pivot: identical result, identical
    # counters, pivot counters pinned to zero.
    results = {}
    stats = {}
    for engine in ("legacy", "pivot"):
        engine_stats = MaximumSearchStats()
        results[engine] = max_uc_plus(
            graph, k, tau, stats=engine_stats, insearch=insearch,
            engine=engine,  # type: ignore[arg-type]
        )
        stats[engine] = asdict(engine_stats)
    assert results["pivot"] == results["legacy"]
    assert stats["pivot"] == stats["legacy"]
    assert stats["pivot"]["pivot_branches"] == 0
    assert stats["pivot"]["pivot_skipped"] == 0


def _k6() -> UncertainGraph:
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(6), 2):
        graph.add_edge(u, v, 0.9)
    return graph


def _two_triangles() -> UncertainGraph:
    # A K4 and a triangle: with the limit squeezed to 3 the K4 takes the
    # legacy fallback while the triangle still runs compiled, so the two
    # paths interleave in component order.
    graph = UncertainGraph()
    for u, v in itertools.combinations(("a", "b", "c", "d"), 2):
        graph.add_edge(u, v, 0.9)
    for u, v in itertools.combinations(("x", "y", "z"), 2):
        graph.add_edge(u, v, 0.8)
    return graph


def test_oversized_component_routes_to_legacy_fallback(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # The search stage must route components above KERNEL_COMPONENT_LIMIT
    # to the legacy recursion — and produce the same cliques either way.
    # The limit is monkeypatched below the component size and the
    # compiled root entry point is wrapped in a tripwire that fails for
    # any component above the patched limit, so the test fails loudly if
    # the dispatch ever stops falling back.
    for graph in (_k6(), _two_triangles()):
        _assert_fallback_parity(graph, monkeypatch)


def _assert_fallback_parity(
    graph: UncertainGraph, monkeypatch: pytest.MonkeyPatch
) -> None:
    legacy_stats = EnumerationStats()
    legacy = list(
        maximal_cliques(graph, 2, 0.3, stats=legacy_stats, engine="legacy")
    )
    assert legacy  # both inputs must produce output at tau=0.3
    pivot = set(maximal_cliques(graph, 2, 0.3, engine="pivot"))

    limit = 3
    original_entry = pipeline_mod.enum_root_prep

    def tripwire(comp: CompiledComponent, *args: Any) -> Any:
        if comp.n > limit:
            raise AssertionError(
                "compiled kernel called for an oversized component"
            )
        return original_entry(comp, *args)

    with monkeypatch.context() as patch:
        patch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", limit)
        patch.setattr(pipeline_mod, "enum_root_prep", tripwire)
        fallback_stats = EnumerationStats()
        fallback = list(
            maximal_cliques(
                graph, 2, 0.3, stats=fallback_stats, engine="pivot"
            )
        )
    assert len(fallback) == len(set(fallback))
    assert set(fallback) == pivot == set(legacy)
    for field in (
        "nodes_after_pruning", "components", "cuts_found",
        "cut_edges_removed", "cliques",
    ):
        assert getattr(fallback_stats, field) == getattr(legacy_stats, field)


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    cut=st.booleans(),
)
def test_pivot_engine_set_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # Pivoting reorders emission, so the contract is set identity: the
    # same cliques (each emitted exactly once) with the same clique
    # count, plus identical pre-search counters — only the recursion
    # shape (search_calls, prunes) may differ.
    oracle_stats = EnumerationStats()
    oracle = list(
        maximal_cliques(
            graph, k, tau, cut=cut, insearch=insearch,
            stats=oracle_stats, engine="legacy",
        )
    )
    pivot_stats = EnumerationStats()
    pivot = list(
        maximal_cliques(
            graph, k, tau, cut=cut, insearch=insearch,
            stats=pivot_stats, engine="pivot",
        )
    )
    assert len(pivot) == len(set(pivot))  # no duplicate emissions
    assert set(pivot) == set(oracle)
    assert pivot_stats.cliques == oracle_stats.cliques == len(oracle)
    for field in (
        "nodes_after_pruning", "components", "cuts_found",
        "cut_edges_removed",
    ):
        assert getattr(pivot_stats, field) == getattr(oracle_stats, field)


@settings(max_examples=40, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_pivot_set_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every pivot recursion
    # node, so the leaf-first ordering (leaves must emit before the
    # gate can peel an empty candidate set) is exercised everywhere.
    original = enumeration_mod._INSEARCH_MIN_CANDIDATES
    enumeration_mod._INSEARCH_MIN_CANDIDATES = 0
    try:
        oracle = set(maximal_cliques(graph, k, tau, engine="legacy"))
        pivot = list(maximal_cliques(graph, k, tau, engine="pivot"))
    finally:
        enumeration_mod._INSEARCH_MIN_CANDIDATES = original
    assert len(pivot) == len(set(pivot))
    assert set(pivot) == oracle


@pytest.mark.parametrize("engine", ["legacy", "pivot"])
def test_duplicate_probability_peel_is_engine_independent(
    engine: str,
) -> None:
    # Every edge shares one probability value: any bisect-by-value
    # removal in the legacy peel hits an arbitrary duplicate, which must
    # not matter.  Star spokes die under the (Top_2, tau)-core, the
    # triangle survives.
    graph = UncertainGraph()
    for spoke in ("s1", "s2", "s3"):
        graph.add_edge("hub", spoke, 0.6)
    graph.add_edge("hub", "t1", 0.6)
    for u, v in itertools.combinations(("t1", "t2", "t3"), 2):
        graph.add_edge(u, v, 0.6)
    cliques = sorted(
        maximal_cliques(graph, 2, 0.2, engine=engine),  # type: ignore[arg-type]
        key=sorted,
    )
    assert cliques == [frozenset({"t1", "t2", "t3"})]

