"""Engine parity per query kind: the compiled kernel (``engine="pivot"``)
against the paper-following reference (``engine="legacy"``) and brute
force, one property per contract.

* **enumeration** — pivoting reorders emission, so pivot must emit
  exactly the legacy engine's *set* of cliques (each once), which is in
  turn the brute-force set, with identical pre-search counters;
* **maximum** — the compiled MaxUC+ is *bit-identical*: the same maximum
  clique and the same counters, because every float that decides a
  branch comes from the same multiplication sequence in both engines.

:mod:`tests.core.test_conformance` crosses these contracts with the
cold / warm / mutate session modes and the anchored queries.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
from repro import UncertainGraph
from repro.core.bruteforce import brute_force_maximal_cliques
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from tests.core.support import hub_and_triangle, uncertain_graphs

TAUS = (0.01, 0.1, 0.3, 0.6)
ks = st.integers(min_value=0, max_value=4)
taus = st.sampled_from(TAUS)


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, insearch=st.booleans(),
       cut=st.booleans())
def test_enumeration_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # Under every prune / cut / in-search configuration both engines emit
    # exactly the brute-force cliques: the prune stages only remove
    # nodes no maximal (k, tau)-clique contains.
    oracle = brute_force_maximal_cliques(graph, k, tau)
    for engine in ("legacy", "pivot"):
        cliques = list(maximal_cliques(
            graph, k, tau, cut=cut, insearch=insearch,
            engine=engine,  # type: ignore[arg-type]
        ))
        assert len(cliques) == len(set(cliques))
        assert set(cliques) == oracle


@settings(max_examples=40, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus)
def test_enumeration_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every search call, so
    # legacy's sorted-list peel and the kernel's mask peel both run on
    # every recursion level, duplicate probabilities included.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_mod, "_INSEARCH_MIN_CANDIDATES", 0)
        legacy = set(maximal_cliques(graph, k, tau, engine="legacy"))
        pivot = set(maximal_cliques(graph, k, tau, engine="pivot"))
    oracle = brute_force_maximal_cliques(graph, k, tau)
    assert legacy == pivot == oracle


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, insearch=st.booleans())
def test_maximum_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool
) -> None:
    # The branch-and-bound's DFS order decides ties, so the compiled
    # search never pivots: identical result, identical counters.
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


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, insearch=st.booleans(),
       cut=st.booleans())
def test_pivot_engine_set_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # Only the recursion shape (search_calls, prunes) may differ.
    runs = {}
    for engine in ("legacy", "pivot"):
        stats = EnumerationStats()
        cliques = list(maximal_cliques(
            graph, k, tau, cut=cut, insearch=insearch, stats=stats,
            engine=engine,  # type: ignore[arg-type]
        ))
        runs[engine] = cliques, stats
    (legacy, legacy_stats), (pivot, pivot_stats) = runs.values()
    assert len(pivot) == len(set(pivot))  # no duplicate emissions
    assert set(pivot) == set(legacy)
    assert pivot_stats.cliques == legacy_stats.cliques == len(legacy)
    for field in (
        "nodes_after_pruning", "components", "cuts_found",
        "cut_edges_removed",
    ):
        assert getattr(pivot_stats, field) == getattr(legacy_stats, field)


@settings(max_examples=40, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus)
def test_pivot_set_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every pivot recursion
    # node, so leaves must emit before the gate peels an empty
    # candidate set.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_mod, "_INSEARCH_MIN_CANDIDATES", 0)
        legacy = set(maximal_cliques(graph, k, tau, engine="legacy"))
        pivot = list(maximal_cliques(graph, k, tau, engine="pivot"))
    assert len(pivot) == len(set(pivot))
    assert set(pivot) == legacy


@pytest.mark.parametrize("engine", ["legacy", "pivot"])
def test_duplicate_probability_peel_is_engine_independent(
    engine: str,
) -> None:
    cliques = list(maximal_cliques(
        hub_and_triangle(), 2, 0.2, engine=engine,  # type: ignore[arg-type]
    ))
    assert cliques == [frozenset({"t1", "t2", "t3"})]
