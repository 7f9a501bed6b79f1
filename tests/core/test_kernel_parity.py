"""Search parity per query kind: the compiled kernel against the
independent oracles — brute force over every node subset and the
MULE-style search of :mod:`tests.core.oracles` — one property per
contract.

* **enumeration** — pivoting reorders emission, so the kernel must emit
  exactly the oracles' *set* of cliques, each once, whatever the prune,
  cut and in-search configuration, and the clique counter must count
  them;
* **maximum** — the compiled MaxUC+ returns the canonical maximum of
  the oracle's cliques, never pivots, and repeats its counters.

:mod:`tests.core.test_conformance` crosses these contracts with the
cold / warm / mutate session modes and the anchored queries.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
from repro import UncertainGraph
from repro.core.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
)
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from tests.core.oracles import mule_maximal_cliques
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
    # Under every prune / cut / in-search configuration the kernel and
    # both oracles emit the same cliques: the prune stages only remove
    # nodes no maximal (k, tau)-clique contains.
    oracle = brute_force_maximal_cliques(graph, k, tau)
    assert mule_maximal_cliques(graph, k, tau) == oracle
    for pruning in ("topk", "ktau", "none"):
        cliques = list(maximal_cliques(
            graph, k, tau, pruning=pruning, cut=cut, insearch=insearch,
        ))
        assert len(cliques) == len(set(cliques))
        assert set(cliques) == oracle


@settings(max_examples=40, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus)
def test_enumeration_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search mask peel runs at every search call,
    # on every recursion level, duplicate probabilities included.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_mod, "_INSEARCH_MIN_CANDIDATES", 0)
        pivot = set(maximal_cliques(graph, k, tau))
    assert pivot == brute_force_maximal_cliques(graph, k, tau)


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, insearch=st.booleans())
def test_maximum_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool
) -> None:
    # The kernel returns the oracle's canonical maximum; the
    # branch-and-bound's DFS order decides ties, so it never pivots, and
    # a repeat on a fresh copy reproduces every counter.
    runs = []
    for _ in range(2):
        stats = MaximumSearchStats()
        best = max_uc_plus(graph.copy(), k, tau, stats=stats, insearch=insearch)
        runs.append((best, asdict(stats)))
    assert runs[0] == runs[1]
    best, stats = runs[0]
    assert best == brute_force_maximum_clique(graph, k, tau)
    assert stats["pivot_branches"] == 0
    assert stats["pivot_skipped"] == 0


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), k=ks, tau=taus, insearch=st.booleans(),
       cut=st.booleans())
def test_pivot_engine_set_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # The clique counter counts the emitted set, each clique once.
    stats = EnumerationStats()
    cliques = list(maximal_cliques(
        graph, k, tau, cut=cut, insearch=insearch, stats=stats,
    ))
    assert len(cliques) == len(set(cliques))  # no duplicate emissions
    assert set(cliques) == mule_maximal_cliques(graph, k, tau)
    assert stats.cliques == len(cliques)


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
        pivot = list(maximal_cliques(graph, k, tau))
    assert len(pivot) == len(set(pivot))
    assert set(pivot) == mule_maximal_cliques(graph, k, tau)


def test_duplicate_probability_peel_matches_the_oracle() -> None:
    graph = hub_and_triangle()
    cliques = list(maximal_cliques(graph, 2, 0.2))
    assert cliques == [frozenset({"t1", "t2", "t3"})]
    assert set(cliques) == mule_maximal_cliques(graph, 2, 0.2)
