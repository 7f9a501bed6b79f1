"""Ordering contract for runs that mix the compiled kernel and the legacy
fallback.

The module name is historical: the suite once compared a process-parallel
path against the sequential one.  What remains is the part of that
contract that still applies to the single sequential path — when some
components exceed ``KERNEL_COMPONENT_LIMIT`` and take the legacy
recursion while others run compiled, the output must keep the component
order, the cliques and the stats counters of an all-compiled run.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import repro.core.enumeration as enumeration_mod
from repro import UncertainGraph
from repro.core.enumeration import EnumerationStats, maximal_cliques


def _two_triangles() -> UncertainGraph:
    # A K4 and a triangle: with the limit squeezed to 3 the K4 takes the
    # legacy fallback while the triangle still runs compiled.
    graph = UncertainGraph()
    for u, v in itertools.combinations(("a", "b", "c", "d"), 2):
        graph.add_edge(u, v, 0.9)
    for u, v in itertools.combinations(("x", "y", "z"), 2):
        graph.add_edge(u, v, 0.8)
    return graph


def test_oversized_components_fall_back_and_interleave_in_order() -> None:
    # With the kernel limit squeezed below one component's size, that
    # component runs through the legacy recursion while the other stays
    # compiled — and the output must keep the all-compiled component order.
    # Bit-identity (order and counters) is checked on the order-identical
    # bitset engine; the pivot engine's fallback reorders branches and
    # counts differently, so for it the contract is the clique set, the
    # component order, and run-to-run determinism of the mixed path.
    graph = _two_triangles()
    original = enumeration_mod.KERNEL_COMPONENT_LIMIT
    try:
        sequential_stats = EnumerationStats()
        sequential = list(
            maximal_cliques(
                graph, 2, 0.3, stats=sequential_stats, engine="bitset"
            )
        )
        enumeration_mod.KERNEL_COMPONENT_LIMIT = 3
        mixed_stats = EnumerationStats()
        mixed = list(
            maximal_cliques(
                graph, 2, 0.3, stats=mixed_stats, engine="bitset"
            )
        )
        pivot_first_stats = EnumerationStats()
        pivot_first = list(
            maximal_cliques(graph, 2, 0.3, stats=pivot_first_stats)
        )
        pivot_again_stats = EnumerationStats()
        pivot_again = list(
            maximal_cliques(graph, 2, 0.3, stats=pivot_again_stats)
        )
    finally:
        enumeration_mod.KERNEL_COMPONENT_LIMIT = original
    assert sequential == [
        frozenset({"a", "b", "c", "d"}),
        frozenset({"x", "y", "z"}),
    ]
    assert mixed == sequential
    assert asdict(mixed_stats) == asdict(sequential_stats)
    assert pivot_first == sequential
    assert pivot_again == pivot_first
    assert asdict(pivot_again_stats) == asdict(pivot_first_stats)
