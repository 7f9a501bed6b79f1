"""Unit tests for the stats objects' counters and phase timings.

The pivot counters must be recorded by the enumeration, and the
wall-clock laps must never participate in equality or ``asdict`` (the
parity suites compare stats that way).
"""

from __future__ import annotations

from dataclasses import asdict

from repro import UncertainGraph
from repro.core.enumeration import EnumerationStats, muce_plus_plus
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from tests.core.oracles import mule_maximal_cliques


def test_pivot_counters_recorded_by_the_default_engine() -> None:
    # A dense component must record at least one absorbed (skipped)
    # candidate, and every root is either branched or skipped; the
    # clique counter counts the oracle's cliques.
    graph = _triangle_graph()
    stats = EnumerationStats()
    cliques = list(muce_plus_plus(graph, 1, 0.5, stats=stats))
    assert stats.pivot_branches > 0
    assert stats.pivot_skipped > 0
    assert set(cliques) == mule_maximal_cliques(graph, 1, 0.5)
    assert stats.cliques == len(cliques)


def test_timings_are_not_part_of_equality_or_asdict() -> None:
    # The parity suite and the bench identical_output check compare stats
    # via == / asdict; nondeterministic wall clocks must stay invisible.
    a = EnumerationStats(search_calls=1)
    b = EnumerationStats(search_calls=1)
    a.timings.add("search", 123.0)
    assert a == b
    assert "timings" not in asdict(a)
    m1 = MaximumSearchStats()
    m2 = MaximumSearchStats()
    m1.timings.add("compile", 9.0)
    assert m1 == m2
    assert "timings" not in asdict(m1)


def _triangle_graph() -> UncertainGraph:
    graph = UncertainGraph()
    graph.add_edge("a", "b", 0.9)
    graph.add_edge("b", "c", 0.9)
    graph.add_edge("a", "c", 0.9)
    graph.add_edge("c", "d", 0.8)
    graph.add_edge("d", "e", 0.8)
    graph.add_edge("c", "e", 0.8)
    return graph


def test_enumeration_records_phase_timings() -> None:
    stats = EnumerationStats()
    list(muce_plus_plus(_triangle_graph(), 2, 0.5, stats=stats))
    for phase in ("prune", "cut", "compile", "search"):
        assert phase in stats.timings.laps, phase
        assert stats.timings.seconds(phase) >= 0.0


def test_maximum_records_phase_timings() -> None:
    stats = MaximumSearchStats()
    max_uc_plus(_triangle_graph(), 2, 0.5, stats=stats)
    for phase in ("prune", "cut", "compile", "search"):
        assert phase in stats.timings.laps, phase
        assert stats.timings.seconds(phase) >= 0.0
