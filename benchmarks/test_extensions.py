"""Benchmarks for the extension layer (beyond the paper's figures).

Measures the extensions against their natural alternatives:

* top-r search vs full enumeration;
* incremental core maintenance vs batch recomputation;
* anchored containment queries vs filtering a full enumeration.
"""

import pytest

from repro.core.enumeration import muce_plus_plus
from repro.core.ktau_core import dp_core_plus
from repro.core.maintenance import KTauCoreMaintainer
from repro.core.queries import cliques_containing
from repro.core.topr import top_r_maximal_cliques

from .conftest import DEFAULT_K, DEFAULT_TAU, dataset, once

DATASET = "wikitalk_like"


def test_extension_top_r(benchmark):
    graph = dataset(DATASET)
    result = once(
        benchmark, top_r_maximal_cliques, graph, 5, DEFAULT_K, DEFAULT_TAU
    )
    benchmark.extra_info.update(
        returned=len(result),
        largest=len(result[0]) if result else 0,
    )


def test_extension_full_enumeration_reference(benchmark):
    graph = dataset(DATASET)
    count = once(
        benchmark,
        lambda: sum(1 for _ in muce_plus_plus(graph, DEFAULT_K, DEFAULT_TAU)),
    )
    benchmark.extra_info.update(cliques=count)


def test_extension_maintenance_incremental(benchmark):
    graph = dataset(DATASET)
    maintainer = KTauCoreMaintainer(graph, DEFAULT_K, DEFAULT_TAU)
    edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    updates = edges[:20]

    def run():
        for u, v, p in updates:
            maintainer.set_probability(u, v, min(1.0, p * 1.2))
        return maintainer.core

    core = once(benchmark, run)
    benchmark.extra_info.update(core_size=len(core))


def test_extension_maintenance_batch_reference(benchmark):
    graph = dataset(DATASET)
    work = graph.copy()
    edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    updates = edges[:20]

    def run():
        core = None
        for u, v, p in updates:
            work.set_probability(u, v, min(1.0, p * 1.2))
            core = dp_core_plus(work, DEFAULT_K, DEFAULT_TAU)
        return core

    core = once(benchmark, run)
    benchmark.extra_info.update(core_size=len(core) if core else 0)


def test_extension_maintenance_agrees_with_batch():
    graph = dataset(DATASET)
    maintainer = KTauCoreMaintainer(graph, DEFAULT_K, DEFAULT_TAU)
    edges = sorted(graph.edges(), key=lambda e: (str(e[0]), str(e[1])))
    for u, v, p in edges[:20]:
        maintainer.set_probability(u, v, min(1.0, p * 1.2))
    assert maintainer.core == frozenset(
        dp_core_plus(maintainer.graph, DEFAULT_K, DEFAULT_TAU)
    )


def test_extension_anchored_query(benchmark):
    graph = dataset(DATASET)
    some_clique = next(muce_plus_plus(graph, DEFAULT_K, DEFAULT_TAU), None)
    if some_clique is None:
        pytest.skip("no cliques at benchmark scale")
    anchor = sorted(some_clique, key=str)[0]
    result = once(
        benchmark,
        lambda: list(
            cliques_containing(graph, anchor, DEFAULT_K, DEFAULT_TAU)
        ),
    )
    benchmark.extra_info.update(memberships=len(result))
