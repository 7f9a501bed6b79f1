"""Property-based tests for IO, statistics and maintenance."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import KTauCoreMaintainer, UncertainGraph, dp_core_plus
from repro.uncertain.io import dumps_edge_list, loads_edge_list
from repro.uncertain.statistics import (
    expected_degree,
    expected_num_edges,
    probability_histogram,
)

probabilities = st.floats(
    min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def uncertain_graphs(draw, max_nodes=8):
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(probabilities))
    return graph


relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@relaxed
@given(uncertain_graphs())
def test_edge_list_round_trip(graph):
    assert loads_edge_list(dumps_edge_list(graph)) == graph


@relaxed
@given(uncertain_graphs())
def test_copy_equals_original(graph):
    clone = graph.copy()
    assert clone == graph
    assert clone.is_subgraph_of(graph)
    assert graph.is_subgraph_of(clone)


@relaxed
@given(uncertain_graphs())
def test_expected_degree_linearity(graph):
    total = sum(expected_degree(graph, u) for u in graph)
    assert math.isclose(total, 2 * expected_num_edges(graph), rel_tol=1e-9)


@relaxed
@given(uncertain_graphs(), st.integers(min_value=1, max_value=20))
def test_histogram_counts_every_edge(graph, bins):
    hist = probability_histogram(graph, bins)
    assert sum(hist) == graph.num_edges
    assert len(hist) == bins


@relaxed
@given(uncertain_graphs(), st.data())
def test_maintainer_matches_batch_after_one_update(graph, data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    tau = data.draw(st.sampled_from([0.1, 0.4, 0.8]))
    maintainer = KTauCoreMaintainer(graph, k, tau)
    nodes = graph.nodes()
    if len(nodes) < 2:
        return
    u = data.draw(st.sampled_from(nodes))
    v = data.draw(st.sampled_from([x for x in nodes if x != u]))
    if graph.has_edge(u, v):
        if data.draw(st.booleans()):
            maintainer.remove_edge(u, v)
        else:
            maintainer.set_probability(u, v, data.draw(probabilities))
    else:
        maintainer.add_edge(u, v, data.draw(probabilities))
    assert maintainer.core == frozenset(
        dp_core_plus(maintainer.graph, k, tau)
    )
