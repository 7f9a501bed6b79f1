"""Unit tests for the maximum-adjacency sweep, Stoer-Wagner's minimum cut
phase [29], as the cut-based optimization (Section III-C) runs it."""

from repro import UncertainGraph
from repro.core.cut_pruning import _sweep_split, induced_rows
from repro.core.prune_kernel import compile_graph
from repro.utils.validation import threshold_floor


def absorption_order(graph, start=None, k=2, tau=0.5):
    """Nodes of a connected ``graph`` in the order the sweep absorbs them."""
    compiled = compile_graph(graph)
    n = len(compiled.nodes)
    rows = induced_rows(compiled, range(n))
    piece = list(range(n))
    first = piece[0] if start is None else compiled.index[start]
    segments, _ = _sweep_split(
        rows, [0] * n, [0.0] * n, bytearray(n), piece, first, k,
        threshold_floor(tau),
    )
    return [compiled.nodes[i] for segment in segments for i in segment]


class TestMinimumCutPhase:
    def test_yields_all_nodes(self, two_groups):
        order = absorption_order(two_groups)
        assert len(order) == two_groups.num_nodes
        assert set(order) == set(two_groups.nodes())

    def test_first_yield_is_start(self, triangle):
        order = absorption_order(triangle, start="b")
        assert order[0] == "b"

    def test_connection_weights_are_positive_after_start(self, two_groups):
        # In a connected graph every node after the start is absorbed
        # through an edge into the nodes absorbed before it.
        order = absorption_order(two_groups)
        for i, u in enumerate(order[1:], start=1):
            assert any(two_groups.has_edge(u, v) for v in order[:i])

    def test_tightest_node_chosen(self):
        # star + strong pair: after absorbing the center, its strongest
        # neighbor comes next.
        g = UncertainGraph(
            edges=[("c", "y", 0.2), ("c", "z", 0.4), ("c", "x", 0.9)]
        )
        order = absorption_order(g, start="c")
        assert order[1] == "x"
