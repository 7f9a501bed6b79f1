"""Unit tests for uncertain-graph statistics."""

import pytest

from repro import UncertainGraph
from repro.errors import ParameterError
from repro.uncertain.statistics import (
    expected_degree,
    expected_num_edges,
    probability_histogram,
    summarize,
)


class TestExpectedValues:
    def test_expected_degree(self, triangle):
        assert expected_degree(triangle, "a") == pytest.approx(1.4)

    def test_expected_num_edges(self, triangle):
        assert expected_num_edges(triangle) == pytest.approx(2.2)

    def test_empty_graph(self):
        assert expected_num_edges(UncertainGraph()) == 0.0


class TestHistogram:
    def test_buckets(self):
        g = UncertainGraph(
            edges=[(0, 1, 0.05), (1, 2, 0.55), (2, 3, 0.95), (3, 4, 1.0)]
        )
        hist = probability_histogram(g, bins=10)
        assert hist[0] == 1   # 0.05
        assert hist[5] == 1   # 0.55
        assert hist[9] == 2   # 0.95 and 1.0

    def test_bad_bins(self, triangle):
        with pytest.raises(ParameterError):
            probability_histogram(triangle, bins=0)

    def test_total_is_edge_count(self, two_groups):
        hist = probability_histogram(two_groups, bins=4)
        assert sum(hist) == two_groups.num_edges


class TestSummarize:
    def test_fields(self, triangle):
        summary = summarize(triangle)
        assert summary.num_nodes == 3
        assert summary.num_edges == 3
        assert summary.expected_edges == pytest.approx(2.2)
        assert summary.max_degree == 2
        assert summary.mean_degree == pytest.approx(2.0)
        assert summary.min_probability == 0.5
        assert summary.max_probability == 0.9

    def test_empty(self):
        summary = summarize(UncertainGraph())
        assert summary.num_nodes == 0
        assert summary.mean_degree == 0.0

