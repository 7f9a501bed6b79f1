"""Descriptive statistics of uncertain graphs.

Companion utilities for dataset inspection and the experiment reports:
expected degrees, probability histograms and a one-look summary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "expected_degree",
    "expected_num_edges",
    "probability_histogram",
    "GraphSummary",
    "summarize",
]


def expected_degree(graph: UncertainGraph, node: Node) -> float:
    """Expected degree of ``node`` over the possible worlds.

    By linearity of expectation this is just the sum of incident-edge
    probabilities.
    """
    return sum(graph.incident(node).values())


def expected_num_edges(graph: UncertainGraph) -> float:
    """Expected number of edges over the possible worlds."""
    return sum(p for _, _, p in graph.edges())


def probability_histogram(
    graph: UncertainGraph, bins: int = 10
) -> list[int]:
    """Histogram of edge probabilities over ``bins`` equal-width buckets
    covering (0, 1]; ``result[i]`` counts edges with
    ``i/bins < p <= (i+1)/bins``."""
    if bins <= 0:
        raise ParameterError(f"bins must be positive, got {bins}")
    counts = [0] * bins
    for _, _, p in graph.edges():
        index = min(bins - 1, int(math.ceil(p * bins)) - 1)
        counts[index] += 1
    return counts


@dataclass(frozen=True)
class GraphSummary:
    """One-look description of an uncertain graph."""

    num_nodes: int
    num_edges: int
    expected_edges: float
    max_degree: int
    mean_degree: float
    mean_probability: float
    min_probability: float
    max_probability: float


def summarize(graph: UncertainGraph) -> GraphSummary:
    """Compute a :class:`GraphSummary` for ``graph``."""
    probs = [p for _, _, p in graph.edges()]
    n = graph.num_nodes
    m = graph.num_edges
    return GraphSummary(
        num_nodes=n,
        num_edges=m,
        expected_edges=sum(probs),
        max_degree=graph.max_degree(),
        mean_degree=(2.0 * m / n) if n else 0.0,
        mean_probability=(sum(probs) / m) if m else 0.0,
        min_probability=min(probs) if probs else 0.0,
        max_probability=max(probs) if probs else 0.0,
    )

