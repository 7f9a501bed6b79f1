"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools
import random

import pytest

from repro import UncertainGraph
from repro.core.prune_kernel import CompiledGraph


def current_lowering(graph: UncertainGraph) -> CompiledGraph:
    """The lowering ``graph`` carries, asserted present and current."""
    lowered = graph._lowering
    assert isinstance(lowered, CompiledGraph)
    assert lowered.version == graph.version
    return lowered


def make_random_graph(
    n: int,
    edge_probability: float,
    seed: int,
    prob_low: float = 0.2,
    prob_high: float = 1.0,
) -> UncertainGraph:
    """Seeded Erdos-Renyi uncertain graph used across the suite."""
    rng = random.Random(seed)
    graph = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                p = prob_low + (prob_high - prob_low) * rng.random()
                graph.add_edge(u, v, round(p, 6))
    return graph


def make_clique(size: int, p: float, offset: int = 0) -> UncertainGraph:
    """A single clique of ``size`` nodes with uniform edge probability."""
    graph = UncertainGraph()
    members = range(offset, offset + size)
    for u, v in itertools.combinations(members, 2):
        graph.add_edge(u, v, p)
    return graph


def make_second_sweep_graph() -> UncertainGraph:
    """Seven nodes whose maximum-adjacency sweep from node 0 finds no
    low cut at (k, tau) = (2, 0.3), while a sweep from node 5 (the node
    the first sweep absorbs last) cuts {1, 3} off."""
    return UncertainGraph(
        nodes=range(7),
        edges=[
            (0, 2, 0.8), (0, 3, 0.3), (0, 4, 0.8), (0, 5, 0.8),
            (1, 2, 0.5), (1, 3, 0.8), (1, 6, 0.5), (2, 4, 0.5),
            (2, 6, 0.5), (3, 4, 0.5), (5, 6, 0.8),
        ],
    )


@pytest.fixture
def triangle() -> UncertainGraph:
    """Triangle with probabilities 0.9, 0.8, 0.5 (CPr = 0.36)."""
    graph = UncertainGraph()
    graph.add_edge("a", "b", 0.9)
    graph.add_edge("b", "c", 0.8)
    graph.add_edge("a", "c", 0.5)
    return graph


@pytest.fixture
def two_groups() -> UncertainGraph:
    """Two strong 4-cliques bridged by one weak edge plus a weak hub.

    Mirrors the structure of the paper's Fig. 1 running example: strong
    maximal (3, 0.7)-cliques {a1..a4} and {b1..b4}, a hub that the
    (Top_k, tau)-core prunes, and a low-probability bridge the cut
    optimization can sever.
    """
    graph = UncertainGraph()
    for prefix in ("a", "b"):
        members = [f"{prefix}{i}" for i in range(1, 5)]
        for u, v in itertools.combinations(members, 2):
            graph.add_edge(u, v, 0.95)
    graph.add_edge("a4", "b4", 0.25)
    for v in ("a1", "a2", "b1", "b2"):
        graph.add_edge("hub", v, 0.3)
    return graph


@pytest.fixture
def path_graph() -> UncertainGraph:
    """Path 0-1-2-3-4 with probability 0.9 per edge."""
    graph = UncertainGraph()
    for i in range(4):
        graph.add_edge(i, i + 1, 0.9)
    return graph


@pytest.fixture
def random_graph() -> UncertainGraph:
    """A fixed mid-density random graph (12 nodes)."""
    return make_random_graph(12, 0.5, seed=1234)
