"""The canonical maximum clique: tied maxima resolve to one answer.

Of the maximum (k, tau)-cliques, MaxUC+ returns the one whose members,
sorted by ``node_sort_key``, form the lexicographically smallest
sequence, and so does the brute-force oracle.  The graphs plant two or
three disjoint cliques of equal size, inserted in an order unrelated to
that one, so the answer cannot come from graph order or from the order
the search visits its components in.  The cut that prepares the search
is raised to ``s - 1`` when a greedy clique of ``s > k + 1`` nodes is
found, and stays at ``k`` (today's cut) otherwise.
"""

from __future__ import annotations

import random
from dataclasses import asdict

import pytest

from repro import PreparedGraph, UncertainGraph, max_uc_plus
from repro.core.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
)
from repro.core.maximum import MaximumSearchStats
from repro.core.pipeline import compile_stage, cut_stage
from repro.core.prune_kernel import node_sort_key

TAU = 0.3


def planted_graph(
    seed: int, size: int, planted: int, noise: float = 0.25
) -> UncertainGraph:
    """``planted`` disjoint 0.95-cliques of ``size`` nodes among noise.

    Labels are drawn from 0..39 and inserted shuffled, so neither graph
    order nor numeric order is ``node_sort_key`` order ("12" < "3").
    Each other pair gets a noise edge with probability ``noise``; noise
    edges carry p <= 0.5, so no clique with a noise edge and three or
    more nodes reaches ``TAU``: the planted cliques are the maxima.
    Without noise each planted clique is a graph component of its own,
    and graph components are searched in graph order.
    """
    rng = random.Random(seed)
    labels = rng.sample(range(40), 16)
    graph = UncertainGraph(nodes=labels)
    groups = [
        labels[i * size : (i + 1) * size] for i in range(planted)
    ]
    edges = []
    for group in groups:
        edges += [
            (u, v, 0.95) for i, u in enumerate(group) for v in group[i + 1 :]
        ]
    for i, u in enumerate(labels):
        for v in labels[i + 1 :]:
            if rng.random() < noise and not any(
                u in g and v in g for g in groups
            ):
                edges.append((u, v, round(rng.uniform(0.2, 0.5), 6)))
    rng.shuffle(edges)
    for u, v, p in edges:
        graph.add_edge(u, v, p)
    return graph


CASES = [
    # (clique size, planted cliques, k): a greedy bound of 5 > k + 1
    # raises the cut; with 4 = k + 1 it stays at k.
    (5, 2, 2),
    (5, 3, 3),
    (4, 3, 3),
    (4, 2, 1),
]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("noise", [0.25, 0.0])
@pytest.mark.parametrize("size,planted,k", CASES)
def test_every_engine_returns_the_oracle_clique(
    seed, noise, size, planted, k
):
    graph = planted_graph(seed, size, planted, noise)
    oracle = brute_force_maximum_clique(graph, k, TAU)
    maxima = [
        c for c in brute_force_maximal_cliques(graph, k, TAU)
        if len(c) == size
    ]
    assert len(maxima) == planted  # the ties the test is about
    for engine in ("pivot", "legacy"):
        session = PreparedGraph(graph)
        cold = MaximumSearchStats()
        got = session.max_uc_plus(k, TAU, stats=cold, engine=engine)
        assert got == oracle
        warm = MaximumSearchStats()
        got = session.max_uc_plus(k, TAU, stats=warm, engine=engine)
        assert got == oracle
        assert asdict(warm) == asdict(cold)
        assert max_uc_plus(graph, k, TAU, engine=engine) == oracle


def test_oracle_takes_the_lexicographic_minimum():
    graph = UncertainGraph(nodes=[7, 30, 12, 4])
    graph.add_edge(7, 30, 0.9)
    graph.add_edge(12, 4, 0.9)
    # By node_sort_key "12" < "30" < "4" < "7".
    assert brute_force_maximum_clique(graph, 1, 0.5) == frozenset({12, 4})


def test_lower_bound_is_reported_and_seeds_the_incumbent():
    graph = planted_graph(0, 5, 2)
    stats = MaximumSearchStats()
    best = max_uc_plus(graph, 2, TAU, stats=stats)
    assert stats.lower_bound == 5 == stats.best_size == len(best)
    tight = MaximumSearchStats()
    max_uc_plus(planted_graph(0, 4, 2), 3, TAU, stats=tight)
    assert tight.lower_bound == 0  # 4 = k + 1: the cut stayed at k


def _cut_both_ways(graph, k):
    compiled = compile_stage(graph)
    ids = list(range(compiled.n))
    return (
        cut_stage(compiled, ids, k, TAU, True),
        cut_stage(compiled, ids, k, TAU, True, True),
    )


@pytest.mark.parametrize("seed", range(4))
def test_bound_at_most_k_plus_one_keeps_todays_cut(seed):
    graph = planted_graph(seed, 4, 3)
    plain, maximum = _cut_both_ways(graph, 3)
    assert maximum.lower_bound == 0
    assert set(maximum.components) == set(plain.components)
    assert len(maximum.components) == len(plain.components)
    assert (maximum.cuts_found, maximum.edges_removed) == (
        plain.cuts_found, plain.edges_removed,
    )
    keys = [node_sort_key(head) for head in maximum.heads]
    assert keys == sorted(keys)
    for head, piece in zip(maximum.heads, maximum.components):
        assert head == min(piece, key=node_sort_key)


@pytest.mark.parametrize("seed", range(4))
def test_raised_cut_keeps_every_maximum_clique(seed):
    graph = planted_graph(seed, 5, 3)
    _, maximum = _cut_both_ways(graph, 2)
    assert maximum.lower_bound == 5
    assert all(len(piece) >= 5 for piece in maximum.components)
    for clique in brute_force_maximal_cliques(graph, 2, TAU):
        if len(clique) == 5:
            assert any(clique <= set(p) for p in maximum.components)
