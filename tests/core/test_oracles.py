"""Self-tests of the reference oracles in :mod:`tests.core.oracles`.

The conformance matrix trusts these oracles above the brute-force
limit, so each is checked here against a definition by exhaustive
search, on the graphs the matrix draws: duplicate probabilities,
``p == 1.0`` edges, isolated nodes, mixed int / str labels, and
thresholds placed exactly at a clique's probability or just either
side of the tolerant floor :func:`~repro.utils.validation.
threshold_floor` puts under it.
"""

from __future__ import annotations

import itertools
from typing import Callable

from hypothesis import example, given, settings, strategies as st

from repro import UncertainGraph
from repro.core.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_tau_degree,
)
from repro.uncertain.clique_prob import clique_probability, is_clique
from repro.uncertain.graph import Node
from repro.utils.validation import FLOAT_EPS, prob_at_least
from tests.core.oracles import (
    ktau_core_oracle,
    mule_maximal_cliques,
    top_k_product,
    topk_core_oracle,
)
from tests.core.support import uncertain_graphs

#: Whether a node passes a core's rule in the subgraph it is part of.
Valid = Callable[[UncertainGraph, Node], bool]

TAUS = (0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.6)

#: Relative offsets of tau around the value whose floor is a clique's
#: probability: far above float reassociation error (~1e-16), far below
#: the tolerance band (FLOAT_EPS).
STRADDLE = (1.0 - 1e-12, 1.0, 1.0 + 1e-12)


@st.composite
def cases(draw: st.DrawFn) -> tuple[UncertainGraph, int, float]:
    graph = draw(uncertain_graphs())
    nodes = graph.nodes()
    products = [
        clique_probability(graph, clique)
        for size in (2, 3)
        for clique in itertools.combinations(nodes, size)
        if is_clique(graph, clique)
    ]
    taus = st.sampled_from(TAUS)
    if products:
        # tau at a clique's probability, or with its floor just above
        # or below it.
        edge = st.builds(
            lambda p, f: min(1.0, p * f),
            st.sampled_from(products),
            st.sampled_from(STRADDLE),
        )
        floor = st.builds(
            lambda p, f: min(1.0, p / (1.0 - FLOAT_EPS) * f),
            st.sampled_from(products),
            st.sampled_from(STRADDLE),
        )
        taus = taus | edge | floor
    return graph, draw(st.integers(min_value=0, max_value=4)), draw(taus)


def largest_valid_set(graph: UncertainGraph, valid: Valid) -> frozenset[Node]:
    """The largest node set every member of which ``valid`` accepts in
    the subgraph it induces (unique: the rules are monotone, so the
    union of two valid sets is valid), by trying every subset."""
    nodes = graph.nodes()
    for size in range(len(nodes), 0, -1):
        for subset in itertools.combinations(nodes, size):
            induced = graph.induced_subgraph(subset)
            if all(valid(induced, u) for u in subset):
                return frozenset(subset)
    return frozenset()


matrix = settings(max_examples=60, deadline=None)


def knife_edge_triangle() -> UncertainGraph:
    """A triangle whose product in one member order clears the floor of
    ``KNIFE_TAU`` and in another does not: decided in the order each
    oracle happened to meet it, brute force kept ``{5, 8}`` and the MULE
    search ``{4, 8}`` beside ``{4, 5, 8}``."""
    graph = UncertainGraph()
    graph.add_edge(4, 5, 0.9)
    graph.add_edge(4, 8, 0.4)
    graph.add_edge(5, 8, 0.9999999)
    return graph


KNIFE_TAU = 0.35999996436000004


@matrix
@given(case=cases())
@example(case=(knife_edge_triangle(), 0, KNIFE_TAU))
def test_mule_oracle_equals_brute_force(
    case: tuple[UncertainGraph, int, float]
) -> None:
    graph, k, tau = case
    assert mule_maximal_cliques(graph, k, tau) == brute_force_maximal_cliques(
        graph, k, tau
    )


@matrix
@given(case=cases(), data=st.data())
def test_topk_core_oracle_equals_its_definition(
    case: tuple[UncertainGraph, int, float], data: st.DataObject
) -> None:
    graph, k, tau = case
    core = largest_valid_set(
        graph,
        lambda g, u: prob_at_least(
            top_k_product(g.incident(u).values(), k), tau
        ),
    )
    assert topk_core_oracle(graph, k, tau) == core
    fixed = data.draw(st.sets(st.sampled_from([*graph.nodes(), "absent"])))
    expected = core if fixed - {"absent"} <= core else None
    assert topk_core_oracle(graph, k, tau, fixed) == expected


@matrix
@given(case=cases())
def test_ktau_core_oracle_equals_its_definition(
    case: tuple[UncertainGraph, int, float]
) -> None:
    graph, k, tau = case
    core = largest_valid_set(
        graph, lambda g, u: brute_force_tau_degree(g, u, tau) >= k
    )
    assert ktau_core_oracle(graph, k, tau) == core
