"""Property-based tests (hypothesis) for the core invariants of DESIGN.md."""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    UncertainGraph,
    clique_probability,
    cut_optimize,
    dp_core,
    dp_core_plus,
    is_maximal_k_tau_clique,
    max_rds,
    max_uc,
    max_uc_plus,
    muce,
    muce_plus,
    muce_plus_plus,
    tau_degree,
    topk_core,
)
from repro.core.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
    brute_force_tau_degree,
)
from repro.core.tau_degree import (
    degree_distribution_dp,
    distribution_prefix,
    survival_dp,
    tau_degree_from_distribution,
    tau_degree_from_survival,
)

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

probabilities = st.floats(
    min_value=0.01, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def uncertain_graphs(draw, max_nodes=9):
    """Random small uncertain graphs."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = UncertainGraph(nodes=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(probabilities))
    return graph


taus = st.sampled_from([0.01, 0.1, 0.3, 0.5, 0.8, 0.99])
ks = st.integers(min_value=0, max_value=4)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ----------------------------------------------------------------------
# Invariant 1: CPr monotonicity
# ----------------------------------------------------------------------


@relaxed
@given(uncertain_graphs(), st.data())
def test_clique_probability_monotone_under_addition(graph, data):
    nodes = graph.nodes()
    subset = data.draw(st.lists(st.sampled_from(nodes), unique=True))
    extra = data.draw(st.sampled_from(nodes))
    base = clique_probability(graph, subset)
    extended = clique_probability(graph, subset + [extra])
    assert extended <= base + 1e-12


# ----------------------------------------------------------------------
# Invariant 2: tau-degree agreement (old DP == new DP == oracle)
# ----------------------------------------------------------------------


@relaxed
@given(uncertain_graphs(), taus)
def test_tau_degree_agreement(graph, tau):
    for u in graph:
        expected = brute_force_tau_degree(graph, u, tau)
        assert tau_degree(graph, u, tau) == expected
        probs = list(graph.incident(u).values())
        _, prefix_deg = distribution_prefix(probs, tau)
        assert prefix_deg == expected
        row = survival_dp(probs, cap=len(probs))
        assert tau_degree_from_survival(row, tau) == expected


@relaxed
@given(st.lists(probabilities, max_size=8))
def test_degree_distribution_sums_to_one(probs):
    dist = degree_distribution_dp(probs)
    assert math.isclose(sum(dist), 1.0, rel_tol=1e-9)


@relaxed
@given(st.lists(probabilities, max_size=8), taus)
def test_survival_row_matches_distribution_tails(probs, tau):
    dist = degree_distribution_dp(probs)
    row = survival_dp(probs, cap=len(probs))
    for i, value in enumerate(row):
        assert math.isclose(value, sum(dist[i:]), abs_tol=1e-9)
    assert tau_degree_from_survival(row, tau) == (
        tau_degree_from_distribution(dist, tau)
    )


# ----------------------------------------------------------------------
# Invariants 3-5: cores and pruning
# ----------------------------------------------------------------------


@relaxed
@given(uncertain_graphs(), ks, taus)
def test_cores_agree_and_nest(graph, k, tau):
    core = dp_core(graph, k, tau)
    core_plus = dp_core_plus(graph, k, tau)
    assert core == core_plus
    topk = set(topk_core(graph, k, tau).nodes)
    assert topk <= core  # Corollary 1


@relaxed
@given(uncertain_graphs(), st.integers(min_value=1, max_value=3), taus)
def test_pruning_preserves_maximal_cliques(graph, k, tau):
    cliques = brute_force_maximal_cliques(graph, k, tau)
    topk = set(topk_core(graph, k, tau).nodes)
    core = dp_core_plus(graph, k, tau)
    result = cut_optimize(graph, k, tau)
    comp_sets = [set(c.nodes()) for c in result.components]
    for clique in cliques:
        assert clique <= topk  # Lemma 4
        assert clique <= core  # Lemma 1
        assert any(clique <= cs for cs in comp_sets)  # Lemma 5


def _relabel(graph, labels):
    """``graph`` with node ``u`` renamed ``f"v{u}"`` for string labels."""
    if labels == "int":
        return graph
    name = "v{}".format
    relabelled = UncertainGraph(nodes=(name(u) for u in graph.nodes()))
    for u, v, p in graph.edges():
        relabelled.add_edge(name(u), name(v), p)
    return relabelled


@relaxed
@given(
    uncertain_graphs(),
    st.integers(min_value=0, max_value=3),
    taus,
    st.sampled_from(["int", "str"]),
)
def test_cut_keeps_maximal_cliques_and_accounts_edges(graph, k, tau, labels):
    graph = _relabel(graph, labels)
    result = cut_optimize(graph, k, tau)
    comp_sets = [set(c.nodes()) for c in result.components]
    for clique in brute_force_maximal_cliques(graph, k, tau):
        assert any(clique <= cs for cs in comp_sets)  # Lemma 5
    kept = sum(c.num_edges for c in result.components)
    assert kept + result.edges_removed == graph.num_edges


# ----------------------------------------------------------------------
# Invariant 6: the enumerators agree with brute force
# ----------------------------------------------------------------------


@relaxed
@given(uncertain_graphs(), st.integers(min_value=1, max_value=3), taus)
def test_enumerators_agree_with_brute_force(graph, k, tau):
    expected = brute_force_maximal_cliques(graph, k, tau)
    assert set(muce(graph, k, tau)) == expected
    assert set(muce_plus(graph, k, tau)) == expected
    assert set(muce_plus_plus(graph, k, tau)) == expected


@relaxed
@given(uncertain_graphs(), st.integers(min_value=1, max_value=3), taus)
def test_every_enumerated_clique_is_maximal(graph, k, tau):
    for clique in muce_plus_plus(graph, k, tau):
        assert is_maximal_k_tau_clique(graph, clique, k, tau)


# ----------------------------------------------------------------------
# Invariant 7: maximum search agreement
# ----------------------------------------------------------------------


@relaxed
@given(uncertain_graphs(), st.integers(min_value=1, max_value=3), taus)
def test_maximum_algorithms_agree(graph, k, tau):
    expected = brute_force_maximum_clique(graph, k, tau)
    expected_size = len(expected) if expected else 0
    for algorithm in (max_uc, max_rds, max_uc_plus):
        got = algorithm(graph, k, tau)
        assert (len(got) if got else 0) == expected_size
