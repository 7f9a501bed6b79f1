"""Uncertain-graph substrate: storage, possible-world semantics, IO."""

from repro.uncertain.graph import UncertainGraph
from repro.uncertain.clique_prob import (
    clique_probability,
    is_clique,
    is_tau_clique,
    is_k_tau_clique,
    is_maximal_k_tau_clique,
)
from repro.uncertain.possible_worlds import (
    PossibleWorld,
    enumerate_possible_worlds,
    sample_possible_world,
    sample_possible_worlds,
    world_probability,
    estimate_clique_probability,
    exact_degree_distribution,
)
from repro.uncertain.statistics import (
    expected_degree,
    expected_num_edges,
    probability_histogram,
    summarize,
    GraphSummary,
)
from repro.uncertain.io import (
    read_edge_list,
    write_edge_list,
    read_weighted_edge_list,
    loads_edge_list,
    dumps_edge_list,
)

__all__ = [
    "UncertainGraph",
    "clique_probability",
    "is_clique",
    "is_tau_clique",
    "is_k_tau_clique",
    "is_maximal_k_tau_clique",
    "PossibleWorld",
    "enumerate_possible_worlds",
    "sample_possible_world",
    "sample_possible_worlds",
    "world_probability",
    "estimate_clique_probability",
    "exact_degree_distribution",
    "expected_degree",
    "expected_num_edges",
    "probability_histogram",
    "summarize",
    "GraphSummary",
    "read_edge_list",
    "write_edge_list",
    "read_weighted_edge_list",
    "loads_edge_list",
    "dumps_edge_list",
]
