"""repro — maximal (k, tau)-clique search in uncertain networks.

A faithful, pure-Python reproduction of

    Rong-Hua Li, Qiangqiang Dai, Guoren Wang, Zhong Ming, Lu Qin,
    Jeffrey Xu Yu.  "Improved Algorithms for Maximal Clique Search in
    Uncertain Networks."  ICDE 2019.

Quickstart::

    from repro import UncertainGraph, muce_plus_plus, max_uc_plus

    g = UncertainGraph()
    g.add_edge(1, 2, 0.9)
    g.add_edge(2, 3, 0.9)
    g.add_edge(1, 3, 0.95)

    cliques = list(muce_plus_plus(g, k=2, tau=0.7))
    biggest = max_uc_plus(g, k=2, tau=0.7)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.errors import (
    DatasetError,
    EdgeNotFoundError,
    ExperimentError,
    GraphError,
    InvalidProbabilityError,
    NodeNotFoundError,
    ParameterError,
    ReproError,
)
from repro.uncertain import (
    UncertainGraph,
    clique_probability,
    is_clique,
    is_k_tau_clique,
    is_maximal_k_tau_clique,
    is_tau_clique,
    read_edge_list,
    write_edge_list,
)
from repro.core import (
    EnumerationStats,
    KTauCoreMaintainer,
    PreparedGraph,
    SessionCacheStats,
    VerificationReport,
    cliques_containing,
    containing_clique_exists,
    is_extendable,
    top_r_maximal_cliques,
    verify_maximal_cliques,
    MaximumSearchStats,
    TopKCoreResult,
    all_tau_degrees,
    cut_optimize,
    dp_core,
    dp_core_plus,
    max_rds,
    max_uc,
    max_uc_plus,
    maximal_cliques,
    maximum_clique,
    muce,
    muce_plus,
    muce_plus_plus,
    tau_core_numbers,
    tau_degree,
    topk_core,
    truncated_tau_degree,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "InvalidProbabilityError",
    "ParameterError",
    "DatasetError",
    "ExperimentError",
    # substrate
    "UncertainGraph",
    "clique_probability",
    "is_clique",
    "is_tau_clique",
    "is_k_tau_clique",
    "is_maximal_k_tau_clique",
    "read_edge_list",
    "write_edge_list",
    # tau-degrees and cores
    "tau_degree",
    "all_tau_degrees",
    "truncated_tau_degree",
    "dp_core",
    "dp_core_plus",
    "tau_core_numbers",
    "topk_core",
    "TopKCoreResult",
    "cut_optimize",
    # enumeration
    "maximal_cliques",
    "muce",
    "muce_plus",
    "muce_plus_plus",
    "EnumerationStats",
    # maximum search
    "maximum_clique",
    "max_uc",
    "max_rds",
    "max_uc_plus",
    "MaximumSearchStats",
    # query session
    "PreparedGraph",
    "SessionCacheStats",
    # extensions beyond the paper
    "top_r_maximal_cliques",
    "cliques_containing",
    "is_extendable",
    "containing_clique_exists",
    "KTauCoreMaintainer",
    "VerificationReport",
    "verify_maximal_cliques",
]
