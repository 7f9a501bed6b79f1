"""The paper's algorithms: pruning cores, enumeration, and maximum search."""

from repro.core.tau_degree import (
    degree_distribution_dp,
    survival_dp,
    tau_degree,
    all_tau_degrees,
    truncated_tau_degree,
    tau_degree_from_distribution,
    tau_degree_from_survival,
)
from repro.core.ktau_core import (
    dp_core,
    dp_core_plus,
    tau_core_numbers,
)
from repro.core.topk_core import (
    top_k_product_probability,
    topk_core,
    TopKCoreResult,
)
from repro.core.cut_pruning import (
    cut_probability,
    is_low_probability_cut,
    cut_optimize,
)
from repro.core.enumeration import (
    maximal_cliques,
    muce,
    muce_plus,
    muce_plus_plus,
    EnumerationStats,
)
from repro.core.kernel import (
    CompiledComponent,
    compile_component,
    derive_component_view,
)
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
)
from repro.core.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
    brute_force_tau_degree,
)
from repro.core.maximum import (
    maximum_clique,
    max_uc,
    max_rds,
    max_uc_plus,
    MaximumSearchStats,
)
from repro.core.topr import top_r_maximal_cliques
from repro.core.pipeline import (
    CutArtifact,
    compile_stage,
    prune_stage,
    cut_stage,
    enumeration_search_stage,
    maximum_search_stage,
)
from repro.core.session import PreparedGraph, SessionCacheStats
from repro.core.queries import (
    cliques_containing,
    is_extendable,
    containing_clique_exists,
)
from repro.core.maintenance import KTauCoreMaintainer
from repro.core.approximate import approximate_maximal_cliques
from repro.core.truss import (
    edge_gamma_support,
    truss_prune_for_cliques,
    uncertain_truss,
)
from repro.core.verification import (
    VerificationReport,
    verify_maximal_cliques,
)

__all__ = [
    "degree_distribution_dp",
    "survival_dp",
    "tau_degree",
    "all_tau_degrees",
    "truncated_tau_degree",
    "tau_degree_from_distribution",
    "tau_degree_from_survival",
    "dp_core",
    "dp_core_plus",
    "tau_core_numbers",
    "top_k_product_probability",
    "topk_core",
    "TopKCoreResult",
    "cut_probability",
    "is_low_probability_cut",
    "cut_optimize",
    "maximal_cliques",
    "muce",
    "muce_plus",
    "muce_plus_plus",
    "EnumerationStats",
    "CompiledComponent",
    "CompiledGraph",
    "compile_component",
    "compile_graph",
    "derive_component_view",
    "brute_force_maximal_cliques",
    "brute_force_maximum_clique",
    "brute_force_tau_degree",
    "maximum_clique",
    "max_uc",
    "max_rds",
    "max_uc_plus",
    "MaximumSearchStats",
    "top_r_maximal_cliques",
    "CutArtifact",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "enumeration_search_stage",
    "maximum_search_stage",
    "PreparedGraph",
    "SessionCacheStats",
    "cliques_containing",
    "is_extendable",
    "containing_clique_exists",
    "KTauCoreMaintainer",
    "approximate_maximal_cliques",
    "edge_gamma_support",
    "uncertain_truss",
    "truss_prune_for_cliques",
    "VerificationReport",
    "verify_maximal_cliques",
]
