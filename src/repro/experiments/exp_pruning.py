"""Exp-3 / Fig. 4: pruning power and cost of the two core-based rules.

Panels (a)-(b) of the paper's Fig. 4 report how many nodes *remain* after
applying the (k, tau)-core versus the (Top_k, tau)-core as k and tau vary
(on DBLP); panels (c)-(d) report the pruning time.  Expected shape: the
(Top_k, tau)-core always retains no more nodes than the (k, tau)-core
(Corollary 1), often dramatically fewer, at comparable near-linear cost.
"""

from __future__ import annotations

from repro.core.ktau_core import dp_core_plus
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.core.topk_core import topk_core
from repro.experiments.harness import ExperimentResult, run_with_timing
from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["run_fig4"]


def run_fig4(
    dataset: str = "dblp_like",
    k_values: tuple[int, ...] = (6, 8, 10, 12, 14),
    tau_values: tuple[float, ...] = (0.01, 0.025, 0.05, 0.075, 0.1),
    default_k: int = 10,
    default_tau: float = 0.1,
    scale: float = 1.0,
    repeats: int = 1,
) -> ExperimentResult:
    """Compare remaining-node counts and prune times of both rules.

    Both rules run the compiled arrays peels: the CSR lowering is
    compiled once for the dataset and every timed peel replays over it
    (the session-layer accounting: one compile per graph version); the
    recorded times cover the peels only.  Every topk point times
    Algorithm 3's peel: the lowering's per-k level index, which would
    answer the second and later peels at a ``k`` by lookup, is dropped
    before each timed call.
    """
    from repro.datasets.registry import load_dataset

    graph = load_dataset(dataset, scale=scale)
    compiled = compile_graph(graph)
    result = ExperimentResult(
        "Fig. 4",
        "(k,tau)-core vs (Top_k,tau)-core pruning",
        group_by="vary",
        notes=(
            f"dataset={dataset}, scale={scale}; "
            f"defaults k={default_k}, tau={default_tau}; "
            "compile shared per dataset, untimed; "
            "topk times are peels, never level-index lookups"
        ),
    )
    for k in k_values:
        _measure(result, graph, "k", k, k, default_tau, repeats, compiled)
    for tau in tau_values:
        _measure(
            result, graph, "tau", tau, default_k, tau, repeats, compiled
        )
    return result


def _measure(
    result: ExperimentResult,
    graph: UncertainGraph,
    vary: str,
    value: float,
    k: int,
    tau: float,
    repeats: int,
    compiled: CompiledGraph,
) -> None:
    """One point: run both pruning rules, record sizes and times."""
    ktau_nodes, t_ktau = run_with_timing(
        lambda: dp_core_plus(graph, k, tau, compiled=compiled),
        repeats,
    )

    def topk_peel_nodes() -> frozenset[Node]:
        # Drop the level index so this call peels; the reset is a slot
        # store, nanoseconds against a peel of milliseconds.
        compiled._topk_levels = {}
        return topk_core(graph, k, tau, compiled=compiled).nodes

    topk_nodes, t_topk = run_with_timing(topk_peel_nodes, repeats)
    if not set(topk_nodes) <= set(ktau_nodes):
        raise AssertionError(
            "Corollary 1 violated: (Top_k,tau)-core not inside (k,tau)-core"
        )
    result.add(
        vary=vary,
        value=value,
        ktau_core_nodes=len(ktau_nodes),
        topk_core_nodes=len(topk_nodes),
        ktau_core_seconds=t_ktau,
        topk_core_seconds=t_topk,
    )
