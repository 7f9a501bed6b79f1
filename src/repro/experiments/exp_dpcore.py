"""Exp-1 / Fig. 2: runtime of DPCore vs DPCore+ when varying k and tau.

The paper runs both (k, tau)-core algorithms on WikiTalk and DBLP over
k in [6, 14] and tau in [0.01, 0.1]; DPCore+ wins everywhere, with the gap
largest on WikiTalk where ``d_max >> degeneracy``.  This runner reproduces
the four panels (a)-(d) over the corresponding registry analogs.
"""

from __future__ import annotations

from repro.core.ktau_core import dp_core, dp_core_plus
from repro.core.prune_kernel import PruneEngine, compile_graph
from repro.experiments.harness import ExperimentResult, run_with_timing

__all__ = ["run_fig2", "DEFAULT_K_VALUES", "DEFAULT_TAU_VALUES"]

DEFAULT_K_VALUES = (6, 8, 10, 12, 14)
DEFAULT_TAU_VALUES = (0.01, 0.025, 0.05, 0.075, 0.1)


def run_fig2(
    datasets: tuple[str, ...] = ("wikitalk_like", "dblp_like"),
    k_values: tuple[int, ...] = DEFAULT_K_VALUES,
    tau_values: tuple[float, ...] = DEFAULT_TAU_VALUES,
    default_k: int = 10,
    default_tau: float = 0.1,
    scale: float = 1.0,
    repeats: int = 1,
    engine: PruneEngine = "arrays",
) -> ExperimentResult:
    """Measure both core algorithms over the k and tau grids.

    Rows carry ``vary`` ("k" or "tau"), the varied value, and the runtime
    of each algorithm, one row per (dataset, varied value).  On the
    arrays engine the CSR lowering is compiled once per dataset and
    shared by every timed peel (the session-layer accounting: one
    compile per graph version, amortized across queries); the timings
    measure the peels only.
    """
    from repro.datasets.registry import load_dataset

    result = ExperimentResult(
        "Fig. 2",
        "DPCore vs DPCore+ runtime",
        group_by="dataset",
        notes=(
            f"scale={scale}; defaults k={default_k}, tau={default_tau}; "
            f"engine={engine} (compile shared per dataset, untimed)"
        ),
    )
    for name in datasets:
        graph = load_dataset(name, scale=scale)
        compiled = (
            compile_graph(graph) if engine == "arrays" else None
        )
        for k in k_values:
            core, t_old = run_with_timing(
                lambda: dp_core(
                    graph, k, default_tau, engine=engine, compiled=compiled
                ),
                repeats,
            )
            core_plus, t_new = run_with_timing(
                lambda: dp_core_plus(
                    graph, k, default_tau, engine=engine, compiled=compiled
                ),
                repeats,
            )
            assert core == core_plus, "DPCore and DPCore+ disagree"
            result.add(
                dataset=name, vary="k", value=k,
                dpcore_seconds=t_old, dpcore_plus_seconds=t_new,
                speedup=t_old / t_new if t_new > 0 else float("inf"),
                core_size=len(core),
            )
        for tau in tau_values:
            core, t_old = run_with_timing(
                lambda: dp_core(
                    graph, default_k, tau, engine=engine, compiled=compiled
                ),
                repeats,
            )
            core_plus, t_new = run_with_timing(
                lambda: dp_core_plus(
                    graph, default_k, tau, engine=engine, compiled=compiled
                ),
                repeats,
            )
            assert core == core_plus, "DPCore and DPCore+ disagree"
            result.add(
                dataset=name, vary="tau", value=tau,
                dpcore_seconds=t_old, dpcore_plus_seconds=t_new,
                speedup=t_old / t_new if t_new > 0 else float("inf"),
                core_size=len(core),
            )
    return result
