"""Exp-2 / Fig. 3: runtime of MUCE vs MUCE+ vs MUCE++ when varying k, tau.

The paper's ten panels run the three enumerators on all five datasets over
k in [6, 14] and tau in [0.01, 0.1].  Expected shape: MUCE+ consistently
beats MUCE, MUCE++ beats MUCE+, and all runtimes fall as k or tau grows.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from repro.core.enumeration import muce, muce_plus, muce_plus_plus
from repro.experiments.harness import (
    ExperimentResult,
    consume,
    run_with_timing,
)
from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["run_fig3", "DEFAULT_DATASETS"]

DEFAULT_DATASETS = (
    "askubuntu_like",
    "superuser_like",
    "cahepth_like",
    "wikitalk_like",
    "dblp_like",
)

#: An enumerator: label plus a ``(graph, k, tau) -> cliques`` callable.
EnumeratorFn = Callable[
    [UncertainGraph, int, float], Iterable[frozenset[Node]]
]

_ALGORITHMS: tuple[tuple[str, EnumeratorFn], ...] = (
    ("MUCE", muce),
    ("MUCE+", muce_plus),
    ("MUCE++", muce_plus_plus),
)


def run_fig3(
    datasets: tuple[str, ...] = DEFAULT_DATASETS,
    k_values: tuple[int, ...] = (6, 8, 10, 12, 14),
    tau_values: tuple[float, ...] = (0.01, 0.025, 0.05, 0.075, 0.1),
    default_k: int = 10,
    default_tau: float = 0.1,
    scale: float = 1.0,
    include_baseline: bool = True,
) -> ExperimentResult:
    """Measure the three enumeration algorithms over the parameter grids.

    ``include_baseline=False`` skips the (slow) MUCE baseline, which is
    handy while iterating on the fast algorithms.

    MUCE++ runs through one :class:`~repro.core.session.PreparedGraph`
    per dataset: the grid repeats (k, tau) queries against the same
    graph, which is exactly the repeated-query pattern the session's
    artifact cache (and the lowering's per-k level index across the
    tau sweep) accelerates.  The baselines stay one-shot.
    """
    from repro.core.session import PreparedGraph
    from repro.datasets.registry import load_dataset

    result = ExperimentResult(
        "Fig. 3",
        "maximal (k, tau)-clique enumeration runtime",
        group_by="dataset",
        notes=(
            f"scale={scale}; defaults k={default_k}, tau={default_tau}; "
            "MUCE++ through a shared per-dataset session"
        ),
    )
    for name in datasets:
        graph = load_dataset(name, scale=scale)
        session = PreparedGraph(graph)
        algorithms: list[tuple[str, EnumeratorFn]] = [
            (label, fn)
            for label, fn in _ALGORITHMS
            if (include_baseline or label != "MUCE") and label != "MUCE++"
        ]
        algorithms.append(
            ("MUCE++", lambda g, k, tau: session.maximal_cliques(k, tau))
        )
        for k in k_values:
            _measure_point(result, graph, name, "k", k, k, default_tau,
                           algorithms)
        for tau in tau_values:
            _measure_point(result, graph, name, "tau", tau, default_k, tau,
                           algorithms)
    return result


def _measure_point(
    result: ExperimentResult,
    graph: UncertainGraph,
    dataset: str,
    vary: str,
    value: float,
    k: int,
    tau: float,
    algorithms: Sequence[tuple[str, EnumeratorFn]],
) -> None:
    """One figure point: run every algorithm at (k, tau) and record."""
    counts: dict[str, int] = {}
    row: dict[str, Any] = {"dataset": dataset, "vary": vary, "value": value}
    for label, fn in algorithms:
        count, seconds = run_with_timing(lambda: consume(fn(graph, k, tau)))
        counts[label] = count
        row[f"{label}_seconds"] = seconds
    if len(set(counts.values())) > 1:
        raise AssertionError(
            f"enumerators disagree on clique count at {dataset} "
            f"k={k} tau={tau}: {counts}"
        )
    row["cliques"] = next(iter(counts.values())) if counts else 0
    result.add(**row)
