"""Command-line experiment runner: ``python -m repro`` / ``repro-experiments``.

Examples::

    python -m repro list
    python -m repro table1
    python -m repro fig2 --scale 0.5
    python -m repro fig3 --scale 0.25 --no-baselines
    python -m repro all --scale 0.25 --out results.txt
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable

from repro.experiments.harness import ExperimentResult
from repro.experiments import (
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
)

__all__ = ["main"]

#: An experiment runner: parsed CLI options -> rendered result rows.
Runner = Callable[[argparse.Namespace], ExperimentResult]


#: Paper-terminology aliases resolved to figure names before dispatch
#: (kept out of the runners dict so ``all`` does not run them twice).
_ALIASES = {"dpcore": "fig2", "pruning": "fig4"}


def _runners() -> dict[str, Runner]:
    """Experiment name -> runner accepting the parsed CLI options."""
    return {
        "table1": lambda opts: run_table1(scale=opts.scale),
        "fig2": lambda opts: run_fig2(
            scale=opts.scale, engine=opts.prune_engine
        ),
        "fig3": lambda opts: run_fig3(
            scale=opts.scale, include_baseline=not opts.no_baselines
        ),
        "fig4": lambda opts: run_fig4(
            scale=opts.scale, engine=opts.prune_engine
        ),
        "fig5": lambda opts: run_fig5(
            scale=opts.scale, include_baselines=not opts.no_baselines
        ),
        "fig6": lambda opts: run_fig6(
            scale=opts.scale, include_baselines=not opts.no_baselines
        ),
        "fig7": lambda opts: run_fig7(
            scale=opts.scale, include_baselines=not opts.no_baselines
        ),
        "fig8": lambda opts: run_fig8(
            scale=opts.scale, include_baselines=not opts.no_baselines
        ),
        "table2": lambda opts: run_table2(scale=opts.scale),
        "fig9": lambda opts: run_fig9(scale=opts.scale),
    }


def _run_mine(opts: argparse.Namespace) -> int:
    """The ``mine`` command: clique search on a user-supplied edge list."""
    from repro.core.enumeration import muce_plus_plus
    from repro.core.maximum import max_uc_plus
    from repro.core.topr import top_r_maximal_cliques
    from repro.uncertain.clique_prob import clique_probability
    from repro.uncertain.io import read_edge_list

    graph = read_edge_list(opts.input)
    print(
        f"loaded {graph.num_nodes} nodes / {graph.num_edges} edges; "
        f"k={opts.k}, tau={opts.tau}, mode={opts.mode}"
    )
    if opts.mode == "maximum":
        best = max_uc_plus(graph, opts.k, opts.tau)
        if best is None:
            print("no (k, tau)-clique found")
        else:
            prob = clique_probability(graph, best)
            print(f"{len(best)} nodes, CPr={prob:.6g}: {sorted(map(str, best))}")
        return 0
    if opts.mode == "top":
        cliques = top_r_maximal_cliques(graph, opts.top, opts.k, opts.tau)
    else:
        cliques = muce_plus_plus(graph, opts.k, opts.tau)
    count = 0
    for clique in cliques:
        count += 1
        prob = clique_probability(graph, clique)
        print(f"{len(clique)} nodes, CPr={prob:.6g}: {sorted(map(str, clique))}")
    print(f"{count} maximal (k, tau)-clique(s)")
    return 0


def _run_query(opts: argparse.Namespace) -> int:
    """The ``query`` command: anchored clique questions on an edge list."""
    from repro.core.queries import (
        cliques_containing,
        containing_clique_exists,
        is_extendable,
    )
    from repro.uncertain.clique_prob import clique_probability
    from repro.uncertain.io import _parse_node, read_edge_list

    graph = read_edge_list(opts.input)
    print(
        f"loaded {graph.num_nodes} nodes / {graph.num_edges} edges; "
        f"k={opts.k}, tau={opts.tau}, query={opts.query}, "
        f"engine={opts.engine}"
    )
    if opts.query == "containing":
        if not opts.node:
            print("query containing requires --node")
            return 2
        anchor = _parse_node(opts.node)
        count = 0
        for clique in cliques_containing(
            graph, anchor, opts.k, opts.tau, engine=opts.engine
        ):
            count += 1
            prob = clique_probability(graph, clique)
            print(
                f"{len(clique)} nodes, CPr={prob:.6g}: "
                f"{sorted(map(str, clique))}"
            )
        print(f"{count} maximal (k, tau)-clique(s) containing {opts.node!r}")
        return 0
    if not opts.nodes:
        print(f"query {opts.query} requires --nodes")
        return 2
    # Anchor tokens get the same int-when-possible treatment as the edge
    # list itself, so `--node 1` matches the node the loader created.
    members = [_parse_node(part) for part in opts.nodes.split(",") if part]
    if opts.query == "extendable":
        answer = is_extendable(graph, members, opts.tau)
        print(f"extendable: {answer}")
    else:
        answer = containing_clique_exists(
            graph, members, opts.k, opts.tau, engine=opts.engine
        )
        print(f"containing clique exists: {answer}")
    return 0


def _run_dataset(opts: argparse.Namespace) -> int:
    """The ``dataset`` command: export a synthetic dataset edge list."""
    from repro.datasets.registry import DATASETS, load_dataset
    from repro.uncertain.io import write_edge_list

    if opts.name not in DATASETS:
        print(f"unknown dataset {opts.name!r}; known: {sorted(DATASETS)}")
        return 2
    graph = load_dataset(
        opts.name, scale=opts.scale, lam=opts.lam,
        distribution=opts.distribution,
    )
    write_edge_list(graph, opts.output)
    print(
        f"wrote {opts.name} (scale {opts.scale}): {graph.num_nodes} nodes, "
        f"{graph.num_edges} edges -> {opts.output}"
    )
    return 0


def _build_parser(runners: dict[str, Runner]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Improved Algorithms "
            "for Maximal Clique Search in Uncertain Networks' (ICDE 2019), "
            "mine user graphs, or export synthetic datasets"
        ),
    )
    subcommands = [
        *runners, *_ALIASES,
        "all", "list", "mine", "query", "dataset", "report",
    ]
    parser.add_argument(
        "experiment",
        choices=subcommands,
        metavar="command",
        help=(
            "an experiment name (see 'list'; 'dpcore' and 'pruning' are "
            "aliases for fig2 and fig4), 'all', 'mine' (clique search on "
            "an edge list), 'query' (anchored clique questions on an "
            "edge list) or 'dataset' (export a synthetic dataset)"
        ),
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="dataset scale factor (default 1.0; smaller is faster)",
    )
    parser.add_argument(
        "--no-baselines",
        action="store_true",
        help="skip slow baseline algorithms (MUCE, MaxUC, MaxRDS)",
    )
    parser.add_argument(
        "--out",
        type=str,
        default=None,
        help="also append the report to this file",
    )
    # mine options
    parser.add_argument("--input", help="edge list ('u v p' lines) to mine")
    parser.add_argument("-k", type=int, default=10, help="clique parameter k")
    parser.add_argument(
        "--tau", type=float, default=0.1, help="probability threshold tau"
    )
    parser.add_argument(
        "--mode",
        choices=("enumerate", "maximum", "top"),
        default="enumerate",
        help="mine mode: all maximal cliques, one maximum, or top-r",
    )
    parser.add_argument(
        "--top", type=int, default=5, help="r for --mode top"
    )
    # query options (--engine also applies to 'mine')
    parser.add_argument(
        "--engine",
        choices=("pivot", "bitset", "legacy"),
        default="pivot",
        help=(
            "search engine for the query command (default pivot: the "
            "compiled kernel with absorbing Tomita pivoting; pivot and "
            "bitset also route pruning through the compiled arrays "
            "kernel)"
        ),
    )
    parser.add_argument(
        "--prune-engine",
        choices=("arrays", "legacy"),
        default="arrays",
        help=(
            "prune-peel engine for the dpcore/pruning experiments "
            "(default arrays: the compiled flat-CSR kernel, one "
            "lowering shared per dataset)"
        ),
    )
    parser.add_argument(
        "--query",
        choices=("containing", "extendable", "exists"),
        default="containing",
        help=(
            "query kind: cliques containing --node, whether --nodes is "
            "extendable, or whether a containing clique exists"
        ),
    )
    parser.add_argument(
        "--node", help="anchor node for --query containing"
    )
    parser.add_argument(
        "--nodes",
        help="comma-separated node set for --query extendable/exists",
    )
    # dataset options
    parser.add_argument("--name", help="dataset name for the export command")
    parser.add_argument(
        "--output", help="output path for the dataset export"
    )
    parser.add_argument(
        "--lam", type=float, default=2.0, help="exponential-model lambda"
    )
    parser.add_argument(
        "--distribution",
        choices=("exponential", "uniform"),
        default="exponential",
        help="probability model for the dataset export",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    runners = _runners()
    parser = _build_parser(runners)
    opts = parser.parse_args(argv)
    opts.experiment = _ALIASES.get(opts.experiment, opts.experiment)

    if opts.experiment == "list":
        for name in runners:
            print(name)
        return 0
    if opts.experiment == "mine":
        if not opts.input:
            parser.error("mine requires --input")
        return _run_mine(opts)
    if opts.experiment == "query":
        if not opts.input:
            parser.error("query requires --input")
        return _run_query(opts)
    if opts.experiment == "dataset":
        if not opts.name or not opts.output:
            parser.error("dataset requires --name and --output")
        return _run_dataset(opts)
    if opts.experiment == "report":
        from repro.experiments.report import generate_report

        text = generate_report(
            scale=opts.scale, include_baselines=not opts.no_baselines
        )
        print(text)
        if opts.out:
            with open(opts.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        return 0

    names = list(runners) if opts.experiment == "all" else [opts.experiment]
    reports: list[str] = []
    for name in names:
        start = time.perf_counter()
        result = runners[name](opts)
        elapsed = time.perf_counter() - start
        report = result.render() + f"\n(ran in {elapsed:.1f}s)\n"
        print(report)
        reports.append(report)
    if opts.out:
        with open(opts.out, "a", encoding="utf-8") as handle:
            handle.write("\n".join(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
