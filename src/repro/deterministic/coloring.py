"""Greedy graph coloring with degree ordering (Hasenplaugh et al. [30]).

Section V uses a proper coloring of the pruned deterministic graph as the
basis of all three upper bounds for maximum (k, tau)-clique search: nodes of
one clique must all receive distinct colors, so the number of colors among a
candidate set bounds how many of its members can join the clique.
"""

from __future__ import annotations

from typing import Callable, Collection, Hashable, Iterable, Sequence, TypeVar

from repro.uncertain.graph import Node, UncertainGraph

__all__ = ["greedy_coloring", "greedy_coloring_rows", "color_count"]

_T = TypeVar("_T", bound=Hashable)


def greedy_coloring(
    graph: UncertainGraph, order: Iterable[Node] | None = None
) -> dict[Node, int]:
    """Assign each node the smallest color unused by its neighbors.

    ``order`` defaults to largest-degree-first, the classic heuristic that
    keeps the color count close to the chromatic number on real-world
    graphs.  Colors are consecutive ints starting at 0.
    """
    if order is None:
        order = sorted(graph.nodes(), key=graph.degree, reverse=True)
    return _first_fit(order, graph.incident)


def greedy_coloring_rows(adjacency: Sequence[Collection[int]]) -> list[int]:
    """:func:`greedy_coloring` of the graph whose node ``i`` has the
    neighbours ``adjacency[i]``, its nodes iterating in index order:
    ``result[i]`` is node ``i``'s color."""
    order = sorted(
        range(len(adjacency)), key=lambda i: len(adjacency[i]), reverse=True
    )
    colors = _first_fit(order, lambda i: adjacency[i])
    return [colors[i] for i in range(len(adjacency))]


def _first_fit(
    order: Iterable[_T], neighbours: Callable[[_T], Iterable[_T]]
) -> dict[_T, int]:
    colors: dict[_T, int] = {}
    for u in order:
        taken = {colors[v] for v in neighbours(u) if v in colors}
        color = 0
        while color in taken:
            color += 1
        colors[u] = color
    return colors


def color_count(colors: dict[Node, int], nodes: Iterable[Node]) -> int:
    """``col(C)`` — the number of distinct colors among ``nodes``."""
    return len({colors[u] for u in nodes})
