"""Deterministic-graph substrate: k-core, coloring, cliques, components.

Every algorithm here operates on the deterministic graph ``~G`` underlying an
:class:`~repro.uncertain.UncertainGraph` (probabilities ignored unless stated
otherwise).
"""

from repro.deterministic.core_decomposition import (
    core_numbers,
    degeneracy,
    degeneracy_ordering,
    k_core,
)
from repro.deterministic.coloring import greedy_coloring, color_count
from repro.deterministic.components import (
    connected_components,
    component_subgraphs,
    is_connected,
)
from repro.deterministic.cliques import (
    bron_kerbosch,
    bron_kerbosch_degeneracy,
    maximum_clique_size,
)

__all__ = [
    "core_numbers",
    "degeneracy",
    "degeneracy_ordering",
    "k_core",
    "greedy_coloring",
    "color_count",
    "connected_components",
    "component_subgraphs",
    "is_connected",
    "bron_kerbosch",
    "bron_kerbosch_degeneracy",
    "maximum_clique_size",
]
