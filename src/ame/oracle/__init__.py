"""Numerical oracle: explicit states, reductions, and Bloch weight data."""

from .basis import bloch_coefficients, one_site_basis, weight_distribution_basis
from .fixtures import BUILTIN_NAMES, ame62, ame62_graph, builtin_state, ring5
from .search import find_ame_graph
from .states import (
    GraphSpec,
    StateVector,
    ame43,
    basis_index,
    bell,
    ghz,
    graph_state,
    load_state,
    ring_graph,
    save_state,
)
from .weights import (
    DensityMatrix,
    UniformityReport,
    WeightDistribution,
    k_uniformity,
    partial_trace,
    projector_property_residual,
    subset_purity,
    weight_distribution,
)

__all__ = [
    "BUILTIN_NAMES",
    "DensityMatrix",
    "GraphSpec",
    "StateVector",
    "UniformityReport",
    "WeightDistribution",
    "ame43",
    "ame62",
    "ame62_graph",
    "basis_index",
    "bell",
    "bloch_coefficients",
    "builtin_state",
    "find_ame_graph",
    "ghz",
    "graph_state",
    "k_uniformity",
    "load_state",
    "one_site_basis",
    "partial_trace",
    "projector_property_residual",
    "ring5",
    "ring_graph",
    "save_state",
    "subset_purity",
    "weight_distribution",
    "weight_distribution_basis",
]
