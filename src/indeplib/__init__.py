"""Independent sets of categorical graph products and the tensor capacity.

The categorical (tensor) product G x H joins (g1,h1) to (g2,h2) exactly
when both coordinates are adjacent.  This package computes alpha(G x H)
exactly for structured factor classes, the capacity values a(G) and
Theta^T(G) = a*(G) with exact rationals, and independent domination ratios
of categorical powers, with brute-force oracles for cross-validation.
"""

from .capacity import (
    CapacityResult,
    Engine,
    NeighborhoodProfile,
    a_cograph,
    a_general_exact,
    a_interval,
    a_permutation,
    a_split,
    a_star,
    a_treewidth,
    has_fractional_perfect_matching,
    tensor_capacity,
)
from .cotree import Cotree, cograph_recognize, is_cograph, parse_cotree, realize
from .domination import (
    ri_complete_bipartite_power,
    ri_power_exact,
    ultimate_independent_domination_multipartite,
)
from .errors import (
    IndeplibError,
    InvalidDecomposition,
    InvalidModel,
    LimitExceeded,
    NotACograph,
    NotASplitgraph,
    ParseError,
)
from .graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    empty_graph,
    graph_power,
    path_graph,
    star_graph,
)
from .intersection import (
    IntervalModel,
    PermutationModel,
    realize_interval,
    realize_permutation,
)
from .oracles import a_bruteforce, alpha_exact, independent_domination_exact
from .product_alpha import (
    alpha_product_cographs,
    alpha_product_multipartite,
    alpha_product_split,
    extract_is_from_k4_product,
)
from .ratio import ratio_str
from .splitgraph import SplitPartition, is_splitgraph, split_partition
from .treedecomp import NiceTreeDecomposition, validate_and_nicify

__version__ = "0.1.0"

__all__ = [
    "CapacityResult",
    "Cotree",
    "Engine",
    "Graph",
    "IndeplibError",
    "IntervalModel",
    "InvalidDecomposition",
    "InvalidModel",
    "LimitExceeded",
    "NeighborhoodProfile",
    "NiceTreeDecomposition",
    "NotACograph",
    "NotASplitgraph",
    "ParseError",
    "PermutationModel",
    "SplitPartition",
    "a_bruteforce",
    "a_cograph",
    "a_general_exact",
    "a_interval",
    "a_permutation",
    "a_split",
    "a_star",
    "a_treewidth",
    "alpha_exact",
    "alpha_product_cographs",
    "alpha_product_multipartite",
    "alpha_product_split",
    "categorical_product",
    "cograph_recognize",
    "complete_bipartite",
    "complete_graph",
    "complete_multipartite",
    "cycle_graph",
    "empty_graph",
    "extract_is_from_k4_product",
    "graph_power",
    "has_fractional_perfect_matching",
    "independent_domination_exact",
    "is_cograph",
    "is_splitgraph",
    "parse_cotree",
    "path_graph",
    "ratio_str",
    "realize",
    "realize_interval",
    "realize_permutation",
    "ri_complete_bipartite_power",
    "ri_power_exact",
    "split_partition",
    "star_graph",
    "tensor_capacity",
    "ultimate_independent_domination_multipartite",
    "validate_and_nicify",
]
