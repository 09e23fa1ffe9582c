"""Independent sets of categorical graph products and the tensor capacity.

The categorical (tensor) product G x H joins (g1,h1) to (g2,h2) exactly
when both coordinates are adjacent.  This package computes alpha(G x H)
exactly for structured factor classes, the capacity values a(G) and
Theta^T(G) = a*(G) with exact rationals, and independent domination ratios
of categorical powers, with brute-force oracles for cross-validation.

Importing the package loads none of its modules: each name in __all__ is
imported from its module on first access (PEP 562), so a command line run
pays only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "capacity": (
        "CapacityResult",
        "Engine",
        "NeighborhoodProfile",
        "a_cograph",
        "a_general_exact",
        "a_interval",
        "a_permutation",
        "a_split",
        "a_star",
        "a_treewidth",
        "has_fractional_perfect_matching",
        "tensor_capacity",
    ),
    "cotree": ("Cotree", "cograph_recognize", "parse_cotree", "realize"),
    "domination": (
        "ri_complete_bipartite_power",
        "ri_power_exact",
        "ultimate_independent_domination_multipartite",
    ),
    "errors": (
        "IndeplibError",
        "InvalidDecomposition",
        "InvalidModel",
        "LimitExceeded",
        "NotACograph",
        "NotASplitgraph",
        "ParseError",
    ),
    "graph": (
        "Graph",
        "categorical_product",
        "complete_bipartite",
        "complete_graph",
        "complete_multipartite",
        "cycle_graph",
        "empty_graph",
        "graph_power",
        "path_graph",
        "star_graph",
    ),
    "intersection": (
        "IntervalModel",
        "PermutationModel",
        "realize_interval",
        "realize_permutation",
    ),
    "oracles": ("a_bruteforce", "alpha_exact", "independent_domination_exact"),
    "product_alpha": (
        "alpha_product_cographs",
        "alpha_product_split",
        "extract_is_from_k4_product",
    ),
    "ratio": ("ratio_str",),
    "splitgraph": ("SplitPartition", "split_partition"),
    "treedecomp": ("NiceTreeDecomposition", "validate_and_nicify"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def _lazy_getattr(namespace, where):
    """A module __getattr__ (PEP 562) for the module whose globals are
    namespace.  A name in where, a dict from name to a module of this
    package, is imported from that module on first access and stored in
    namespace, so later reads, and any rebinding of the name on the module,
    never reach the hook again."""

    def __getattr__(name):
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(f"{__name__}.{module}"), name)
        return value

    return __getattr__


__getattr__ = _lazy_getattr(
    globals(), {name: module for module, names in _EXPORTS.items() for name in names}
)


def __dir__():
    return sorted(set(globals()) | set(__all__))
