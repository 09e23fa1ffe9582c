"""Independent domination ratios of categorical powers of complete
(multi)partite graphs.

r_i(G) = i(G)/|V(G)| with i the independent domination number (smallest
maximal independent set); the ultimate ratio I(G) is the limit of r_i(G^k).
For complete bipartite graphs the k-th power splits into complete bipartite
components, which yields a closed form; for complete multipartite graphs
the limit is 1/2 exactly in the balanced bipartite case and 0 otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import index
from typing import TYPE_CHECKING

from .config import DEFAULT_BRUTEFORCE_LIMIT
from .errors import LimitExceeded

if TYPE_CHECKING:
    from .graph import Graph


def _integer(value, what):
    """value as an int (operator.index): int() would truncate 2.9 and parse
    "3"; anything else raises ValueError naming it."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def ri_complete_bipartite_power(m: int, n: int, k: int) -> Fraction:
    """r_i(K(m,n)^k) exactly.

    The k-th categorical power decomposes into C(k-1, l) complete bipartite
    components with sides m^(k-l) n^l and m^l n^(k-l); each contributes its
    smaller side to the domination number.
    """
    m, n, k = _integer(m, "m"), _integer(n, "n"), _integer(k, "k")
    if m < 1 or n < 1 or k < 1:
        raise ValueError("m, n, k must be positive")
    total = sum(
        comb(k - 1, l) * min(m ** (k - l) * n**l, m**l * n ** (k - l))
        for l in range(k)
    )
    return Fraction(total, (m + n) ** k)


def ultimate_independent_domination_multipartite(sizes) -> Fraction:
    """I(G) for complete multipartite G: 1/2 iff exactly two equal classes,
    otherwise 0.  Requires at least two classes (no isolated vertices)."""
    sizes = [_integer(s, "class size") for s in sizes]
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    if len(sizes) < 2:
        raise ValueError("need at least two classes: a single class has isolated vertices")
    if len(sizes) == 2 and sizes[0] == sizes[1]:
        return Fraction(1, 2)
    return Fraction(0)


def ri_power_exact(g: Graph, k: int) -> Fraction:
    """Brute-force r_i(G^k) = i(G^k) / |V(G)|^k (oracle bound on |V|^k)."""
    from .graph import graph_power, power_size
    from .oracles import independent_domination_exact

    if k < 1:
        raise ValueError("k must be positive")
    limit = DEFAULT_BRUTEFORCE_LIMIT
    size = power_size(g.n, k, limit)
    if size > limit:
        raise LimitExceeded(
            f"r_i oracle limited to {limit} vertices, got {g.n}^{k}", required=size
        )
    power = graph_power(g, k)
    return Fraction(independent_domination_exact(power), power.n)
