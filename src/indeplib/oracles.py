"""Exponential oracles: exact alpha, brute-force a(G), and the independent
domination number.

Every polynomial engine in the library is validated against these.
"""

from fractions import Fraction

from . import kernels
from .config import DEFAULT_BRUTEFORCE_LIMIT, check_oracle_limit
from .errors import LimitExceeded
from .graph import Graph, components, mask_to_set


def alpha_exact(g: Graph, limit=None):
    """Exact maximum independent set: (size, witness vertex set).

    kernels.max_independent_set on each connected component's mask, in
    order of least vertex; the witness is the union of the components'
    witnesses, each the first optimum under the kernel's fixed branching
    order, so it is reproducible.  The search keeps its branches on an
    explicit stack, so its depth is not bounded by the recursion limit.
    limit (IL_ORACLE_LIMIT if None) bounds each component, all checked first.
    """
    parts = components(g.adj, (1 << g.n) - 1)
    check_oracle_limit("alpha_exact", *map(int.bit_count, parts), limit=limit)
    total = witness = 0
    for part in parts:
        size, mask = kernels.max_independent_set(g.adj, part)
        total += size
        witness |= mask
    return total, mask_to_set(witness)


def a_bruteforce(g: Graph, limit=DEFAULT_BRUTEFORCE_LIMIT):
    """Exact a(G) = max |I|/(|I|+|N(I)|) over nonempty independent sets,
    by enumerating all subsets.  Returns (Fraction, witness set)."""
    if g.n == 0:
        raise ValueError("a(G) is undefined for the empty graph")
    if g.n > limit:
        raise LimitExceeded(f"a_bruteforce limited to {limit} vertices, got {g.n}", required=g.n)
    adj = g.adj
    # independent[mask] via DP on the lowest bit
    independent = bytearray(1 << g.n)
    independent[0] = 1
    best = Fraction(0)
    best_mask = 0
    for mask in range(1, 1 << g.n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        if independent[rest] and not adj[low] & rest:
            independent[mask] = 1
            nbrs = 0
            m = mask
            while m:
                nbrs |= adj[(m & -m).bit_length() - 1]
                m &= m - 1
            k = mask.bit_count()
            val = Fraction(k, k + nbrs.bit_count())
            if val > best:
                best = val
                best_mask = mask
    return best, mask_to_set(best_mask)


def independent_domination_exact(g: Graph, limit=DEFAULT_BRUTEFORCE_LIMIT):
    """i(G): size of the smallest maximal independent set."""
    if g.n > limit:
        raise LimitExceeded(
            f"independent_domination_exact limited to {limit} vertices, got {g.n}",
            required=g.n,
        )
    if g.n == 0:
        return 0
    full = (1 << g.n) - 1
    return min(mask.bit_count() for mask in kernels.maximal_independent_sets(g.adj, full))
