"""Exponential oracles: exact alpha, maximal-independent-set enumeration,
brute-force a(G), and the independent domination number.

Every polynomial engine in the library is validated against these.
"""

from fractions import Fraction

from . import kernels
from .config import DEFAULT_ALPHA_LIMIT, DEFAULT_BRUTEFORCE_LIMIT
from .errors import LimitExceeded
from .graph import Graph, connected_components, mask_to_set


def alpha_exact(g: Graph, limit=None):
    """Exact maximum independent set: (size, witness vertex set).

    Branch and bound per connected component; deterministic witness (the
    first optimum under the kernels' fixed branching order).
    """
    if limit is None:
        limit = DEFAULT_ALPHA_LIMIT
    if g.n > limit:
        raise LimitExceeded(f"alpha_exact limited to {limit} vertices, got {g.n}", required=g.n)
    comp = connected_components(g)
    ncomp = max(comp) + 1 if comp else 0
    total = 0
    witness = set()
    for c in range(ncomp):
        vertices = [v for v in range(g.n) if comp[v] == c]
        if len(vertices) == 1:
            total += 1
            witness.add(vertices[0])
            continue
        pos = {v: i for i, v in enumerate(vertices)}
        adj = [0] * len(vertices)
        for v in vertices:
            m = g.adj[v]
            row = 0
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                row |= 1 << pos[u]
            adj[pos[v]] = row
        size, mask = kernels.max_independent_set(adj)
        total += size
        witness.update(vertices[i] for i in mask_to_set(mask))
    return total, witness


def enumerate_maximal_independent_sets(g: Graph):
    """Every maximal independent set exactly once, as frozensets, in a
    deterministic order.  The count is at most 3^(n/3) (Moon-Moser)."""
    for mask in kernels.maximal_independent_sets(list(g.adj)):
        yield frozenset(mask_to_set(mask))


def a_bruteforce(g: Graph, limit=DEFAULT_BRUTEFORCE_LIMIT):
    """Exact a(G) = max |I|/(|I|+|N(I)|) over nonempty independent sets,
    by enumerating all subsets.  Returns (Ratio, witness set)."""
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
    return min(mask.bit_count() for mask in kernels.maximal_independent_sets(list(g.adj)))
