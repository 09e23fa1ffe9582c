"""Split graphs: partition into a clique C and an independent set S."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import NotASplitgraph
from .graph import Graph, mask_to_set, set_to_mask


@dataclass(frozen=True)
class SplitPartition:
    clique: frozenset
    independent: frozenset

    def validate(self, g: Graph):
        C, S = self.clique, self.independent
        if C & S or (C | S) != set(range(g.n)):
            raise ValueError("clique/independent sides do not partition V")
        if not g.is_clique(C):
            raise ValueError("clique side is not a clique")
        if not g.is_independent(S):
            raise ValueError("independent side is not independent")


def _find_obstruction(g: Graph):
    """First induced 2K2, C4 or C5 in lexicographic subset order, every
    4-subset before any 5-subset.  A 4-set induces a 2K2 when each of its
    vertices has one neighbour inside it and a C4 when each has two; a
    5-set induces a C5 when each has two."""
    adj = g.adj
    for quad in combinations(range(g.n), 4):
        sub = set_to_mask(quad)
        degs = {(adj[v] & sub).bit_count() for v in quad}
        if degs == {1}:
            return "2K2", quad
        if degs == {2}:
            return "C4", quad
    for five in combinations(range(g.n), 5):
        sub = set_to_mask(five)
        if all((adj[v] & sub).bit_count() == 2 for v in five):
            return "C5", five
    return None


def split_partition(g: Graph, obstruction=True) -> SplitPartition:
    """A split partition, or NotASplitgraph with a 2K2/C4/C5 witness.

    Determinism: among all valid partitions the clique side is maximized,
    ties broken by lexicographically smallest C.  Once the degree test
    passes, the base C is a maximum clique (Hammer & Simeone 1981), so the
    only other clique sides of its size are swaps (C - u) + v where u is
    v's only non-neighbor in C and u has no neighbor in S - v.  With
    obstruction=False a graph that fails the degree test raises
    NotASplitgraph with no witness (kind None), skipping the scan of every
    4- and 5-subset; callers that drop the witness pass it.
    """
    n = g.n
    if n == 0:
        return SplitPartition(frozenset(), frozenset())
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = max((i + 1 for i in range(n) if degs[i] >= i), default=0)
    top = sum(degs[:m])
    rest = sum(degs[m:])
    base_c = order[:m]
    base_s = order[m:]
    if top != m * (m - 1) + rest or not g.is_clique(base_c) or not g.is_independent(base_s):
        if not obstruction:
            raise NotASplitgraph(None, ())
        found = _find_obstruction(g)
        if found is None:
            raise RuntimeError("degree test rejected a graph with no 2K2/C4/C5")
        raise NotASplitgraph(*found)
    c_mask = set_to_mask(base_c)
    s_mask = set_to_mask(base_s)
    best = c_mask
    for v in base_s:
        missed = c_mask & ~g.adj[v]
        if missed.bit_count() != 1 or g.adj[missed.bit_length() - 1] & s_mask & ~(1 << v):
            continue
        swap = c_mask ^ missed ^ (1 << v)
        diff = swap ^ best
        if swap & diff & -diff:  # the least differing vertex is in swap
            best = swap
    clique = frozenset(mask_to_set(best))
    return SplitPartition(clique, frozenset(range(n)) - clique)


def is_splitgraph(g: Graph) -> bool:
    try:
        split_partition(g)
        return True
    except NotASplitgraph:
        return False
