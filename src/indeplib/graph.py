"""Undirected simple graphs on dense integer vertex ids.

Adjacency is stored as one bitmask per vertex (Python ints, so any size
works).  Graphs are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import sys

from .config import DEFAULT_POWER_LIMIT
from .errors import LimitExceeded

_DIGIT_BITS = sys.int_info.bits_per_digit


class Graph:
    """Simple undirected graph: no loops, symmetric adjacency, ids 0..n-1."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if n < 0:
            raise ValueError("negative vertex count")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)

    @classmethod
    def _from_symmetric(cls, adj):
        """A graph on adjacency masks that are loop-free and symmetric by
        construction; nothing is checked again."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        return g

    def degree(self, v):
        return self.adj[v].bit_count()

    def degrees(self):
        return [m.bit_count() for m in self.adj]

    def edge_count(self):
        return sum(self.degrees()) // 2

    def edges(self):
        for u in range(self.n):
            w = self.adj[u] >> (u + 1)
            while w:
                v = (w & -w).bit_length() - 1 + u + 1
                yield (u, v)
                w &= w - 1

    def _mask(self, vertices):
        """The vertex mask of vertices, read once; an id outside 0..n-1
        raises ValueError."""
        mask = 0
        for v in vertices:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} not in graph")
            mask |= 1 << v
        return mask

    def is_independent(self, vertices):
        mask = self._mask(vertices)
        return not neighborhood_mask(self.adj, mask) & mask

    def is_clique(self, vertices):
        mask = self._mask(vertices)
        return all((mask & ~self.adj[v]) == 1 << v for v in mask_to_set(mask))

    def subgraph(self, vertices):
        """Induced subgraph; vertex order = sorted(vertices).  Each kept
        vertex's mask is remapped bit by bit onto the new ids."""
        order = sorted(set(vertices))
        if order and not (0 <= order[0] and order[-1] < self.n):
            raise ValueError(f"subgraph vertices must lie in 0..{self.n - 1}")
        pos = {1 << v: i for i, v in enumerate(order)}
        keep = set_to_mask(order)
        adj = []
        for v in order:
            m = self.adj[v] & keep
            row = 0
            while m:
                low = m & -m
                row |= 1 << pos[low]
                m ^= low
            adj.append(row)
        return Graph._from_symmetric(adj)  # an induced subgraph stays symmetric and loop-free

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def mask_to_set(mask):
    out = set()
    while mask:
        out.add((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def set_to_mask(vertices):
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


# ---------------------------------------------------------------------------
# products and powers


def categorical_product(g: Graph, h: Graph) -> Graph:
    """Categorical (tensor/direct/Kronecker) product.

    Vertex (a,b) gets id a*h.n + b (row-major, g-coordinate major).
    (g1,h1) ~ (g2,h2) iff g1~g2 in g and h1~h2 in h.

    The product is built one block row at a time: row (a,b) is h.adj[b]
    copied into the hn-bit block of each neighbour of a (hn = h.n).  For a
    vertex a of many neighbours that is one multiplication, h.adj[b] times
    the mask with one bit at the start of each neighbour's block: the
    blocks do not overlap, so no carries arise and the product equals the
    OR of the shifted copies.  Multiplying costs about one pass over the
    row per digit of h.adj[b] and shifting one pass per neighbour, so a
    vertex a with deg(a) * sys.int_info.bits_per_digit < hn, fewer
    neighbours than a row of H can have digits, ORs shifted copies instead,
    with the shifts computed once per a.
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("empty graph")
    hn = h.n
    hadj = h.adj
    adj = []
    for ga in g.adj:
        shifts = []
        while ga:
            low = ga & -ga
            shifts.append((low.bit_length() - 1) * hn)
            ga ^= low
        if len(shifts) * _DIGIT_BITS < hn:
            for hb in hadj:
                row = 0
                for s in shifts:
                    row |= hb << s
                adj.append(row)
        else:
            spread = sum(1 << s for s in shifts)
            adj.extend([hb * spread for hb in hadj])
    return Graph._from_symmetric(adj)  # symmetric and loop-free, as g and h are


def is_product_independent(g: Graph, h: Graph, ids) -> bool:
    """Whether ids, row-major vertices a*h.n + b of G x H, are distinct, in
    range and pairwise non-adjacent, checked on the factors' rows: rows
    a ~ a2 of G conflict when an id in one has an H-neighbour in the other."""
    hn, size = h.n, g.n * h.n
    rows = {}
    for pid in ids:
        if not 0 <= pid < size:
            return False
        a, b = divmod(pid, hn)
        row = rows.get(a, 0)
        if (row >> b) & 1:
            return False
        rows[a] = row | (1 << b)
    used = set_to_mask(rows)
    for a, row in rows.items():
        near = g.adj[a] & used
        if near:
            reach = neighborhood_mask(h.adj, row)
            if any(reach & rows[a2] for a2 in mask_to_set(near)):
                return False
    return True


def power_size(n, k, limit):
    """n**k for k >= 1, or the first partial power n**j past limit: for
    n >= 2 that takes at most about log2(limit) products, whatever k is."""
    size = n
    for _ in range(k - 1):
        if size > limit or size <= 1:
            break
        size *= n
    return size


def graph_power(g: Graph, k: int, limit=DEFAULT_POWER_LIMIT) -> Graph:
    """k-fold categorical product G x ... x G, left-associated.  K1 is its
    own power."""
    if k < 1:
        raise ValueError("power must be >= 1")
    size = power_size(g.n, k, limit)
    if size > limit:
        raise LimitExceeded(
            f"graph power needs {g.n}^{k} vertices, limit is {limit}", required=size
        )
    if k == 1 or g.n == 1:
        return g  # graphs are immutable
    out = g
    for _ in range(k - 1):
        out = categorical_product(out, g)
    return out


def neighborhood_mask(adj, mask):
    """N(S) as a vertex mask: the union of adj[v] over the bits v of the
    vertex mask S.  adj is anything indexed by vertex id (a graph's
    ``adj``, or a dict of neighbour masks).  S is independent exactly when
    ``not neighborhood_mask(adj, S) & S``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def neighborhood(g: Graph, vertices) -> set:
    """Open neighborhood N(S) as a vertex set (may intersect S)."""
    return mask_to_set(neighborhood_mask(g.adj, g._mask(vertices)))


def components(adj, mask):
    """Connected components of the subgraph induced on the vertex mask, as
    vertex masks ordered by least vertex; adj holds one neighbour mask per
    vertex (a graph's ``adj``, or the masks of its complement)."""
    parts = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            frontier = neighborhood_mask(adj, frontier) & mask & ~comp
            comp |= frontier
        parts.append(comp)
        mask &= ~comp
    return parts


# ---------------------------------------------------------------------------
# generators


def empty_graph(n):
    return Graph(n)


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycle needs >= 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves):
    """K_{1,leaves} with the center at vertex 0."""
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(m, n):
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def complete_multipartite(sizes) -> Graph:
    """Join of edgeless classes; vertices grouped class by class."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise ValueError("class sizes must be a nonempty list of positive integers")
    bounds = [0]
    for s in sizes:
        bounds.append(bounds[-1] + s)
    edges = []
    for i in range(len(sizes)):
        for j in range(i + 1, len(sizes)):
            for u in range(bounds[i], bounds[i + 1]):
                for v in range(bounds[j], bounds[j + 1]):
                    edges.append((u, v))
    return Graph(bounds[-1], edges)

