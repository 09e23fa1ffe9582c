"""Undirected simple graphs on dense integer vertex ids.

Adjacency is stored as one bitmask per vertex (Python ints, so any size
works).  Graphs are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

from .config import DEFAULT_POWER_LIMIT
from .errors import LimitExceeded


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
    def from_adj(cls, adj):
        g = cls._from_symmetric(adj)
        full = (1 << g.n) - 1
        for v, mask in enumerate(g.adj):
            if mask & (1 << v):
                raise ValueError(f"self-loop at vertex {v}")
            if mask & ~full:
                raise ValueError(f"adjacency of vertex {v} out of range")
        for v, mask in enumerate(g.adj):
            w = mask
            while w:
                u = (w & -w).bit_length() - 1
                if not g.adj[u] & (1 << v):
                    raise ValueError(f"adjacency not symmetric at ({v},{u})")
                w &= w - 1
        return g

    @classmethod
    def _from_symmetric(cls, adj):
        """A graph on adjacency masks that are loop-free and symmetric by
        construction; unlike from_adj, nothing is checked again."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g.adj = tuple(adj)
        return g

    def has_edge(self, u, v):
        return bool(self.adj[u] & (1 << v))

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

    def neighbors(self, v):
        return mask_to_set(self.adj[v])

    def is_independent(self, vertices):
        mask = set_to_mask(vertices)
        for v in vertices:
            if self.adj[v] & mask:
                return False
        return True

    def is_clique(self, vertices):
        mask = set_to_mask(vertices)
        for v in vertices:
            if (mask & ~self.adj[v]) != (1 << v):
                return False
        return True

    def subgraph(self, vertices):
        """Induced subgraph; vertex order = sorted(vertices)."""
        order = sorted(vertices)
        pos = {v: i for i, v in enumerate(order)}
        edges = [(pos[u], pos[v]) for u in order for v in order if u < v and self.has_edge(u, v)]
        return Graph(len(order), edges)

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
    """
    if g.n == 0 or h.n == 0:
        raise ValueError("empty graph")
    hn = h.n
    # Adjacency of (a,b) = rows of g.adj[a] expanded blockwise with h.adj[b].
    adj = [0] * (g.n * hn)
    hadj = h.adj
    for a in range(g.n):
        ga = g.adj[a]
        abase = a * hn
        for b in range(hn):
            row = 0
            w = ga
            while w:
                a2 = (w & -w).bit_length() - 1
                row |= hadj[b] << (a2 * hn)
                w &= w - 1
            adj[abase + b] = row
    return Graph._from_symmetric(adj)  # symmetric and loop-free, as g and h are


def graph_power(g: Graph, k: int, limit=DEFAULT_POWER_LIMIT) -> Graph:
    """k-fold categorical product G x ... x G, left-associated."""
    if k < 1:
        raise ValueError("power must be >= 1")
    size = g.n**k
    if size > limit:
        raise LimitExceeded(
            f"graph power needs {size} vertices, limit is {limit}", required=size
        )
    if k == 1:
        return g  # graphs are immutable
    out = g
    for _ in range(k - 1):
        out = categorical_product(out, g)
    return out


def neighborhood(g: Graph, vertices) -> set:
    """Open neighborhood N(S) as a vertex set (may intersect S)."""
    mask = 0
    for v in vertices:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} not in graph")
        mask |= g.adj[v]
    return mask_to_set(mask)


def components(adj, mask):
    """Connected components of the subgraph induced on the vertex mask, as
    vertex masks ordered by least vertex; adj holds one neighbour mask per
    vertex (a graph's ``adj``, or the masks of its complement)."""
    parts = []
    while mask:
        comp = frontier = mask & -mask
        while frontier:
            reach = 0
            while frontier:
                reach |= adj[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & mask & ~comp
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


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph._from_symmetric(list(g.adj) + [m << g.n for m in h.adj])


def join(g: Graph, h: Graph) -> Graph:
    u = disjoint_union(g, h)
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    adj = list(u.adj)
    for v in range(g.n):
        adj[v] |= hmask
    for v in range(g.n, g.n + h.n):
        adj[v] |= gmask
    return Graph._from_symmetric(adj)
