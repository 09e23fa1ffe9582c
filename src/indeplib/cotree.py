"""Cotrees: the union/join decomposition trees of P4-free graphs."""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidModel, NotACograph
from .graph import Graph, connected_components

LEAF = "leaf"
UNION = "+"
JOIN = "*"


class Cotree:
    """Canonical cotree node.

    Internal nodes carry >= 2 children and never share their label with the
    parent; children are ordered by least leaf id, which makes equal graphs
    produce equal trees and keeps memoization keys stable.  The leaves and
    the hash are computed once from the children's, and equality walks
    both trees on an explicit stack, so deep trees need no recursion.
    """

    __slots__ = ("kind", "vertex", "children", "_leaves", "_hash")

    def __init__(self, kind, vertex=None, children=()):
        self.kind = kind
        self.vertex = vertex
        self.children = tuple(children)
        if kind == LEAF:
            if vertex is None or vertex < 0:
                raise InvalidModel("leaf needs a non-negative vertex id")
            self._leaves = (vertex,)
        else:
            if kind not in (UNION, JOIN):
                raise InvalidModel(f"unknown cotree label {kind!r}")
            if len(self.children) < 2:
                raise InvalidModel("internal cotree node needs >= 2 children")
            for c in self.children:
                if c.kind == kind:
                    raise InvalidModel("cotree child repeats its parent's label")
            leaves = []
            for c in self.children:
                leaves.extend(c._leaves)
            if len(set(leaves)) != len(leaves):
                raise InvalidModel("duplicate leaf ids in cotree")
            self._leaves = tuple(sorted(leaves))
        self._hash = hash((kind, vertex, tuple(c._hash for c in self.children)))

    @property
    def leaves(self):
        return self._leaves

    @property
    def size(self):
        return len(self._leaves)

    def __eq__(self, other):
        if not isinstance(other, Cotree):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b:
                continue
            if (
                a._hash != b._hash
                or a.kind != b.kind
                or a.vertex != b.vertex
                or len(a.children) != len(b.children)
            ):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Cotree({format_cotree(self)})"


def leaf(v):
    return Cotree(LEAF, vertex=v)


def _merge(kind, parts):
    """Build a canonical internal node, flattening same-label children."""
    flat = []
    for p in parts:
        if p.kind == kind:
            flat.extend(p.children)
        else:
            flat.append(p)
    if len(flat) == 1:
        return flat[0]
    flat.sort(key=lambda c: c.leaves[0])
    return Cotree(kind, children=flat)


def union(*parts):
    return _merge(UNION, parts)


def join(*parts):
    return _merge(JOIN, parts)


def realize(t: Cotree) -> Graph:
    """The labeled graph of a cotree whose leaves are exactly 0..n-1."""
    n = t.size
    if t.leaves != tuple(range(n)):
        raise InvalidModel(f"cotree leaves {t.leaves} are not dense 0..{n - 1}")
    edges = []
    stack = [t]
    while stack:
        node = stack.pop()
        if node.kind == JOIN:
            for a, b in combinations(node.children, 2):
                for u in a.leaves:
                    for v in b.leaves:
                        edges.append((u, v))
        stack.extend(node.children)
    return Graph(n, edges)


def find_p4(g: Graph, vertices=None):
    """An induced P4 (a,b,c,d) with edges ab, bc, cd, or None."""
    if vertices is None:
        vertices = range(g.n)
    for quad in combinations(sorted(vertices), 4):
        sub = [(u, v) for u, v in combinations(quad, 2) if g.has_edge(u, v)]
        if len(sub) != 3:
            continue
        deg = {v: 0 for v in quad}
        for u, v in sub:
            deg[u] += 1
            deg[v] += 1
        ends = sorted(v for v in quad if deg[v] == 1)
        if len(ends) != 2:
            continue
        # walk from the lower endpoint
        edge_set = {frozenset(e) for e in sub}
        path = [ends[0]]
        used = {ends[0]}
        while len(path) < 4:
            nxt = next(
                v for v in quad if v not in used and frozenset((path[-1], v)) in edge_set
            )
            path.append(nxt)
            used.add(nxt)
        return tuple(path)
    return None


def cograph_recognize(g: Graph) -> Cotree:
    """Canonical cotree for g, or NotACograph with an induced-P4 witness.

    Recursive complement-components method, O(n^2) per level; good enough
    since linear time is not a goal here.
    """
    if g.n == 0:
        raise InvalidModel("empty graph has no cotree")

    def build(vertices):
        if len(vertices) == 1:
            return leaf(vertices[0])
        sub = g.subgraph(vertices)
        back = sorted(vertices)
        comp = connected_components(sub)
        ncomp = max(comp) + 1
        if ncomp > 1:
            parts = [
                build([back[i] for i in range(len(back)) if comp[i] == c])
                for c in range(ncomp)
            ]
            return union(*parts)
        cc = connected_components(sub.complement())
        nco = max(cc) + 1
        if nco > 1:
            parts = [
                build([back[i] for i in range(len(back)) if cc[i] == c])
                for c in range(nco)
            ]
            return join(*parts)
        raise NotACograph(find_p4(g, vertices))

    return build(list(range(g.n)))


def is_cograph(g: Graph) -> bool:
    try:
        cograph_recognize(g)
        return True
    except NotACograph:
        return False


# ---------------------------------------------------------------------------
# s-expression text format, e.g. "(* (+ 0 1) 2)" for P3


def format_cotree(t: Cotree) -> str:
    """The s-expression of t, written from an explicit stack of nodes and
    pending text, so depth is limited by memory only."""
    out = []
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node.kind == LEAF:
            out.append(str(node.vertex))
        else:
            out.append(f"({node.kind}")
            stack.append(")")
            for c in reversed(node.children):
                stack.append(c)
                stack.append(" ")
    return "".join(out)


def parse_cotree(text: str) -> Cotree:
    """Parse an s-expression; nesting is tracked on an explicit stack, so
    depth is limited by memory only."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    open_nodes = []  # (kind, children so far) of every unclosed '('
    pos = 0
    while True:
        if pos >= len(tokens):
            if open_nodes:
                raise InvalidModel("missing ')' in cotree expression")
            raise InvalidModel("unexpected end of cotree expression")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            if pos >= len(tokens) or tokens[pos] not in (UNION, JOIN):
                raise InvalidModel("expected + or * after '('")
            open_nodes.append((tokens[pos], []))
            pos += 1
            continue
        if tok == ")":
            if not open_nodes:
                raise InvalidModel("unexpected ')'")
            kind, children = open_nodes.pop()
            node = _merge(kind, children)
        else:
            try:
                v = int(tok)
            except ValueError:
                raise InvalidModel(f"bad cotree token {tok!r}") from None
            node = leaf(v)
        if not open_nodes:
            break
        open_nodes[-1][1].append(node)
    if pos != len(tokens):
        raise InvalidModel("trailing tokens in cotree expression")
    return node
