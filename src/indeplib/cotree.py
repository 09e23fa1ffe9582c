"""Cotrees: the union/join decomposition trees of P4-free graphs."""

from __future__ import annotations

from itertools import combinations

from .errors import InvalidModel, NotACograph
from .graph import Graph, components, mask_to_set, set_to_mask

LEAF = "leaf"
UNION = "+"
JOIN = "*"


class Cotree:
    """Canonical cotree node.

    Internal nodes carry >= 2 children and never share their label with the
    parent; children are ordered by least leaf id, which makes equal graphs
    produce equal trees and keeps memoization keys stable.  Each node keeps
    the mask of its leaves, its size and its hash, computed once from the
    children's; a leaf repeated across children shows as overlapping masks.
    Leaf ids are the vertex ids of the realized graph, dense 0..n-1 (realize
    refuses any other set), so a leaf's mask takes vertex + 1 bits; callers
    building cotrees from outside input bound the ids first, as
    parse_cotree does.
    Equality walks both trees on an explicit stack, so deep trees need no
    recursion.
    """

    __slots__ = ("kind", "vertex", "children", "mask", "size", "_hash")

    def __init__(self, kind, vertex=None, children=()):
        self.kind = kind
        self.vertex = vertex
        self.children = tuple(children)
        if kind == LEAF:
            if vertex is None or vertex < 0:
                raise InvalidModel("leaf needs a non-negative vertex id")
            self.mask, self.size = 1 << vertex, 1
        else:
            if kind not in (UNION, JOIN):
                raise InvalidModel(f"unknown cotree label {kind!r}")
            if len(self.children) < 2:
                raise InvalidModel("internal cotree node needs >= 2 children")
            for c in self.children:
                if c.kind == kind:
                    raise InvalidModel("cotree child repeats its parent's label")
            mask = size = 0
            for c in self.children:
                if mask & c.mask:
                    raise InvalidModel("duplicate leaf ids in cotree")
                mask |= c.mask
                size += c.size
            self.mask, self.size = mask, size
        self._hash = hash((kind, vertex, tuple(c._hash for c in self.children)))

    @property
    def leaves(self):
        """The leaf ids in increasing order."""
        return tuple(sorted(mask_to_set(self.mask)))

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
    flat.sort(key=lambda c: c.mask & -c.mask)
    return Cotree(kind, children=flat)


def realize(t: Cotree) -> Graph:
    """The labeled graph of a cotree whose leaves are exactly 0..n-1.

    Top-down on an explicit stack: each node passes its children the
    vertices that joins above it connect to all of its leaves, and a join
    adds its other children's leaves, so each leaf's mask is set once."""
    n = t.size
    if t.mask != (1 << n) - 1:
        raise InvalidModel(f"cotree leaves {t.leaves} are not dense 0..{n - 1}")
    adj = [0] * n
    stack = [(t, 0)]  # node, and the vertices a join above joins to all its leaves
    while stack:
        node, joined = stack.pop()
        if node.kind == LEAF:
            adj[node.vertex] = joined
        elif node.kind == JOIN:
            stack.extend((c, joined | node.mask & ~c.mask) for c in node.children)
        else:
            stack.extend((c, joined) for c in node.children)
    return Graph._from_symmetric(adj)  # every join pair is set from both ends


def find_p4(g: Graph, vertices=None):
    """The first induced P4 among the 4-subsets of vertices in lexicographic
    order, as (a,b,c,d) with edges ab, bc, cd walked from its lower end, or
    None.  A 4-set induces a P4 exactly when its in-set degrees are 1,1,2,2."""
    if vertices is None:
        vertices = range(g.n)
    adj = g.adj
    for quad in combinations(sorted(vertices), 4):
        sub = set_to_mask(quad)
        degs = [(adj[v] & sub).bit_count() for v in quad]
        if sorted(degs) != [1, 1, 2, 2]:
            continue
        a = quad[degs.index(1)]
        b = (adj[a] & sub).bit_length() - 1
        c = (adj[b] & sub & ~(1 << a)).bit_length() - 1
        d = (adj[c] & sub & ~(1 << b)).bit_length() - 1
        return (a, b, c, d)
    return None


def cograph_recognize(g: Graph, witness=True) -> Cotree:
    """Canonical cotree for g, or NotACograph with an induced-P4 witness.

    A vertex set of a cograph with >= 2 vertices is disconnected in g (a
    union node) or in its complement (a join node).  Sets are split on an
    explicit stack, parts ordered by least vertex and expanded depth first;
    nodes are built children first, already canonical: a part is connected
    in the graph its parent split on, so it never takes its parent's label.
    The witness is find_p4 on the first set, in that order, that splits in
    neither graph; with witness=False that search is skipped and
    NotACograph carries no witness.
    """
    n = g.n
    if n == 0:
        raise InvalidModel("empty graph has no cotree")
    full = (1 << n) - 1
    co = [full & ~m & ~(1 << v) for v, m in enumerate(g.adj)]
    built = []
    stack = [full]  # vertex masks to split, and (kind, arity) nodes to build
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            kind, arity = item
            node = Cotree(kind, children=built[-arity:])
            del built[-arity:]
            built.append(node)
        elif item & (item - 1) == 0:
            built.append(leaf(item.bit_length() - 1))
        else:
            kind, parts = UNION, components(g.adj, item)
            if len(parts) == 1:
                kind, parts = JOIN, components(co, item)
                if len(parts) == 1:
                    raise NotACograph(find_p4(g, mask_to_set(item)) if witness else ())
            stack.append((kind, len(parts)))
            stack.extend(reversed(parts))
    return built[0]


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
    depth is limited by memory only.  Leaf ids must lie below the number
    of leaves, as in every cotree that can be realized; a larger id is
    refused before it becomes a leaf mask of that many bits."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    leaf_count = sum(tok not in ("(", ")", UNION, JOIN) for tok in tokens)
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
            if v >= leaf_count:
                raise InvalidModel(f"cotree leaf id {v} is out of range for {leaf_count} leaves")
            node = leaf(v)
        if not open_nodes:
            break
        open_nodes[-1][1].append(node)
    if pos != len(tokens):
        raise InvalidModel("trailing tokens in cotree expression")
    return node
