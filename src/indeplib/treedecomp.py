"""Tree decompositions in nice form (START / INTRODUCE / FORGET / JOIN with
an empty root bag), checked against their graph when built."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidDecomposition
from .graph import Graph, set_to_mask

START = "start"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


class NiceNode(NamedTuple):
    kind: str
    vertex: int | None  # the introduced/forgotten vertex
    children: tuple  # node indices


class NiceTreeDecomposition:
    """A nice tree decomposition of graph, checked when it is built.

    Nodes are stored in postorder (children before parents); the root is
    the last node and has an empty bag.  A node's bag follows from its kind,
    vertex and children; masks holds each node's bag as a vertex mask, the
    only copy of the bags, and width is the size of the largest bag less one.
    """

    def __init__(self, graph: Graph, nodes):
        self.graph = graph
        self.nodes = tuple(nodes)
        self.masks = _check(graph, self.nodes)
        self.width = max(m.bit_count() for m in self.masks) - 1

    @property
    def root(self):
        return len(self.nodes) - 1


def validate_and_nicify(g: Graph, bags, tree_edges) -> NiceTreeDecomposition:
    """Checks that the bags form a tree and hold only vertices of g, before
    any becomes a mask, then expands them to the nice form of g, which its
    constructor checks.

    Standard expansion: START leaves, INTRODUCE/FORGET chains between
    adjacent bags in increasing vertex order, binary JOINs, FORGET chain to
    an empty root bag.  Every bag appears in the nice form and every nice
    bag lies inside a bag, so the width is preserved and the nice form
    covers what the bags cover; a vertex whose bags are disconnected is
    forgotten once per part.  So the nice-form check settles the coverage
    and connectivity axioms.
    """
    bags = list(bags)
    nb = len(bags)
    if nb == 0:
        raise InvalidDecomposition("tree", "decomposition has no bags")
    adj = [[] for _ in range(nb)]
    for a, b in tree_edges:
        if not (0 <= a < nb and 0 <= b < nb):
            raise InvalidDecomposition("tree", f"tree edge ({a},{b}) out of range")
        adj[a].append(b)
        adj[b].append(a)
    if len(tree_edges) != nb - 1:
        raise InvalidDecomposition("tree", f"{len(tree_edges)} edges for {nb} bags: not a tree")
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != nb:
        raise InvalidDecomposition("tree", "bag tree is disconnected")
    for bag in bags:
        for v in bag:
            if not 0 <= v < g.n:
                raise InvalidDecomposition("nice-form", f"vertex {v} is not a vertex of the graph")
    bags = [set_to_mask(bag) for bag in bags]

    nodes = []

    def emit(kind, vertex=None, children=()):
        nodes.append(NiceNode(kind, vertex, children))
        return len(nodes) - 1

    def transform(idx, src, dst):
        """FORGET src\\dst then INTRODUCE dst\\src, one vertex per node in
        increasing order."""
        for kind, w in ((FORGET, src & ~dst), (INTRODUCE, dst & ~src)):
            while w:
                idx = emit(kind, (w & -w).bit_length() - 1, (idx,))
                w &= w - 1
        return idx

    # Depth-first from bag 0 on an explicit stack of (bag, parent, unvisited
    # neighbors, tops): a child's subtree and its transform chain are emitted
    # before the next child, and a bag's JOINs after all of its children.
    frames = [(0, None, iter(adj[0]), [])]
    while frames:
        b, parent, rest, tops = frames[-1]
        c = next((c for c in rest if c != parent), None)
        if c is not None:
            frames.append((c, b, iter(adj[c]), []))
            continue
        frames.pop()
        idx = tops[0] if tops else transform(emit(START), 0, bags[b])
        for other in tops[1:]:
            idx = emit(JOIN, None, (idx, other))
        if frames:
            frames[-1][3].append(transform(idx, bags[b], bags[frames[-1][0]]))
    transform(idx, bags[0], 0)
    return NiceTreeDecomposition(g, nodes)


def _check(g: Graph, nodes):
    """Checks a nice form of g in one pass over its nodes and returns their
    bag masks, each derived from its node's kind, vertex and children.

    Every child index is below its parent's and every node but the root is
    exactly one node's child, so the nodes form a tree in postorder.  A
    START bag is empty; an INTRODUCE or FORGET vertex is a vertex of g,
    absent from or present in its child's bag, and the node's bag is the
    child's plus or minus it; a JOIN's two children have equal bags, which
    are its bag; and the root bag is empty.  So the bags holding a vertex
    are connected exactly when it is forgotten once.  When v is forgotten,
    each neighbour of v not yet forgotten must be in the child's bag, so
    every edge meets a bag at the first FORGET of its two ends.  That holds
    only once every vertex is forgotten exactly once, so a missed edge is
    refused after the pass, after any vertex in no bag.
    """
    if not nodes:
        raise InvalidDecomposition("tree", "decomposition has no nodes")
    n = g.n
    adj = g.adj
    masks = []
    used = 0  # node indices already some node's child
    forgotten = 0
    edge = None  # the first edge missed
    for i, node in enumerate(nodes):
        children = node.children
        for c in children:
            if not 0 <= c < i or used >> c & 1:
                raise InvalidDecomposition("tree", f"node {i} cannot have child {c}")
            used |= 1 << c
        kids = [masks[c] for c in children]
        kind = node.kind
        v = node.vertex
        if kind == START:
            ok = not kids
            bag = 0
        elif kind == INTRODUCE or kind == FORGET:
            if not 0 <= v < n:
                raise InvalidDecomposition("nice-form", f"vertex {v} is not a vertex of the graph")
            bit = 1 << v
            ok = len(kids) == 1 and bool(kids[0] & bit) == (kind == FORGET)
            bag = kids[0] ^ bit if ok else None
        elif kind == JOIN:
            ok = len(kids) == 2 and kids[0] == kids[1]
            bag = kids[0] if ok else None
        else:
            raise InvalidDecomposition("nice-form", f"unknown node kind {kind!r}")
        if not ok:
            raise InvalidDecomposition("nice-form", f"{kind} node {i} does not match its children")
        if kind == FORGET:
            if forgotten & bit:
                raise InvalidDecomposition(
                    "subtree-connectivity", f"vertex {v} is forgotten twice", witness=v
                )
            missed = adj[v] & ~forgotten & ~kids[0]
            if missed and edge is None:
                edge = tuple(sorted((v, (missed & -missed).bit_length() - 1)))
            forgotten |= bit
        masks.append(bag)
    if used != (1 << (len(nodes) - 1)) - 1:
        raise InvalidDecomposition("tree", "a node below the root is no node's child")
    if masks[-1]:
        raise InvalidDecomposition("nice-form", "the root bag must be empty")
    missing = ~forgotten & ((1 << n) - 1)
    if missing:
        v = (missing & -missing).bit_length() - 1
        raise InvalidDecomposition("vertex-coverage", f"vertex {v} appears in no bag", witness=v)
    if edge is not None:
        raise InvalidDecomposition(
            "edge-coverage", f"edge ({edge[0]},{edge[1]}) is in no bag", witness=edge
        )
    return masks
