"""Tree decompositions: validation of the three axioms and conversion to
nice form (START / INTRODUCE / FORGET / JOIN with an empty root bag)."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidDecomposition
from .graph import Graph

START = "start"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass(frozen=True)
class NiceNode:
    kind: str
    bag: frozenset
    vertex: int | None  # the introduced/forgotten vertex
    children: tuple  # node indices


class NiceTreeDecomposition:
    """Nodes stored in postorder (children before parents); the root is the
    last node and has an empty bag."""

    def __init__(self, nodes, width):
        self.nodes = tuple(nodes)
        self.width = width

    @property
    def root(self):
        return len(self.nodes) - 1


def validate_decomposition(g: Graph, bags, tree_edges):
    """Checks the three tree-decomposition axioms; raises with a witness."""
    bags = [frozenset(b) for b in bags]
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

    covered = set().union(*bags)
    for v in range(g.n):
        if v not in covered:
            raise InvalidDecomposition(
                "vertex-coverage", f"vertex {v} appears in no bag", witness=v
            )
    for u, v in g.edges():
        if not any(u in b and v in b for b in bags):
            raise InvalidDecomposition(
                "edge-coverage", f"edge ({u},{v}) is in no bag", witness=(u, v)
            )
    for v in range(g.n):
        holding = [i for i in range(nb) if v in bags[i]]
        # the bags holding v must induce a connected subtree
        hold = set(holding)
        comp = {holding[0]}
        stack = [holding[0]]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if b in hold and b not in comp:
                    comp.add(b)
                    stack.append(b)
        if comp != hold:
            raise InvalidDecomposition(
                "subtree-connectivity",
                f"bags containing vertex {v} are disconnected",
                witness=v,
            )
    return bags, adj


def validate_and_nicify(g: Graph, bags, tree_edges) -> NiceTreeDecomposition:
    """Checks the axioms, then expands to nice form.

    Standard expansion: empty START leaves, INTRODUCE/FORGET chains between
    adjacent bags, binary JOINs, FORGET chain to an empty root bag.  Width
    is preserved and the axioms are re-verified on the result.
    """
    bags, adj = validate_decomposition(g, bags, tree_edges)
    width = max(len(b) for b in bags) - 1
    nodes = []

    def emit(kind, bag, vertex=None, children=()):
        nodes.append(NiceNode(kind, frozenset(bag), vertex, tuple(children)))
        return len(nodes) - 1

    def chain_from_empty(target):
        idx = emit(START, frozenset())
        bag = set()
        for v in sorted(target):
            bag.add(v)
            idx = emit(INTRODUCE, set(bag), v, (idx,))
        return idx

    def transform(idx, src, dst):
        """FORGET src\\dst then INTRODUCE dst\\src, one vertex per node."""
        bag = set(src)
        for v in sorted(src - dst):
            bag.discard(v)
            idx = emit(FORGET, set(bag), v, (idx,))
        for v in sorted(dst - src):
            bag.add(v)
            idx = emit(INTRODUCE, set(bag), v, (idx,))
        return idx

    def build(b, parent):
        children = [c for c in adj[b] if c != parent]
        tops = []
        for c in children:
            sub = build(c, b)
            tops.append(transform(sub, bags[c], bags[b]))
        if not tops:
            return chain_from_empty(bags[b])
        idx = tops[0]
        for other in tops[1:]:
            idx = emit(JOIN, bags[b], None, (idx, other))
        return idx

    root_bag = 0
    top = build(root_bag, None)
    transform(top, bags[root_bag], frozenset())
    nice = NiceTreeDecomposition(nodes, width)
    _recheck(g, nice, width)
    return nice


def _recheck(g: Graph, nice: NiceTreeDecomposition, width):
    nice_bags = [set(n.bag) for n in nice.nodes]
    edges = []
    for i, n in enumerate(nice.nodes):
        for c in n.children:
            edges.append((i, c))
        if n.kind == JOIN:
            for c in n.children:
                if n.bag != nice.nodes[c].bag:
                    raise InvalidDecomposition("nice-form", "join child bag differs")
    validate_decomposition(g, nice_bags, edges)
    if max(len(b) for b in nice_bags) - 1 > width:
        raise InvalidDecomposition("nice-form", "width increased during nicification")
