"""Tensor capacity: a(G), a*(G) and Theta^T(G) = a*(G).

a(G) maximizes |I| / (|I| + |N(I)|) over nonempty independent sets I; a*
rounds values above 1/2 up to 1.  Per-class engines (cograph, splitgraph,
interval, permutation, bounded treewidth) run polynomial dynamic programs;
the general engine scans maximal independent sets and solves a ratio
minimization per set.  All values are exact Fractions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .config import DEFAULT_ALPHA_LIMIT
from .cotree import LEAF, UNION, Cotree, realize
from .errors import InvalidDecomposition, LimitExceeded, VerificationError
from .flow import min_ratio_subset
from .graph import Graph, components, mask_to_set, neighborhood, set_to_mask
from .intersection import IntervalModel, PermutationModel, realize_interval, realize_permutation
from .kernels import bipartite_matching
from .splitgraph import SplitPartition
from .treedecomp import FORGET, INTRODUCE, JOIN, START, NiceTreeDecomposition


class Engine(enum.Enum):
    COGRAPH = "cograph"
    SPLIT = "split"
    INTERVAL = "interval"
    PERMUTATION = "permutation"
    TREEWIDTH = "treewidth"
    GENERAL = "general"


def a_star(a: Fraction) -> Fraction:
    """a if a <= 1/2, else 1."""
    if not 0 <= a <= 1:
        raise ValueError(f"a must lie in [0,1], got {a}")
    return Fraction(1) if a > Fraction(1, 2) else Fraction(a)


@dataclass(frozen=True)
class CapacityResult:
    a: Fraction
    a_star: Fraction
    witness: frozenset
    engine: Engine
    has_fpm: bool


class NeighborhoodProfile:
    """Table ell(k) = minimum |N(I)| over independent sets of size k.

    Defined for k = 0..alpha only; larger k are absent rather than carrying
    an infinity sentinel, so min-plus convolutions cannot silently corrupt.
    Each defined k keeps one witness set achieving the minimum.
    """

    def __init__(self, table, witnesses):
        self.table = dict(table)
        self.witnesses = {k: frozenset(w) for k, w in witnesses.items()}
        if self.table.get(0) != 0 or set(self.table) != set(self.witnesses):
            raise VerificationError("profile needs ell(0) = 0 and one witness per size")
        for k, w in self.witnesses.items():
            if len(w) != k:
                raise VerificationError(f"profile witness for k={k} has {len(w)} vertices")

    @property
    def alpha(self):
        return max(self.table)

    def ell(self, k):
        return self.table[k]

    def best(self):
        """(a, k, witness) maximizing k/(k + ell(k)) over k >= 1."""
        best = None
        for k in sorted(self.table):
            if k == 0:
                continue
            ratio = Fraction(k, k + self.table[k])
            if best is None or ratio > best[0]:
                best = (ratio, k, self.witnesses[k])
        if best is None:
            raise ValueError("profile has no nonempty independent set")
        return best

    def verify(self, g: Graph):
        for k, w in self.witnesses.items():
            if not g.is_independent(w):
                raise VerificationError(f"profile witness for k={k} is not independent")
            if len(neighborhood(g, w)) != self.table[k]:
                raise VerificationError(
                    f"profile witness for k={k} does not attain ell(k) = {self.table[k]}"
                )


def _finish(g: Graph, a, witness, engine) -> CapacityResult:
    witness = frozenset(witness)
    if not witness or not g.is_independent(witness):
        raise VerificationError(f"{engine.value} witness is empty or not independent")
    if Fraction(len(witness), len(witness) + len(neighborhood(g, witness))) != a:
        raise VerificationError(f"{engine.value} witness does not attain a = {a}")
    astar = a_star(a)
    fpm = has_fractional_perfect_matching(g)
    if (astar == 1) == fpm:
        raise VerificationError("a* = 1 must match the absence of a fractional perfect matching")
    return CapacityResult(a, astar, witness, engine, fpm)


# ---------------------------------------------------------------------------
# cographs


def cograph_profile(t: Cotree) -> NeighborhoodProfile:
    """Bottom-up profile: unions convolve (min-plus), joins take the best
    child and pay for every vertex of the other children.  Nodes are solved
    in reverse preorder, so children come first and deep cotrees do not
    recurse."""
    stack, order = [t], []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    solved = {}  # id(node) -> profile, until the parent takes it
    for node in reversed(order):
        if node.kind == LEAF:
            profile = NeighborhoodProfile({0: 0, 1: 0}, {0: set(), 1: {node.vertex}})
        elif node.kind == UNION:
            table = {0: 0}
            wits = {0: frozenset()}
            for child in node.children:
                cp = solved.pop(id(child))
                nt, nw = {}, {}
                for k1, e1 in table.items():
                    for k2, e2 in cp.table.items():
                        k = k1 + k2
                        if k not in nt or e1 + e2 < nt[k]:
                            nt[k] = e1 + e2
                            nw[k] = wits[k1] | cp.witnesses[k2]
                table, wits = nt, nw
            profile = NeighborhoodProfile(table, wits)
        else:
            # join: a nonempty independent set sits inside one child and
            # sees every vertex of the other children
            table = {0: 0}
            wits = {0: frozenset()}
            for child in node.children:
                other = node.size - child.size
                cp = solved.pop(id(child))
                for k, e in cp.table.items():
                    if k == 0:
                        continue
                    if k not in table or e + other < table[k]:
                        table[k] = e + other
                        wits[k] = cp.witnesses[k]
            profile = NeighborhoodProfile(table, wits)
        solved[id(node)] = profile
    return solved[id(t)]


def a_cograph(t: Cotree) -> CapacityResult:
    g = realize(t)
    profile = cograph_profile(t)
    profile.verify(g)
    a, _, witness = profile.best()
    return _finish(g, a, witness, Engine.COGRAPH)


# ---------------------------------------------------------------------------
# splitgraphs


def a_split(g: Graph, part: SplitPartition) -> CapacityResult:
    """max of the independent-side value a0 = 1/(1+nu) (nu from the ratio
    minimizer over S) and the clique value a1 = (n-d)/n, d the minimum
    degree over C."""
    part.validate(g)
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    s_side = sorted(part.independent)
    c_side = sorted(part.clique)
    best = None
    if s_side:
        subset, nu = min_ratio_subset(s_side, g.adj)
        a0 = Fraction(1, 1) / (1 + nu)
        best = (a0, frozenset(subset))
    if c_side:
        d, c = min((g.degree(v), v) for v in c_side)
        witness = frozenset(set(range(g.n)) - set(g.neighbors(c)))
        a1 = Fraction(g.n - d, g.n)
        if best is None or a1 > best[0]:
            best = (a1, witness)
    return _finish(g, best[0], best[1], Engine.SPLIT)


# ---------------------------------------------------------------------------
# interval and permutation graphs (chain dynamic programs)


def _chain_dp(g: Graph, order, chain_ok):
    """Shared O(n^2 * alpha) DP on the graph's masks.

    order lists the vertices in processing order; chain_ok(y, x) says that y
    may precede x in an independent chain (strictly left, no intersection).
    Requires the class property that a common neighbor of two chain members
    is also a neighbor of everything between them, which makes
    |N(x) \\ N(y)| the exact increment.  Row of x: {k: (cost, witness mask)}
    for the best chain of k vertices ending in x; on equal cost the first
    predecessor in order wins.
    """
    adj = g.adj
    rows = {}
    for x in order:
        ax, bit = adj[x], 1 << x
        row = {1: (ax.bit_count(), bit)}
        for y, prev in rows.items():
            if not chain_ok(y, x):
                continue
            inc = (ax & ~adj[y]).bit_count()
            for k, (cost, wit) in prev.items():
                cost += inc
                old = row.get(k + 1)
                if old is None or cost < old[0]:
                    row[k + 1] = (cost, wit | bit)
        rows[x] = row
    result = None
    for row in rows.values():  # x in order, then k ascending (rows fill up in k)
        for k, (cost, wit) in row.items():
            ratio = Fraction(k, k + cost)
            if result is None or ratio > result[0]:
                result = (ratio, wit)
    return result[0], frozenset(mask_to_set(result[1]))


def a_interval(model: IntervalModel) -> CapacityResult:
    if model.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    g = realize_interval(model)
    ivs = model.intervals
    order = sorted(range(model.n), key=lambda v: (ivs[v][1], ivs[v][0], v))

    def chain_ok(y, x):
        return ivs[y][1] < ivs[x][0]

    a, witness = _chain_dp(g, order, chain_ok)
    return _finish(g, a, witness, Engine.INTERVAL)


def a_permutation(model: PermutationModel) -> CapacityResult:
    if model.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    g = realize_permutation(model)
    order = list(range(model.n))
    a, witness = _chain_dp(g, order, model.left_of)
    return _finish(g, a, witness, Engine.PERMUTATION)


# ---------------------------------------------------------------------------
# bounded treewidth


def treewidth_profile(g: Graph, d: NiceTreeDecomposition) -> NeighborhoodProfile:
    """Profile via the nice-decomposition DP.

    Entry key: (mask of bag vertices in I, mask of bag vertices with a
    processed neighbor in I, k = |I| over processed vertices).  Value:
    (m, witness mask) with m the number of processed vertices known to lie
    in N(I) and witness one I achieving it.  A vertex's neighbor count is
    final when it is forgotten, because all its neighbors live in bags of
    the current subtree.
    """
    tables = []
    for node in d.nodes:
        bag = node.bag
        if node.kind == START:
            if bag:
                raise InvalidDecomposition("nice-form", "start bags must be empty")
            tab = {(0, 0, 0): (0, 0)}
        elif node.kind == INTRODUCE:
            bit = 1 << node.vertex
            child = tables[node.children[0]]
            tab = {}

            def put(key, m, wit):
                if key not in tab or m < tab[key][0]:
                    tab[key] = (m, wit)

            xnbrs = g.adj[node.vertex] & set_to_mask(bag)
            for (inb, nbrb, k), (m, wit) in child.items():
                if not xnbrs & inb:
                    # x joins I: free bag neighbors of x become NBR
                    promoted = xnbrs & ~nbrb
                    put((inb | bit, nbrb | promoted, k + 1), m + promoted.bit_count(), wit | bit)
                    put((inb, nbrb, k), m, wit)  # x stays free
                else:
                    put((inb, nbrb | bit, k), m + 1, wit)
        elif node.kind == FORGET:
            keep = ~(1 << node.vertex)
            child = tables[node.children[0]]
            tab = {}
            for (inb, nbrb, k), (m, wit) in child.items():
                key = (inb & keep, nbrb & keep, k)
                if key not in tab or m < tab[key][0]:
                    tab[key] = (m, wit)
        elif node.kind == JOIN:
            left = tables[node.children[0]]
            right = tables[node.children[1]]
            by_in = {}
            for key in right:
                by_in.setdefault(key[0], []).append(key)
            tab = {}
            for (inb, nbr1, k1), (m1, w1) in left.items():
                for key2 in by_in.get(inb, ()):
                    _, nbr2, k2 = key2
                    m2, w2 = right[key2]
                    k = k1 + k2 - inb.bit_count()
                    m = m1 + m2 - (nbr1 & nbr2).bit_count()
                    key = (inb, nbr1 | nbr2, k)
                    if key not in tab or m < tab[key][0]:
                        tab[key] = (m, w1 | w2)
        else:
            raise InvalidDecomposition("nice-form", f"unknown node kind {node.kind!r}")
        tables.append(tab)

    root = tables[d.root]
    table = {}
    wits = {}
    for (inb, nbrb, k), (m, wit) in root.items():
        if inb or nbrb:
            raise InvalidDecomposition("nice-form", "the root bag must be empty")
        if k not in table or m < table[k]:
            table[k] = m
            wits[k] = wit
    return NeighborhoodProfile(table, {k: mask_to_set(w) for k, w in wits.items()})


def a_treewidth(g: Graph, d: NiceTreeDecomposition) -> CapacityResult:
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    profile = treewidth_profile(g, d)
    profile.verify(g)
    a, _, witness = profile.best()
    return _finish(g, a, witness, Engine.TREEWIDTH)


# ---------------------------------------------------------------------------
# general graphs


def a_general_exact(g: Graph, limit=None) -> CapacityResult:
    """Scan maximal independent sets; per set I, minimize |N(S)|/|S| over
    nonempty S inside I, which gives max_S |S|/(|S|+|N(S)|) = 1/(1+nu).

    Each minimization is priced at the best nu so far, so a set that can
    only do worse costs one cut; ties are still solved, which keeps the
    witness the lexicographically smallest among the best sets."""
    if limit is None:
        limit = DEFAULT_ALPHA_LIMIT
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    if g.n > limit:
        raise LimitExceeded(
            f"a_general_exact limited to {limit} vertices, got {g.n}", required=g.n
        )
    best = None
    price = None  # nu = 1/a - 1 of the best set so far
    for mask in kernels.maximal_independent_sets(list(g.adj)):
        iset = []
        while mask:
            low = mask & -mask
            iset.append(low.bit_length() - 1)
            mask ^= low
        found = min_ratio_subset(iset, g.adj, price)
        if found is None:
            continue
        subset, nu = found
        a = Fraction(1, 1) / (1 + nu)
        wit = frozenset(subset)
        if best is None or a > best[0] or (a == best[0] and sorted(wit) < sorted(best[1])):
            best = (a, wit)
            price = nu
    return _finish(g, best[0], best[1], Engine.GENERAL)


def has_fractional_perfect_matching(g: Graph) -> bool:
    """True iff G has a fractional perfect matching.

    The maximum fractional matching value is half the maximum matching of
    the bipartite double cover, which is exactly G x K2; a fractional
    perfect matching therefore exists iff that matching saturates both
    sides, i.e. has size |V(G)|.
    """
    full = (1 << g.n) - 1
    _, mate_r, _, _ = bipartite_matching(g.adj, full, full)
    return len(mate_r) == g.n


# ---------------------------------------------------------------------------
# dispatch


def _require_same_graph(g: Graph, certified: Graph):
    if g.adj != certified.adj:
        raise ValueError("certificate does not match the supplied graph")


def tensor_capacity(
    g: Graph = None,
    *,
    cotree: Cotree = None,
    split: SplitPartition = None,
    interval: IntervalModel = None,
    permutation: PermutationModel = None,
    decomposition: NiceTreeDecomposition = None,
    limit=None,
) -> CapacityResult:
    """Theta^T(G) = a*(G) with engine dispatch.

    A class certificate selects its engine (preference when several are
    given: cograph, split, interval, permutation, treewidth); a bare graph
    goes to the general engine, per connected component, combining by max
    (a and Theta^T of a disjoint union are the componentwise maxima).
    """
    if cotree is not None:
        result = a_cograph(cotree)
        if g is not None:
            _require_same_graph(g, realize(cotree))
        return result
    if split is not None:
        if g is None:
            raise ValueError("a split certificate needs the graph")
        return a_split(g, split)
    if interval is not None:
        result = a_interval(interval)
        if g is not None:
            _require_same_graph(g, realize_interval(interval))
        return result
    if permutation is not None:
        result = a_permutation(permutation)
        if g is not None:
            _require_same_graph(g, realize_permutation(permutation))
        return result
    if decomposition is not None:
        if g is None:
            raise ValueError("a tree decomposition needs the graph")
        return a_treewidth(g, decomposition)
    if g is None:
        raise ValueError("tensor_capacity needs a graph or a certificate")
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    parts = components(g.adj, (1 << g.n) - 1)
    if len(parts) == 1:
        return a_general_exact(g, limit=limit)
    best = None
    for part in parts:
        verts = sorted(mask_to_set(part))
        sub = g.subgraph(verts)
        res = a_general_exact(sub, limit=limit)
        wit = frozenset(verts[v] for v in res.witness)
        if best is None or res.a > best[0]:
            best = (res.a, wit)
    return _finish(g, best[0], best[1], Engine.GENERAL)
