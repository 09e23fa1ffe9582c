"""Tensor capacity: a(G), a*(G) and Theta^T(G) = a*(G).

a(G) maximizes |I| / (|I| + |N(I)|) over nonempty independent sets I; a*
rounds values above 1/2 up to 1.  All six engines run one Dinkelbach loop,
_dinkelbach.  Its step is a pass over the cotree, a chain DP (interval and
permutation graphs), a tree-decomposition DP, or, for split and general
graphs, one flow.max_gain on an independent set (min_ratio_subset).  The
split engine solves the independent side.  The general engine solves one
greedy set, then runs a branch and bound over each component's independent
sets that records the sets strictly beating the best a so far: a node is
dropped unless some extension of its chosen set may beat it, and a node
whose candidates are independent is finished by Dinkelbach steps.
flow.max_gain is the one flow question of both engines: every step on an
independent set, and the bound when the whole candidate set fails it.
Where the whole set passes, the bound fills a clique cover of the
candidates with max_gain's own greedy fill, flow.strands_more.
Every engine hands its witness to _finish as a vertex mask, checked by the
same routine as each Dinkelbach step's.  All values are exact Fractions.
"""

from __future__ import annotations

import enum
import sys
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, NamedTuple

from . import _lazy_getattr, flow
from .config import DEFAULT_ALPHA_LIMIT
from .errors import LimitExceeded, VerificationError
from .graph import Graph, components, mask_to_set, neighborhood_mask, set_to_mask
from .kernels import bipartite_matching

if TYPE_CHECKING:
    from .cotree import Cotree
    from .intersection import IntervalModel, PermutationModel
    from .splitgraph import SplitPartition
    from .treedecomp import NiceTreeDecomposition

# The class modules load on first use, so a bare graph imports none of
# them.  Engines read these names as attributes of this module, once per
# call, so a name rebound here (the benchmark's tracer wraps the realize
# functions) is the one that runs.
__getattr__ = _lazy_getattr(
    globals(),
    {
        "LEAF": "cotree",
        "UNION": "cotree",
        "realize": "cotree",
        "realize_interval": "intersection",
        "realize_permutation": "intersection",
        "START": "treedecomp",
        "INTRODUCE": "treedecomp",
        "FORGET": "treedecomp",
    },
)
# this module as an object, whose attribute reads reach __getattr__
_lazy = sys.modules[__name__]


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


class CapacityResult(NamedTuple):
    a: Fraction
    a_star: Fraction
    witness: frozenset
    engine: Engine
    has_fpm: bool


class NeighborhoodProfile:
    """Table ell(k) = minimum |N(I)| over independent sets of size k.

    No engine builds one: a Dinkelbach step finds a without the size
    dimension.  The table stays as a public type for callers that want the
    whole trade-off between |I| and |N(I)|, and as the shape of the
    size-indexed reference DPs the tests check the engines against.

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
            what = f"profile k={k}"
            if not all(0 <= v < g.n for v in w):
                raise VerificationError(f"{what} witness has vertices outside the graph")
            if _witness_counts(g, set_to_mask(w), what)[1] != self.table[k]:
                raise VerificationError(f"{what} witness does not attain ell(k) = {self.table[k]}")


def _witness_counts(g: Graph, mask, what):
    """(|I|, |N(I)|) of the vertex mask I, from g's adjacency masks.

    Raises VerificationError if I has a vertex outside g or is not
    independent in g; every witness an engine reports passes here."""
    if mask >> g.n:
        raise VerificationError(f"{what} witness has vertices outside the graph")
    nbrs = neighborhood_mask(g.adj, mask)
    if nbrs & mask:
        raise VerificationError(f"{what} witness is not independent")
    return mask.bit_count(), nbrs.bit_count()


def _finish(g: Graph, a, witness, engine) -> CapacityResult:
    """Check the witness mask against g and a, then add a* and the fpm test."""
    size, nbrs = _witness_counts(g, witness, engine.value)
    if not size:
        raise VerificationError(f"{engine.value} witness is empty")
    if Fraction(size, size + nbrs) != a:
        raise VerificationError(f"{engine.value} witness does not attain a = {a}")
    astar = a_star(a)
    fpm = has_fractional_perfect_matching(g)
    if (astar == 1) == fpm:
        raise VerificationError("a* = 1 must match the absence of a fractional perfect matching")
    return CapacityResult(a, astar, frozenset(mask_to_set(witness)), engine, fpm)


def _dinkelbach(g: Graph, step, start):
    """(a, witness mask) by Dinkelbach's iteration (1967) on integers.

    From a set of ratio a = p/q, step(gain=q - p, pen=p) returns the maximum
    of gain*|I| - pen*|N(I)| over independent sets I with a witness mask;
    the maximum is positive exactly when some I has a ratio above p/q.
    While it is, the loop moves to the witness's ratio; it stops at 0, which
    the current set attains.  The loop starts at the vertex mask start,
    which must be a nonempty independent set of g, and the witness is the
    set found by the last improving step, or start if none improves.

    Each improving witness is checked against g: it must be an independent
    set of g whose gain*|I| - pen*|N(I)| is the reported value.  A step fed
    a malformed certificate then raises VerificationError instead of
    looping, and the checked ratio strictly increases, so the loop ends.
    """
    size, nbrs = _witness_counts(g, start, "Dinkelbach start")
    if not size:
        raise ValueError("the Dinkelbach loop needs a nonempty start set")
    witness, p, q = start, size, size + nbrs
    while True:
        gain, pen = q - p, p
        value, mask = step(gain=gain, pen=pen)
        if value <= 0:
            return Fraction(p, q), witness
        size, nbrs = _witness_counts(g, mask, "Dinkelbach step")
        if gain * size - pen * nbrs != value:
            raise VerificationError(
                f"Dinkelbach step reported {value}, its witness attains {gain * size - pen * nbrs}"
            )
        witness, p, q = mask, size, size + nbrs


def _greedy_start(g: Graph):
    """The DP engines' start: a nonempty independent vertex mask I.

    One pass over the vertices in order of degree, least first on ties; a
    vertex outside I | N(I) joins when |I|/(|I| + |N(I)|) does not drop.
    The first vertex always joins, so the start's ratio is at least that
    of the least vertex of minimum degree."""
    adj = g.adj
    start = nbrs = size = count = 0  # I, N(I), |I|, |N(I)|
    for v in sorted(range(g.n), key=lambda u: adj[u].bit_count()):
        if (start | nbrs) >> v & 1:
            continue
        grown = nbrs | adj[v]
        more = grown.bit_count()
        # (size + 1) / (size + 1 + more) >= size / (size + count)
        if (size + 1) * (size + count) >= size * (size + 1 + more):
            start |= 1 << v
            nbrs, size, count = grown, size + 1, more
    return start


def _by_steps(g: Graph, step, engine) -> CapacityResult:
    """The DP engines' common tail: _dinkelbach from _greedy_start, then _finish."""
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    a, witness = _dinkelbach(g, step, _greedy_start(g))
    return _finish(g, a, witness, engine)


def _realized(g: Graph, realize, model) -> Graph:
    """The graph the certificate model realizes, which must be g if given."""
    certified = realize(model)
    if g is not None and g.adj != certified.adj:
        raise ValueError("certificate does not match the supplied graph")
    return certified


def min_ratio_subset(g: Graph, mask):
    """(a, witness mask): the largest |S|/(|S| + |N(S)|) over nonempty S
    inside the independent vertex mask, and the largest S attaining it.

    The Dinkelbach loop starts at the whole mask, and each step is the
    general search's leaf step from the empty set, one flow.max_gain of the
    mask against N(mask).  Cut sides nest as the price falls, so the last
    improving cut's side (or the whole mask) is that largest S.  The split
    and general engines call this through the module global, under the
    name the benchmark's tracer wraps.
    """
    ground = neighborhood_mask(g.adj, mask)
    return _dinkelbach(g, partial(_extend, g.adj, 0, 0, mask, ground), mask)


# ---------------------------------------------------------------------------
# cographs


def cograph_profile(t: Cotree, gain, pen):
    """One Dinkelbach step on the cotree, O(n).

    Returns (max of gain*|I| - pen*|N(I)| over independent sets I, a
    witness mask); a maximum of 0 is the empty set's, (0, 0).  Nodes are
    solved in reverse preorder, so children come first and deep cotrees do
    not recurse.  A leaf is worth gain; a union adds the values of its
    children that are positive; a nonempty independent set under a join
    lies in one child and sees every vertex of the others, so a join keeps
    its first child of strictly largest value less pen times the other
    children's vertex count.  A node's value is exact, with its witness,
    whenever it is positive, which is all the step's maximum needs.  The
    engine calls this through the module global, under the name the
    benchmark's tracer wraps.
    """
    leaf, union = _lazy.LEAF, _lazy.UNION
    stack, order = [t], []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    # in reverse preorder each child's subtree is solved just before its
    # parent and leaves one (value, witness mask) pair, so a node's children
    # are the last entries of solved, in order
    solved = []
    for node in reversed(order):
        if node.kind == leaf:
            solved.append((gain, 1 << node.vertex))
            continue
        k = len(node.children)
        kids = solved[-k:]
        del solved[-k:]
        if node.kind == union:
            value = mask = 0
            for cv, cm in kids:
                if cv > 0:
                    value += cv
                    mask |= cm
            best = (value, mask)
        else:
            best = None
            for child, (cv, cm) in zip(node.children, kids):
                cv -= pen * (node.size - child.size)
                if best is None or cv > best[0]:
                    best = (cv, cm)
        solved.append(best)
    best = solved[0]
    return best if best[0] > 0 else (0, 0)


def a_cograph(t: Cotree, g: Graph = None) -> CapacityResult:
    """The cograph engine; g, if given, must be the graph t realizes."""
    g = _realized(g, _lazy.realize, t)
    return _by_steps(g, partial(cograph_profile, t), Engine.COGRAPH)


# ---------------------------------------------------------------------------
# splitgraphs


def a_split(g: Graph, part: SplitPartition) -> CapacityResult:
    """max of the independent-side value a0 (min_ratio_subset over S) and
    the clique value a1 = (n-d)/n, d the minimum degree over C."""
    part.validate(g)
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    best = None
    if part.independent:
        best = min_ratio_subset(g, set_to_mask(part.independent))
    if part.clique:
        d, c = min((g.degree(v), v) for v in part.clique)
        witness = ((1 << g.n) - 1) & ~g.adj[c]
        a1 = Fraction(g.n - d, g.n)
        if best is None or a1 > best[0]:
            best = (a1, witness)
    return _finish(g, best[0], best[1], Engine.SPLIT)


# ---------------------------------------------------------------------------
# interval, permutation and bounded-treewidth graphs


def _chain_dp(g: Graph, order, ends, gain, pen):
    """One Dinkelbach step on an interval or permutation graph, O(n^2).

    Returns (max of gain*|C| - pen*|N(C)| over independent chains C, a
    witness mask); the empty chain gives (0, 0).  order lists the vertices
    in processing order; with ends[v] = (lo, hi), an earlier y may precede
    x in an independent chain exactly when ends[y][1] < ends[x][0].
    Requires the class property that a common neighbor of two chain members
    is also a neighbor of everything between them, which makes
    |N(x) \\ N(y)| the exact increment.  A row holds the value of the best
    chain ending in its vertex and its predecessor's row; a row and the
    result keep their first strict maximizer in processing order, and one
    walk back from the best row builds the witness.  The engines call this
    through the module global, so a wrapper installed on the name (the
    benchmark's tracer) sees every step.
    """
    adj = g.adj
    rows = []  # (hi, adj[y], value, predecessor row or None, y) per vertex y
    top, best = 0, None
    for x in order:
        lo, hi = ends[x]
        ax = adj[x]
        value, prev = -pen * ax.bit_count(), None
        for row in rows:
            if row[0] < lo:
                v = row[2] - pen * (ax & ~row[1]).bit_count()
                if v > value:
                    value, prev = v, row
        row = (hi, ax, value + gain, prev, x)
        rows.append(row)
        if row[2] > top:
            top, best = row[2], row
    mask = 0
    while best is not None:
        mask |= 1 << best[4]
        best = best[3]
    return top, mask


def a_interval(model: IntervalModel, g: Graph = None) -> CapacityResult:
    """The interval engine; g, if given, must be the graph model realizes."""
    g = _realized(g, _lazy.realize_interval, model)
    ivs = model.intervals
    order = sorted(range(model.n), key=lambda v: (ivs[v][1], ivs[v][0], v))
    return _by_steps(g, partial(_chain_dp, g, order, ivs), Engine.INTERVAL)


def a_permutation(model: PermutationModel, g: Graph = None) -> CapacityResult:
    """The permutation engine; g, if given, must be the graph model realizes."""
    g = _realized(g, _lazy.realize_permutation, model)
    ends = [(p, p) for p in model.perm]
    return _by_steps(g, partial(_chain_dp, g, range(model.n), ends), Engine.PERMUTATION)


def treewidth_profile(g: Graph, d: NiceTreeDecomposition, gain, pen):
    """One Dinkelbach step on the nice-decomposition DP; d is a nice form
    of g, checked when it was built.

    Returns (max of gain*|I| - pen*|N(I)| over independent sets I, a
    witness mask).  Entry key: (mask of bag vertices in I, mask of bag
    vertices with a processed neighbor in I).  Value: (gain * |I| - pen * m,
    witness mask), I over processed vertices and m the number of processed
    vertices known to lie in N(I).  A vertex's neighbor count is final when
    it is forgotten, because all its neighbors live in bags of the current
    subtree.  Each key keeps its first strict maximizer.  The engine calls
    this through the module global, under the name the benchmark's tracer
    wraps.
    """
    start, introduce, forget = _lazy.START, _lazy.INTRODUCE, _lazy.FORGET
    adj = g.adj
    masks = d.masks
    tables = []
    for node in d.nodes:
        if node.kind == start:
            tab = {(0, 0): (0, 0)}
        elif node.kind == introduce:
            x, c = node.vertex, node.children[0]
            bit = 1 << x
            child = tables[c]
            xnbrs = adj[x] & masks[c]
            # x is not in its child's bag, so no child key holds it: the
            # keys where x stays free or cannot join are distinct and are
            # stored at once; only the keys where x joins I can meet
            tab = {}
            for key, entry in child.items():
                inb, nbrb = key
                if xnbrs & inb:
                    tab[inb, nbrb | bit] = (entry[0] - pen, entry[1])
                    continue
                # x joins I: free bag neighbors of x become NBR
                promoted = xnbrs & ~nbrb
                value = entry[0] + gain - pen * promoted.bit_count()
                joined = (inb | bit, nbrb | promoted)
                old = tab.get(joined)
                if old is None or value > old[0]:
                    tab[joined] = (value, entry[1] | bit)
                tab[key] = entry  # x stays free
        elif node.kind == forget:
            keep = ~(1 << node.vertex)
            tab = {}
            for (inb, nbrb), entry in tables[node.children[0]].items():
                key = (inb & keep, nbrb & keep)
                old = tab.get(key)
                if old is None or entry[0] > old[0]:
                    tab[key] = entry
        else:  # join
            left = tables[node.children[0]]
            right = tables[node.children[1]]
            by_in = {}
            for (inb, nbr2), entry in right.items():
                by_in.setdefault(inb, []).append((nbr2, entry))
            tab = {}
            for (inb, nbr1), (v1, w1) in left.items():
                shared = gain * inb.bit_count()
                for nbr2, (v2, w2) in by_in.get(inb, ()):
                    value = v1 + v2 - shared + pen * (nbr1 & nbr2).bit_count()
                    key = (inb, nbr1 | nbr2)
                    if key not in tab or value > tab[key][0]:
                        tab[key] = (value, w1 | w2)
        tables.append(tab)
    return tables[d.root][0, 0]  # the root bag is empty


def a_treewidth(g: Graph, d: NiceTreeDecomposition) -> CapacityResult:
    if d.graph != g:
        raise ValueError("decomposition does not match the supplied graph")
    return _by_steps(g, partial(treewidth_profile, g, d), Engine.TREEWIDTH)


# ---------------------------------------------------------------------------
# general graphs


def a_general_exact(g: Graph, limit=None) -> CapacityResult:
    """a(G) by a branch and bound over the independent sets of each
    connected component, with one price, the best a so far, across them.

    a of a disjoint union is the largest a of its parts, so the search runs
    on each component's mask in turn, in order of least vertex, and limit
    bounds each component; all are checked before any search.

    The search looks only for sets that strictly beat the best a so far, in
    any component, and the witness is the last strict improvement.  Both
    start from one greedy maximal independent set, solved before the
    search: from the least vertex of minimum degree, it adds the candidate
    with the fewest candidate neighbours, least first on ties.  Its maximal
    maximizer (min_ratio_subset) is the first witness and its a the first
    price.  An isolated vertex attains a = 1, which no set beats, so a graph
    with one runs no search; otherwise _search walks each component."""
    if limit is None:
        limit = DEFAULT_ALPHA_LIMIT
    if g.n == 0:
        raise ValueError("capacity of the empty graph is undefined")
    adj = g.adj
    parts = components(adj, (1 << g.n) - 1)
    for part in parts:
        size = part.bit_count()
        if size > limit:
            raise LimitExceeded(
                f"a_general_exact limited to {limit} vertices, got {size}", required=size
            )
    # a pick changes no candidate count outside its component, so the set
    # grows one component at a time as it would over the whole graph
    greedy = 0
    for part in parts:
        cand = part
        while cand:
            v = min(mask_to_set(cand), key=lambda u: ((adj[u] & cand).bit_count(), u))
            greedy |= 1 << v
            cand &= ~adj[v] & ~(1 << v)
    a, witness = min_ratio_subset(g, greedy)
    if a != 1:  # else an isolated vertex attains a = 1, which no set beats
        for part in parts:
            a, witness = _search(g, part, a, witness)
    return _finish(g, a, witness, Engine.GENERAL)


def _search(g: Graph, part, a, witness):
    """(a, witness mask) after the general engine's search of the vertex
    mask part, from the price a that the witness attains.

    A depth-first include/exclude search on an explicit stack.  A node is
    (I, N(I), C): C holds the candidates outside I | N(I) that no branch
    above has excluded.  At each node the candidates with no neighbour
    outside N(I) join I at once, as they only raise its ratio.  If I then
    strictly beats the price a = p/q, it is recorded and raises the price.
    A node whose candidates are pairwise non-adjacent is a leaf: every
    I | T with T inside C is independent, and _extend finds the best,
    re-run at each raised price by _dinkelbach until it finds nothing; the
    right side of each step's flow is N(C) \\ N(I), which the pass below
    has already ORed.  Any other node is dropped unless some independent T
    inside C may have (q-p)*|T| - p*|N(T) \\ N(I)| above p*|N(I)| -
    (q-p)*|I|: only then can a set below it beat the price.  Two
    relaxations answer this.  The pass over C ORs the candidates'
    neighbour masks, so T = C, independent or not, is tested there.  If
    T = C does not beat the threshold, flow.max_gain asks the same of every
    subset of C.  If it does, that relaxation cannot drop the node, and
    _clique_bound asks it of a clique cover of C instead, which T meets at
    most once per clique.  A kept node branches on its candidate with the
    most candidate neighbours, least id on ties, and searches the branch
    that takes it first.  That vertex has a candidate neighbour, so the
    search tree has O*(1.4656^n) nodes, from T(n) <= T(n-1) + T(n-3).  The
    price only rises, so a dropped node hides no set that the search would
    record."""
    adj = g.adj
    p, q = a.numerator, a.denominator
    stack = [(0, 0, part)]  # (I, N(I), C) as vertex masks
    while stack:
        inset, nbrs, cand = stack.pop()
        # one pass: the free candidates join, the others' neighbours are ORed,
        # and the branch vertex is found
        top = branch = reach = 0
        outside = ~nbrs
        m = cand
        while m:
            low = m & -m
            m ^= low
            av = adj[low.bit_length() - 1]
            if not av & outside:
                inset |= low
                cand ^= low
                continue
            reach |= av
            d = (av & cand).bit_count()
            if d > top:
                top, branch = d, low
        size, count = inset.bit_count(), nbrs.bit_count()
        if size and size * q > p * (size + count):
            if _witness_counts(g, inset, Engine.GENERAL.value) != (size, count):
                raise VerificationError("the general search lost track of a set's neighbours")
            a, witness = Fraction(size, size + count), inset
            p, q = a.numerator, a.denominator
        if not cand:
            continue
        ground = reach & outside  # N(C) \ N(I)
        if not branch:
            step = partial(_extend, adj, inset, nbrs, cand, ground)
            a, witness = _dinkelbach(g, step, witness)
            p, q = a.numerator, a.denominator
            continue
        threshold = p * count - (q - p) * size
        whole = (q - p) * cand.bit_count() - p * ground.bit_count()
        if whole > threshold:
            if _clique_bound(adj, cand, ground, q - p, p, threshold):
                continue
        elif flow.max_gain(cand, adj, ground, q - p, p, threshold) is None:
            continue
        v = branch.bit_length() - 1
        stack.append((inset, nbrs, cand ^ branch))
        stack.append((inset | branch, nbrs | adj[v], cand & ~adj[v] & ~branch))
    return a, witness


def _clique_bound(adj, cand, ground, gain, pen, threshold):
    """True if no independent T inside the vertex mask cand has
    gain*|T| - pen*|N(T) & ground| above threshold, by a greedy clique
    cover of cand (the colouring bound of maximum-clique branch and bound,
    Tomita & Seki 2003, on the complement); False if the cover cannot show
    it.

    Each clique starts at the least vertex not yet covered and adds the
    least vertex adjacent to all of its members.  T takes at most one
    vertex of each clique K, and that vertex sees all of common(K), the
    ground vertices adjacent to every member of K.  So gain*|T| -
    pen*|N(T) & ground| is at most gain*|X| - pen*|union of common(K)| for
    the set X of cliques T meets: the flow question of max_gain with one
    S-vertex per clique, of supply gain, and common(K) as its neighbours.
    The greedy fill (flow.strands_more) answers it, cliques with fewer
    common vertices first; no cut runs here.  The cover stops as soon as
    the fill cannot succeed: once the cliques built so far strand more
    than threshold on their own, each clique K at least gain -
    pen*|common(K)|, or when the whole cover does, gain*|cover| less pen
    per common vertex."""
    commons = []
    union = short = 0
    rest = cand
    while rest:
        low = rest & -rest
        av = adj[low.bit_length() - 1]
        common = av & ground
        rest ^= low
        m = rest & av
        while m:
            low = m & -m
            av = adj[low.bit_length() - 1]
            common &= av
            rest ^= low
            m &= av
        commons.append(common)
        union |= common
        left = gain - pen * common.bit_count()
        if left > 0:
            short += left
            if short > threshold:
                return False
    if gain * len(commons) - pen * union.bit_count() > threshold:
        return False
    commons.sort(key=int.bit_count)
    return not flow.strands_more(range(len(commons)), commons, ground, gain, pen, threshold)


def _extend(adj, inset, nbrs, cand, ground, gain, pen):
    """One Dinkelbach step at a leaf of the general search: (the maximum of
    gain*|J| - pen*|N(J)| over J = I | T, T inside the independent mask
    cand, with the largest such J), or (0, 0) when no J beats the price.
    One flow.max_gain of cand against ground, its neighbours outside N(I)
    (the mask nbrs), finds T."""
    threshold = pen * nbrs.bit_count() - gain * inset.bit_count()
    found = flow.max_gain(cand, adj, ground, gain, pen, threshold)
    if found is None:
        return 0, 0
    return found[0] - threshold, inset | found[1]


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

    A class certificate selects its engine, and two are refused; a bare
    graph goes to the general engine, which solves each connected
    component and combines by max (a and Theta^T of a disjoint union are
    the componentwise maxima); limit bounds each component's vertex count.
    Each branch is one call of a public engine, with g if given: the
    cotree, interval and permutation engines realize their certificate once
    and refuse a g that differs before any step runs.
    """
    if sum(c is not None for c in (cotree, split, interval, permutation, decomposition)) > 1:
        raise ValueError("tensor_capacity takes at most one certificate")
    if cotree is not None:
        return a_cograph(cotree, g)
    if split is not None:
        if g is None:
            raise ValueError("a split certificate needs the graph")
        return a_split(g, split)
    if interval is not None:
        return a_interval(interval, g)
    if permutation is not None:
        return a_permutation(permutation, g)
    if decomposition is not None:
        return a_treewidth(decomposition.graph if g is None else g, decomposition)
    if g is None:
        raise ValueError("tensor_capacity needs a graph or a certificate")
    return a_general_exact(g, limit=limit)
