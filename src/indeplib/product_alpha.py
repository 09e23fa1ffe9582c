"""Maximum independent sets of categorical products for structured factors:
cographs (cotree recursion), splitgraphs (three bipartite cases), complete
multipartite graphs (closed form), and the K4-product extraction that
rebuilds an independent set of the first factor from one of G x K4.
"""

from __future__ import annotations

from .cotree import LEAF, UNION, Cotree
from .errors import VerificationError
from .graph import Graph, categorical_product, complete_graph, mask_to_set, set_to_mask
from .kernels import bipartite_matching
from .splitgraph import SplitPartition


def _product_id(hn, a, b):
    return a * hn + b


def alpha_product_cographs(tg: Cotree, th: Cotree):
    """alpha(G x H) for cographs given by cotrees: (value, witness).

    Recursion: a union factor splits the product into disjoint blocks whose
    alphas add; when both factors are joins, any independent set lives in
    one of the four one-sided blocks, so the four sub-alphas are combined
    by MAX (each is the alpha of an induced subgraph, hence a lower bound,
    and the join adjacency gives the upper bound).  A single-vertex factor
    makes the product edgeless.  Memoized on cotree node pairs; the witness
    is a set of (g,h) leaf pairs converted to row-major product ids.
    """
    memo = {}

    def solve(a: Cotree, b: Cotree):
        key = (id(a), id(b))
        if key in memo:
            return memo[key]
        if a.kind == LEAF or b.kind == LEAF:
            value = a.size * b.size
            witness = {(g, h) for g in a.leaves for h in b.leaves}
        elif a.kind == UNION:
            value = 0
            witness = set()
            for child in a.children:
                v, w = solve(child, b)
                value += v
                witness |= w
        elif b.kind == UNION:
            value = 0
            witness = set()
            for child in b.children:
                v, w = solve(a, child)
                value += v
                witness |= w
        else:
            # both joins: best one-sided block
            best = None
            for child in a.children:
                cand = solve(child, b)
                if best is None or cand[0] > best[0]:
                    best = cand
            for child in b.children:
                cand = solve(a, child)
                if cand[0] > best[0]:
                    best = cand
            value, witness = best
        memo[key] = (value, witness)
        return memo[key]

    value, pairs = solve(tg, th)
    hn = th.size
    witness = {_product_id(hn, g, h) for g, h in pairs}
    return value, witness


def alpha_product_multipartite(sizes_g, sizes_h):
    """alpha(G x H) for complete multipartite factors: every maximal
    independent set is a generalized row or column, so the answer is
    max(alpha(G) * |V(H)|, alpha(H) * |V(G)|)."""
    sizes_g = list(sizes_g)
    sizes_h = list(sizes_h)
    if not sizes_g or not sizes_h:
        raise ValueError("size lists must be nonempty")
    return max(max(sizes_g) * sum(sizes_h), max(sizes_h) * sum(sizes_g))


def multipartite_product_witness(sizes_g, sizes_h):
    """A generalized row (or column) achieving the closed form; rows are
    preferred on ties and the least class index wins."""
    ng, nh = sum(sizes_g), sum(sizes_h)
    row_value = max(sizes_g) * nh
    col_value = max(sizes_h) * ng
    if row_value >= col_value:
        cls = sizes_g.index(max(sizes_g))
        start = sum(sizes_g[:cls])
        gs = range(start, start + sizes_g[cls])
        return {_product_id(nh, g, h) for g in gs for h in range(nh)}
    cls = sizes_h.index(max(sizes_h))
    start = sum(sizes_h[:cls])
    hs = range(start, start + sizes_h[cls])
    return {_product_id(nh, g, h) for g in range(ng) for h in hs}


# ---------------------------------------------------------------------------
# splitgraph products


def _is_independent(adj, mask):
    while mask:
        low = mask & -mask
        if adj[low.bit_length() - 1] & mask:
            return False
        mask ^= low
    return True


def bipartite_mis(adj, left, right):
    """Maximum independent set of the bipartite graph that adj induces on
    the vertex masks left and right: (size, witness mask).

    Koenig: alpha = |left| + |right| - max matching, and the witness is the
    left part of the set Z reached by alternating paths from unmatched left
    vertices plus the right vertices outside Z.  Z, hence the witness, is
    the same for every maximum matching.  Raises VerificationError when the
    sides overlap or are not independent, or when the witness is short: an
    unmatched vertex in Z, i.e. a matching that is not maximum.
    """
    if left & right:
        raise VerificationError("bipartite sides overlap")
    if not (_is_independent(adj, left) and _is_independent(adj, right)):
        raise VerificationError("bipartite side is not independent")
    n = len(adj)
    msize, match_right = bipartite_matching(n, n, adj, left, right)
    zl = front = left & ~set_to_mask(i for i in match_right if i >= 0)
    zr = 0
    while front:
        reached = 0
        while front:
            low = front & -front
            reached |= adj[low.bit_length() - 1]
            front ^= low
        reached &= right & ~zr
        zr |= reached
        while reached:
            low = reached & -reached
            i = match_right[low.bit_length() - 1]
            if i >= 0:
                front |= 1 << i
            reached ^= low
        front &= ~zl
        zl |= front
    witness = zl | (right & ~zr)
    size = left.bit_count() + right.bit_count() - msize
    if witness.bit_count() != size:
        raise VerificationError(f"Koenig witness has {witness.bit_count()} vertices, not {size}")
    return size, witness


class _SplitProductMIS:
    """The cases of the splitgraph product theorem as vertex masks of the
    explicit product (ids a*|V(H)| + b)."""

    def __init__(self, g: Graph, p1: SplitPartition, h: Graph, p2: SplitPartition):
        self.adj = categorical_product(g, h).adj
        self.hn = h.n
        self.gadj, self.hadj = g.adj, h.adj
        self.c1, self.c2 = sorted(p1.clique), sorted(p2.clique)
        self.s1, self.s2 = set_to_mask(p1.independent), set_to_mask(p2.independent)
        self.c1_mask, self.c2_mask = set_to_mask(self.c1), set_to_mask(self.c2)
        self.left = self._block((1 << g.n) - 1, self.s2)  # V(G) x S2
        self.right = self._block(self.s1, self.c2_mask)  # S1 x C2
        self.s1_rows = self._block(self.s1, (1 << h.n) - 1)  # S1 x V(H)

    def _block(self, xs, ys):
        """Mask of X x Y for a vertex mask xs of G and ys of H."""
        out = 0
        while xs:
            low = xs & -xs
            out |= ys << ((low.bit_length() - 1) * self.hn)
            xs ^= low
        return out

    def cases(self):
        """(left, right, rook) per case, where rook is the mask of the rook
        vertex that joins the Koenig set (or 0):

        - no rook vertex: V(G) x S2 against S1 x C2;
        - one rook vertex r: the same sides minus N(r);
        - row cv1: V(G) x S2 against ((S1 minus N(cv1)) + cv1) x C2;
        - column cv2: S1 x V(H) against C1 x ((S2 minus N(cv2)) + cv2).
        """
        yield self.left, self.right, 0
        for cv1 in self.c1:
            for cv2 in self.c2:
                r = cv1 * self.hn + cv2
                keep = ~self.adj[r]
                yield self.left & keep, self.right & keep, 1 << r
        for cv1 in self.c1:
            xs = (self.s1 & ~self.gadj[cv1]) | (1 << cv1)
            yield self.left, self._block(xs, self.c2_mask), 0
        for cv2 in self.c2:
            ys = (self.s2 & ~self.hadj[cv2]) | (1 << cv2)
            yield self.s1_rows, self._block(self.c1_mask, ys), 0


def alpha_product_split(g: Graph, p1: SplitPartition, h: Graph, p2: SplitPartition):
    """alpha(G x H) for splitgraphs: (value, witness).

    Maximum over independent sets with zero, one, or >= 2 vertices in the
    rook block C1 x C2.  Two or more rook vertices must pairwise share a
    coordinate, hence all lie in one row or one column.  Each case is one
    Koenig run on masks of the explicit product, skipped when its vertex
    count cannot beat the best so far; the first best case wins.
    """
    p1.validate(g)
    p2.validate(h)
    solver = _SplitProductMIS(g, p1, h, p2)
    best, witness = -1, 0
    for left, right, rook in solver.cases():
        if left.bit_count() + right.bit_count() + rook.bit_count() <= best:
            continue
        size, cand = bipartite_mis(solver.adj, left, right)
        if size + rook.bit_count() > best:
            best, witness = size + rook.bit_count(), cand | rook
    if witness.bit_count() != best or not _is_independent(solver.adj, witness):
        raise VerificationError(f"split witness is not an independent set of size {best}")
    return best, mask_to_set(witness)


# ---------------------------------------------------------------------------
# K4-product extraction


def extract_is_from_k4_product(g: Graph, s_prime):
    """From an independent set of G x K4 (max degree of G at most 3),
    rebuild an independent set of G of size >= |S'|/4.

    Iterative rewrite: a projected vertex s in conflict occurs with exactly
    one K4-coordinate t; its projected neighbors then occur only with that
    same t, so their product vertices move into s's K4-column and the
    neighbors leave the projection.  Conflicts strictly decrease.
    """
    if max((g.degree(v) for v in range(g.n)), default=0) > 3:
        raise ValueError("extraction requires maximum degree <= 3")
    k4 = 4
    product = categorical_product(g, complete_graph(k4))
    s_prime = set(s_prime)
    if not product.is_independent(s_prime):
        raise ValueError("input set is not independent in G x K4")
    pairs = {(pid // k4, pid % k4) for pid in s_prime}
    original_size = len(pairs)

    def projection():
        return {gv for gv, _ in pairs}

    while True:
        proj = projection()
        conflict = None
        for s in sorted(proj):
            if any(u in proj for u in g.neighbors(s)):
                conflict = s
                break
        if conflict is None:
            break
        s = conflict
        ts = {t for gv, t in pairs if gv == s}
        if len(ts) != 1:
            raise VerificationError("conflicted vertex occurs with several K4 coordinates")
        t0 = next(iter(ts))
        nbrs_in_proj = sorted(u for u in g.neighbors(s) if u in proj)
        removed = []
        for u in nbrs_in_proj:
            for t in range(k4):
                if (u, t) in pairs:
                    if t != t0:
                        raise VerificationError("neighbor occurs with a different coordinate")
                    pairs.discard((u, t))
                    removed.append(u)
        free_ts = sorted(set(range(k4)) - {t0})
        for t in free_ts[: len(removed)]:
            pairs.add((s, t))

    # more than three removed neighbours would show up here as a lost pair
    if len(pairs) != original_size:
        raise VerificationError(f"extraction kept {len(pairs)} of {original_size} pairs")
    result = projection()
    if not g.is_independent(result) or 4 * len(result) < original_size:
        raise VerificationError("extracted set is not independent or below |S'|/4")
    return result
