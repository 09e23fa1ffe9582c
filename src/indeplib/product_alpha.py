"""Maximum independent sets of categorical products for structured factors:
cographs (cotree recursion), splitgraphs (three bipartite cases), complete
multipartite graphs (closed form), and the K4-product extraction that
rebuilds an independent set of the first factor from one of G x K4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cotree import LEAF, UNION, Cotree
from .errors import VerificationError
from .graph import Graph, categorical_product, complete_graph, mask_to_set, set_to_mask
from .kernels import bipartite_matching

if TYPE_CHECKING:
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
    makes the product edgeless, so a block with a leaf factor has the other
    factor's size as its value.  When both nodes are unions, G's splits.

    The value pass fills a table over pairs of internal nodes, each tree's
    internal nodes taken children first, so every block is filled before
    the pair that needs it; no recursion, so depth is limited by memory
    only.  For two joins it also keeps the position of the first block of
    largest value.  The witness is then built in one walk from the root
    pair on an explicit stack: a leaf factor contributes every leaf pair
    of its block, a union factor each of its blocks, two joins the chosen
    block.  Union blocks are disjoint, so every pair is emitted once;
    pairs become row-major product ids.
    """
    nodes_g, nodes_h = _internal_nodes(tg), _internal_nodes(th)
    row_g = {id(a): i for i, a in enumerate(nodes_g)}
    col_h = {id(b): j for j, b in enumerate(nodes_h)}
    cols = len(nodes_h)
    # children as table offsets: a row start in G, a column in H; -1 for a leaf
    kids_h = [[col_h[id(c)] if c.kind != LEAF else -1 for c in b.children] for b in nodes_h]
    values = []  # value of (nodes_g[i], nodes_h[j]) at i * cols + j
    choice = {}  # i * cols + j -> position of the chosen block, for two joins
    for i, a in enumerate(nodes_g):
        kids_g = [row_g[id(c)] * cols if c.kind != LEAF else -1 for c in a.children]
        row = []
        for j, b in enumerate(nodes_h):
            if a.kind == UNION:
                value = sum(values[k + j] if k >= 0 else b.size for k in kids_g)
            elif b.kind == UNION:
                value = sum(row[k] if k >= 0 else a.size for k in kids_h[j])
            else:
                value = -1
                for pos, k in enumerate(kids_g):
                    v = values[k + j] if k >= 0 else b.size
                    if v > value:
                        value, best = v, pos
                for pos, k in enumerate(kids_h[j], len(kids_g)):
                    v = row[k] if k >= 0 else a.size
                    if v > value:
                        value, best = v, pos
                choice[i * cols + j] = best
            row.append(value)
        values.extend(row)

    hn = th.size
    witness = set()
    stack = [(tg, th)]
    while stack:
        a, b = stack.pop()
        if a.kind == LEAF or b.kind == LEAF:
            witness.update(_product_id(hn, g, h) for g in a.leaves for h in b.leaves)
        elif a.kind == UNION:
            stack.extend((c, b) for c in a.children)
        elif b.kind == UNION:
            stack.extend((a, c) for c in b.children)
        else:
            pos = choice[row_g[id(a)] * cols + col_h[id(b)]]
            if pos < len(a.children):
                stack.append((a.children[pos], b))
            else:
                stack.append((a, b.children[pos - len(a.children)]))
    return (values[-1] if values else tg.size * th.size), witness


def _internal_nodes(t: Cotree):
    """The internal nodes of t, every child before its parent."""
    order, stack = [], [t]
    while stack:
        node = stack.pop()
        if node.kind != LEAF:
            order.append(node)
            stack.extend(node.children)
    order.reverse()
    return order


def alpha_product_multipartite(sizes_g, sizes_h):
    """alpha(G x H) for complete multipartite factors: every maximal
    independent set is a generalized row or column, so the answer is
    max(alpha(G) * |V(H)|, alpha(H) * |V(G)|)."""
    sizes_g = list(sizes_g)
    sizes_h = list(sizes_h)
    if not sizes_g or not sizes_h:
        raise ValueError("size lists must be nonempty")
    return max(max(sizes_g) * sum(sizes_h), max(sizes_h) * sum(sizes_g))


# ---------------------------------------------------------------------------
# splitgraph products


def _is_independent(adj, mask):
    while mask:
        low = mask & -mask
        if adj[low.bit_length() - 1] & mask:
            return False
        mask ^= low
    return True


def _check_matching(adj, left, right, matching):
    """Raises VerificationError unless every pair of the matching state is
    an edge between the two sides, each vertex is used at most once and the
    matched-vertex masks agree with the pairs."""
    mate_l, mate_r, ml, mr = matching
    if len(mate_l) != len(mate_r):
        raise VerificationError("matching pairs disagree")
    seen_l = seen_r = 0
    for u, j in mate_l.items():
        if mate_r.get(j) != u or not (left >> u) & 1 or not (right >> j) & 1:
            raise VerificationError(f"matching pair ({u},{j}) is not between the sides")
        if not (adj[u] >> j) & 1:
            raise VerificationError(f"matching pair ({u},{j}) is not an edge")
        seen_l |= 1 << u
        seen_r |= 1 << j
    if seen_l != ml or seen_r != mr:
        raise VerificationError("matched-vertex masks disagree with the pairs")


def bipartite_mis(adj, left, right, base=None):
    """Maximum independent set of the bipartite graph that adj induces on
    the vertex masks left and right: (size, witness mask, state).

    Koenig: alpha = |left| + |right| - max matching, and the witness is the
    left part of the set Z reached by alternating paths from unmatched left
    vertices plus the right vertices outside Z.  Z, hence the witness, is
    the same for every maximum matching, so a warm-started matching gives
    the same witness as a cold one.

    base is the state returned by an earlier call on the same adj, whose
    sides are known to be independent and whose matching is known to be
    valid.  A side inside base's side of the same name skips the
    independence scan (a subset of an independent set is independent);
    any other side is scanned in full.  The matching starts from base's
    pairs that lie inside the new sides.  Without base, the sides are
    scanned and the matching found is checked pair by pair, so a base only
    ever carries checked pairs.

    Raises VerificationError when the sides overlap or are not independent,
    when a cold matching is not a matching between the sides, or when the
    witness is short: an unmatched vertex in Z, i.e. a matching that is not
    maximum.
    """
    if left & right:
        raise VerificationError("bipartite sides overlap")
    checked_l, checked_r, warm = base if base is not None else (0, 0, None)
    if (left & ~checked_l and not _is_independent(adj, left)) or (
        right & ~checked_r and not _is_independent(adj, right)
    ):
        raise VerificationError("bipartite side is not independent")
    matching = bipartite_matching(adj, left, right, warm)
    if base is None:
        _check_matching(adj, left, right, matching)
    _, mate_r, ml, mr = matching
    zl = front = left & ~ml
    zr = 0
    while front:
        reached = 0
        while front:
            low = front & -front
            reached |= adj[low.bit_length() - 1]
            front ^= low
        reached &= right & ~zr
        zr |= reached
        reached &= mr
        while reached:
            low = reached & -reached
            front |= 1 << mate_r[low.bit_length() - 1]
            reached ^= low
        front &= ~zl
        zl |= front
    witness = zl | (right & ~zr)
    size = left.bit_count() + right.bit_count() - len(mate_r)
    if witness.bit_count() != size:
        raise VerificationError(f"Koenig witness has {witness.bit_count()} vertices, not {size}")
    return size, witness, (left, right, matching)


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
        """(column, left, right, rook) per case, where rook is the mask of
        the rook vertex that joins the Koenig set (or 0) and column marks
        the column cases.  A rook or row case keeps case 0's left side or
        part of it; a column case puts S1 x V(H) on the left, so none of
        case 0's matching pairs lies inside its sides.

        - no rook vertex: V(G) x S2 against S1 x C2;
        - one rook vertex r: the same sides minus N(r);
        - row cv1: V(G) x S2 against ((S1 minus N(cv1)) + cv1) x C2;
        - column cv2: S1 x V(H) against C1 x ((S2 minus N(cv2)) + cv2).
        """
        yield False, self.left, self.right, 0
        for cv1 in self.c1:
            for cv2 in self.c2:
                r = cv1 * self.hn + cv2
                keep = ~self.adj[r]
                yield False, self.left & keep, self.right & keep, 1 << r
        for cv1 in self.c1:
            xs = (self.s1 & ~self.gadj[cv1]) | (1 << cv1)
            yield False, self.left, self._block(xs, self.c2_mask), 0
        for cv2 in self.c2:
            ys = (self.s2 & ~self.hadj[cv2]) | (1 << cv2)
            yield True, self.s1_rows, self._block(self.c1_mask, ys), 0


def _kept_pairs(state, left, right):
    """Number of pairs of the matching in a bipartite_mis state with both
    ends inside the vertex masks left and right: the pairs whose left end
    stays, less those among them whose right end goes."""
    mate_r, ml, mr = state[2][1:]
    kept = (ml & left).bit_count()
    gone = mr & ~right
    while gone:
        low = gone & -gone
        gone ^= low
        if (left >> mate_r[low.bit_length() - 1]) & 1:
            kept -= 1
    return kept


def alpha_product_split(g: Graph, p1: SplitPartition, h: Graph, p2: SplitPartition):
    """alpha(G x H) for splitgraphs: (value, witness).

    Maximum over independent sets with zero, one, or >= 2 vertices in the
    rook block C1 x C2.  Two or more rook vertices must pairwise share a
    coordinate, hence all lie in one row or one column.  Each case is one
    Koenig run on masks of the explicit product; the first best case wins.
    Case 0 runs cold; the rook and row cases start from case 0's matching
    and sides, the column cases from those of the first column case run.
    The Koenig witness does not depend on which maximum matching was
    found, so warm starts change neither the value nor the witness.

    A case is skipped when an upper bound on its value cannot beat the best
    so far.  The bound is its vertex count |L| + |R| + |rook|, less, for a
    warm-started case, the number kept of its base matching's pairs with
    both ends inside L and R.  Those pairs are checked edges between the
    sides, so they are a matching of the case's bipartite graph: its
    maximum matching has at least kept pairs, and by Koenig its alpha is at
    most |L| + |R| - kept.  A skipped case cannot strictly beat the best,
    so the first best case, hence the value and the witness, are the same
    as with every case run.
    """
    p1.validate(g)
    p2.validate(h)
    solver = _SplitProductMIS(g, p1, h, p2)
    best, witness = -1, 0
    bases = {}
    for column, left, right, rook in solver.cases():
        bound = left.bit_count() + right.bit_count() + rook.bit_count()
        base = bases.get(column)
        if base is not None and bound > best:
            bound -= _kept_pairs(base, left, right)
        if bound <= best:
            continue
        size, cand, state = bipartite_mis(solver.adj, left, right, base)
        bases.setdefault(column, state)
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
