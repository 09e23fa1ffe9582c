"""Maximum independent sets of categorical products for structured factors,
cographs (cotree recursion) and splitgraphs (three bipartite cases), and the
K4-product extraction that rebuilds an independent set of G from one of G x K4.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .cotree import LEAF, UNION, Cotree
from .errors import VerificationError
from .graph import (
    Graph,
    categorical_product,
    complete_graph,
    is_product_independent,
    mask_to_set,
    neighborhood_mask,
    set_to_mask,
)
from .kernels import bipartite_matching

if TYPE_CHECKING:
    from .splitgraph import SplitPartition


def alpha_product_cographs(tg: Cotree, th: Cotree):
    """alpha(G x H) for cographs given by cotrees: (value, witness).

    Recursion: a union factor splits the product into disjoint blocks whose
    alphas add; when both factors are joins, any independent set lives in
    one of the four one-sided blocks, so the four sub-alphas are combined
    by MAX (each is the alpha of an induced subgraph, hence a lower bound,
    and the join adjacency gives the upper bound).  A single-vertex factor
    makes the product edgeless, so a block with a leaf factor has the other
    factor's size as its value.  When both nodes are unions, G's splits.

    The value pass builds one row per internal node a of G, children
    first, over H's internal nodes, also children first, so every block is
    filled before the pair that needs it; no recursion, so depth is
    limited by memory only.  A union a's row is the sum of its children's
    rows, a leaf child adding |b|.  A join a first takes the max of its
    children's rows (|b| for a leaf child), which is its best G-side block
    against every b; one pass over b then adds the blocks of a union b, or
    takes the max of that best and the H-side blocks of a join b, all read
    from the row so far.  The witness is built in one walk from the root
    pair on an explicit stack: a leaf factor contributes every leaf pair
    of its block, a union factor each of its blocks, and two joins the
    first block of largest value, G's children before H's, read back from
    the table.  Union blocks are disjoint, so every pair is emitted once;
    pairs become row-major product ids.
    """
    nodes_g, nodes_h = _internal_nodes(tg), _internal_nodes(th)
    row_g = {id(a): i for i, a in enumerate(nodes_g)}
    col_h = {id(b): j for j, b in enumerate(nodes_h)}
    sizes = [b.size for b in nodes_h]
    # per internal node b of H: is it a union, its internal children as
    # columns, and how many leaf children it has
    shape_h = []
    for b in nodes_h:
        kids = [col_h[id(c)] for c in b.children if c.kind != LEAF]
        shape_h.append((b.kind == UNION, kids, len(b.children) - len(kids)))
    rows = []  # rows[i][j]: alpha of nodes_g[i] x nodes_h[j]
    for a in nodes_g:
        parts = [rows[row_g[id(c)]] for c in a.children if c.kind != LEAF]
        leaves = len(a.children) - len(parts)
        if a.kind == UNION:
            rows.append(list(map(sum, zip(*parts, *[sizes] * leaves))))
            continue
        gbest = map(max, zip(*parts, sizes) if leaves else zip(*parts))
        n = a.size
        row = []
        for best, (is_union, kids, leaves_b) in zip(gbest, shape_h):
            if is_union:
                value = leaves_b * n
                for k in kids:
                    value += row[k]
            else:
                value = n if leaves_b and n > best else best
                for k in kids:
                    if row[k] > value:
                        value = row[k]
            row.append(value)
        rows.append(row)

    hn = th.size
    witness = set()
    stack = [(tg, th)]
    while stack:
        a, b = stack.pop()
        if a.kind == LEAF or b.kind == LEAF:
            hs = mask_to_set(b.mask)
            witness.update(g * hn + h for g in mask_to_set(a.mask) for h in hs)
        elif a.kind == UNION:
            stack.extend((c, b) for c in a.children)
        elif b.kind == UNION:
            stack.extend((a, c) for c in b.children)
        else:
            row, j = rows[row_g[id(a)]], col_h[id(b)]
            value = -1
            for c in a.children:
                v = rows[row_g[id(c)]][j] if c.kind != LEAF else b.size
                if v > value:
                    value, block = v, (c, b)
            for c in b.children:
                v = row[col_h[id(c)]] if c.kind != LEAF else a.size
                if v > value:
                    value, block = v, (a, c)
            stack.append(block)
    return (rows[-1][-1] if nodes_g and nodes_h else tg.size * th.size), witness


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


# ---------------------------------------------------------------------------
# splitgraph products


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
    if (left & ~checked_l and neighborhood_mask(adj, left) & left) or (
        right & ~checked_r and neighborhood_mask(adj, right) & right
    ):
        raise VerificationError("bipartite side is not independent")
    matching = bipartite_matching(adj, left, right, warm)
    if base is None:
        _check_matching(adj, left, right, matching)
    _, mate_r, ml, mr = matching
    zl = front = left & ~ml
    zr = 0
    while front:
        reached = neighborhood_mask(adj, front) & right & ~zr
        zr |= reached
        reached &= mr
        front = 0
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
        part of it.  A column case has case 0's right side S1 x C2 inside
        its left side, and part of case 0's left side, C1 x (S2 minus
        N(cv2)), inside its right side, so case 0's pairs read backwards
        lie between its sides.

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


def _swap_sides(state):
    """A bipartite_mis state with its left and right sides exchanged; adj
    is symmetric, so each pair read backwards is still an edge."""
    left, right, (mate_l, mate_r, ml, mr) = state
    return right, left, (mate_r, mate_l, mr, ml)


def _pairs_in_hand(adj, base, left, right, enough):
    """Size of a matching between the vertex masks left and right, found
    without a search and counted up to enough: the pairs of base (a
    bipartite_mis state) with both ends inside the sides, then one greedy
    pass between the left vertices outside those pairs and the right
    vertices base leaves unmatched.  The pass gives each vertex of the side
    with fewer of them its lowest free neighbour on the other side; adj is
    symmetric, so it may start from either side."""
    _, mate_r, ml, mr = base[2]
    kept_l = ml & left
    gone = mr & ~right
    if kept_l.bit_count() - gone.bit_count() >= enough:
        return enough  # each gone right end costs at most one pair
    while gone:
        low = gone & -gone
        gone ^= low
        kept_l &= ~(1 << mate_r[low.bit_length() - 1])
    kept = kept_l.bit_count()
    if kept >= enough:
        return kept
    free_l, free_r = left & ~kept_l, right & ~mr
    if free_l.bit_count() > free_r.bit_count():
        free_l, free_r = free_r, free_l
    while kept < enough and free_l and free_r:
        low = free_l & -free_l
        free_l ^= low
        cand = adj[low.bit_length() - 1] & free_r
        if cand:
            free_r ^= cand & -cand
            kept += 1
    return kept


def alpha_product_split(g: Graph, p1: SplitPartition, h: Graph, p2: SplitPartition):
    """alpha(G x H) for splitgraphs: (value, witness).

    Maximum over independent sets with zero, one, or >= 2 vertices in the
    rook block C1 x C2.  Two or more rook vertices must pairwise share a
    coordinate, hence all lie in one row or one column.  Each case is one
    Koenig run on masks of the explicit product; the first best case wins.
    Case 0 runs cold, and every later case starts from case 0's matching
    and sides: a rook or row case as they are, a column case with the two
    sides swapped.  The Koenig witness does not depend on which maximum
    matching was found, so warm starts change neither the value nor the
    witness.

    A case is skipped when an upper bound on its value cannot beat the best
    so far.  The bound is its vertex count |L| + |R| + |rook|, less the
    pairs of a matching in hand: the start matching's pairs with both ends
    inside L and R, plus one greedy pass between vertices that no such pair
    uses.  Start pairs are checked edges between the sides and greedy pairs
    are edges between unused vertices, so together they are a matching of
    the case's graph, and by Koenig its alpha is at most |L| + |R| less
    their number.  A skipped case cannot strictly beat the best, so the
    first best case, hence the value and the witness, are the same as with
    every case run.
    """
    p1.validate(g)
    p2.validate(h)
    solver = _SplitProductMIS(g, p1, h, p2)
    adj = solver.adj
    best, witness = -1, 0
    base = swapped = None  # case 0's state, as it is and with its sides swapped
    for column, left, right, rook in solver.cases():
        n_l, n_r, n_rook = left.bit_count(), right.bit_count(), rook.bit_count()
        # matched pairs that settle the case; case 0 needs more than a side
        # has (best is -1), so it always runs and every later case has a start
        need = n_l + n_r + n_rook - best
        start = swapped if column else base
        if need <= 0 or (
            need <= min(n_l, n_r) and _pairs_in_hand(adj, start, left, right, need) >= need
        ):
            continue
        size, cand, state = bipartite_mis(adj, left, right, start)
        if base is None:
            base, swapped = state, _swap_sides(state)
        if size + n_rook > best:
            best, witness = size + n_rook, cand | rook
    if witness.bit_count() != best or neighborhood_mask(adj, witness) & witness:
        raise VerificationError(f"split witness is not an independent set of size {best}")
    return best, mask_to_set(witness)


# ---------------------------------------------------------------------------
# K4-product extraction


def extract_is_from_k4_product(g: Graph, s_prime):
    """From an independent set S' of G x K4 (max degree of G at most 3; ids
    outside 0..4n-1 make S' dependent), an independent set of G of size
    >= |S'|/4, by one greedy pass over the projection P of S' in increasing
    id.  A vertex of P with two or more K4-coordinates (at most 4 members of
    S') has no neighbour in P, so it is kept.  One with a single coordinate t
    has neighbours in P only among vertices with that same t, so, degrees
    being at most 3, at least a quarter of each such class is kept."""
    if max(g.degrees(), default=0) > 3:
        raise ValueError("extraction requires maximum degree <= 3")
    s_prime = set(s_prime)
    if not is_product_independent(g, complete_graph(4), s_prime):
        raise ValueError("input set is not independent in G x K4")
    kept, result = 0, set()
    for v in sorted({pid // 4 for pid in s_prime}):
        if not g.adj[v] & kept:
            kept |= 1 << v
            result.add(v)
    if not g.is_independent(result) or 4 * len(result) < len(s_prime):
        raise VerificationError("extracted set is not independent or below |S'|/4")
    return result
