"""Bitset kernels: branch-and-bound maximum independent set, maximal
independent set enumeration and bipartite matching.

Adjacency is a list of int masks (bit v of adj[u] set iff u~v), so any
graph size works.  These are the hot inner loops of the library.
Everything here is deterministic: given the same adjacency, the same sets
come out in the same order.
"""

# Read by the benchmark to label its records; these kernels are the only ones.
HAVE_COMPILED = False


def _lowest(mask):
    return (mask & -mask).bit_length() - 1


def clique_cover_bound(adj, mask):
    """Greedy clique cover of the vertices in mask; an upper bound on the
    independence number of the induced subgraph."""
    count = 0
    rest = mask
    while rest:
        u = _lowest(rest)
        rest &= rest - 1
        cand = rest & adj[u]
        while cand:
            w = _lowest(cand)
            rest &= ~(1 << w)
            cand &= cand - 1
            cand &= adj[w]
        count += 1
    return count


def max_independent_set(adj):
    """Exact maximum independent set: (size, vertex mask).

    Branch and bound: vertices of degree <= 1 in the candidate set are
    taken greedily, the greedy clique cover prunes, and branching is on the
    lowest-id vertex of maximum degree (in-branch first).  The witness is
    the first optimum found under this fixed order, so it is reproducible.
    """
    n = len(adj)
    best_size = 0
    best_mask = 0

    def expand(p, cur_mask, cur_size):
        nonlocal best_size, best_mask
        while True:
            # reductions: take isolated and degree-1 vertices of G[p]
            reduced = False
            w = p
            while w:
                v = _lowest(w)
                w &= w - 1
                d = (adj[v] & p).bit_count()
                if d == 0:
                    p &= ~(1 << v)
                    cur_mask |= 1 << v
                    cur_size += 1
                    reduced = True
                elif d == 1:
                    p &= ~((adj[v] & p) | (1 << v))
                    cur_mask |= 1 << v
                    cur_size += 1
                    reduced = True
                    break
            if reduced:
                continue
            if not p:
                if cur_size > best_size:
                    best_size = cur_size
                    best_mask = cur_mask
                return
            if cur_size + clique_cover_bound(adj, p) <= best_size:
                return
            # branch vertex: lowest id of maximum degree in G[p]
            bv = -1
            bd = -1
            w = p
            while w:
                v = _lowest(w)
                w &= w - 1
                d = (adj[v] & p).bit_count()
                if d > bd:
                    bd = d
                    bv = v
            expand(p & ~(adj[bv] | (1 << bv)), cur_mask | (1 << bv), cur_size + 1)
            p &= ~(1 << bv)

    expand((1 << n) - 1, 0, 0)
    return best_size, best_mask


def maximal_independent_sets(adj):
    """Yields every maximal independent set exactly once, as masks.

    Pivoting Bron-Kerbosch on the complement (maximal independent sets of G
    are the maximal cliques of its complement).  Pivot: vertex of P∪X with
    the most non-neighbors in P, lowest id on ties; candidates are visited
    in increasing id, so the stream order is deterministic.
    """
    n = len(adj)
    full = (1 << n) - 1
    comp = [full & ~adj[v] & ~(1 << v) for v in range(n)]

    # frame: [r, p, x, branch-candidates]
    stack = [[0, full, 0, None]]
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if cand is None:
            if not p and not x:
                yield r
                stack.pop()
                continue
            pivot = -1
            pivot_deg = -1
            w = p | x
            while w:
                u = _lowest(w)
                w &= w - 1
                d = (comp[u] & p).bit_count()
                if d > pivot_deg:
                    pivot_deg = d
                    pivot = u
            cand = p & ~comp[pivot]
            frame[3] = cand
        if not cand:
            stack.pop()
            continue
        v = _lowest(cand)
        bit = 1 << v
        frame[1] = p & ~bit
        frame[2] = x | bit
        frame[3] = cand & ~bit
        stack.append([r | bit, p & comp[v], x & comp[v], None])


def bipartite_matching(nleft, nright, adj, left_mask=-1, right_mask=-1):
    """Maximum matching via augmenting paths (Kuhn).

    adj[u] is a mask over right ids for left vertex u.  left_mask and
    right_mask restrict the graph to a sub-instance without rebuilding it.
    Returns (size, match_right) where match_right[j] is the left partner of
    right vertex j or -1.
    """
    if left_mask == -1:
        left_mask = (1 << nleft) - 1
    if right_mask == -1:
        right_mask = (1 << nright) - 1
    match_right = [-1] * nright

    def augment(u, visited):
        w = adj[u] & right_mask & ~visited[0]
        visited[0] |= w
        while w:
            j = _lowest(w)
            w &= w - 1
            if match_right[j] < 0 or augment(match_right[j], visited):
                match_right[j] = u
                return True
        return False

    size = 0
    w = left_mask
    while w:
        u = _lowest(w)
        w &= w - 1
        if adj[u] & right_mask and augment(u, [0]):
            size += 1
    return size, match_right
