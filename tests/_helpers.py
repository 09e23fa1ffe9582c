"""Shared test plumbing: isomorphism-reduced graph catalogs, cotree
enumeration, random model generators, an exact treewidth finder, and the
exhaustive references only tests use.

Catalogs are generated by vertex augmentation with isomorphism rejection
via canonical codes (color refinement plus a pruned search for the
minimum adjacency encoding); published counts (1, 2, 4, 11, 34, 156,
1044, 12346 for n = 1..8) are asserted as a self-check.  The n = 8
catalog is read from a committed cache written by tools/gen_graphs8.py.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from indeplib import cotree, kernels
from indeplib.capacity import NeighborhoodProfile
from indeplib.cotree import LEAF, UNION, Cotree, _merge, leaf
from indeplib.errors import (
    InvalidDecomposition,
    InvalidModel,
    LimitExceeded,
    NotACograph,
    NotASplitgraph,
    VerificationError,
)
from indeplib.graph import (
    Graph,
    mask_to_set,
    neighborhood,
    set_to_mask,
)
from indeplib.product_alpha import _SplitProductMIS, bipartite_mis
from indeplib.splitgraph import split_partition
from indeplib.treedecomp import (
    FORGET,
    INTRODUCE,
    JOIN,
    START,
    NiceTreeDecomposition,
)

GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GRAPHS8_CACHE = os.path.join(DATA_DIR, "graphs8.txt")


# ---------------------------------------------------------------------------
# graphs and cotrees built from their parts, which the library never needs


def from_adj(adj):
    """The graph on adjacency masks adj, checked: no self-loop, no bit past
    the last vertex, and symmetric."""
    g = Graph._from_symmetric(adj)
    full = (1 << g.n) - 1
    for v, mask in enumerate(g.adj):
        if mask & (1 << v):
            raise ValueError(f"self-loop at vertex {v}")
        if mask & ~full:
            raise ValueError(f"adjacency of vertex {v} out of range")
    for v, mask in enumerate(g.adj):
        w = mask
        while w:
            u = (w & -w).bit_length() - 1
            if not g.adj[u] & (1 << v):
                raise ValueError(f"adjacency not symmetric at ({v},{u})")
            w &= w - 1
    return g


def union(*parts):
    """The canonical cotree union of parts: same-label children flattened,
    children sorted by least leaf."""
    return _merge(UNION, parts)


def join(*parts):
    """The canonical cotree join of parts, as union builds a union."""
    return _merge(cotree.JOIN, parts)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g and h side by side, h's vertices numbered after g's."""
    return Graph._from_symmetric(list(g.adj) + [m << g.n for m in h.adj])


def graph_join(g: Graph, h: Graph) -> Graph:
    """disjoint_union(g, h) with every vertex of g adjacent to every vertex
    of h."""
    gmask = (1 << g.n) - 1
    hmask = ((1 << h.n) - 1) << g.n
    return Graph._from_symmetric([m | hmask for m in g.adj] + [m << g.n | gmask for m in h.adj])


# ---------------------------------------------------------------------------
# the interpreter stack, for tests that run under a lowered recursion limit


def frame_depth():
    """The number of frames on the interpreter stack at the call."""
    frame = sys._getframe()
    depth = 0
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


# ---------------------------------------------------------------------------
# adjacency queries that only tests use


def neighbors(g: Graph, v):
    return mask_to_set(g.adj[v])


def has_edge(g: Graph, u, v):
    return bool(g.adj[u] >> v & 1)


# ---------------------------------------------------------------------------
# class membership and a closed form that only tests use


def is_cograph(g: Graph) -> bool:
    try:
        cotree.cograph_recognize(g, witness=False)
        return True
    except NotACograph:
        return False


def is_splitgraph(g: Graph) -> bool:
    try:
        split_partition(g, obstruction=False)
        return True
    except NotASplitgraph:
        return False


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
# encoding: upper-triangle bitmask, pairs in lexicographic order


def pair_index(n, u, v):
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + v - u - 1


def encode_graph(g: Graph) -> int:
    code = 0
    for u, v in g.edges():
        code |= 1 << pair_index(g.n, u, v)
    return code


def decode_graph(n, code) -> Graph:
    edges = [
        (u, v) for u, v in combinations(range(n), 2) if (code >> pair_index(n, u, v)) & 1
    ]
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# isomorphism


def wl_colors(g: Graph, rounds=3):
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(rounds):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in neighbors(g, v))))
            for v in range(g.n)
        ]
        relabel = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [relabel[s] for s in sigs]
    return colors


def invariant_key(g: Graph):
    return (g.n, tuple(sorted(wl_colors(g))))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    cg, ch = wl_colors(g), wl_colors(h)
    if sorted(cg) != sorted(ch):
        return False
    n = g.n
    # map vertices of g in order; candidates restricted by color
    by_color = {}
    for v in range(n):
        by_color.setdefault(ch[v], []).append(v)
    mapping = [-1] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in by_color.get(cg[v], ()):
            if used[w]:
                continue
            ok = all(
                has_edge(g, v, u) == has_edge(h, w, mapping[u]) for u in range(v)
            )
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


def canonical_code(g: Graph) -> tuple:
    """Canonical form: the lexicographic minimum, over all permutations that
    sort the refined colors, of the per-level adjacency bit rows.

    Placing vertices one position at a time, level i is the i-bit row of
    adjacencies to the already placed positions; the tuple of rows is
    compared level-by-level, and a branch is cut as soon as its prefix
    exceeds the best tuple found so far.  Color refinement cannot split
    regular graphs, so the pruning is what keeps those cases cheap.
    """
    n = g.n
    colors = wl_colors(g)
    target = sorted(colors)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    best = None
    placed = [-1] * n
    used = [False] * n
    cur = [0] * n

    def dfs(i):
        nonlocal best
        if i == n:
            cand = tuple(cur[1:n])
            if best is None or cand < best:
                best = cand
            return
        options = []
        for v in by_color[target[i]]:
            if used[v]:
                continue
            bits = 0
            for j in range(i):
                if has_edge(g, v, placed[j]):
                    bits |= 1 << j
            options.append((bits, v))
        options.sort()
        for bits, v in options:
            cur[i] = bits
            if best is not None:
                prefix = tuple(cur[1 : i + 1])
                if prefix > best[:i]:
                    continue
            used[v] = True
            placed[i] = v
            dfs(i + 1)
            used[v] = False
        cur[i] = 0

    if n == 0:
        return ()
    dfs(0)
    return best


def dedupe(graphs):
    """One representative per isomorphism class, preserving first-seen order."""
    seen = set()
    out = []
    for g in graphs:
        code = canonical_code(g)
        if code not in seen:
            seen.add(code)
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# catalogs


def _augment(parents, n):
    """All graphs on n vertices obtained by attaching a new vertex to each
    parent on n-1 vertices, reduced up to isomorphism."""
    seen = set()
    out = []
    for p in parents:
        for mask in range(1 << (n - 1)):
            edges = list(p.edges()) + [
                (v, n - 1) for v in range(n - 1) if (mask >> v) & 1
            ]
            g = Graph(n, edges)
            code = canonical_code(g)
            if code not in seen:
                seen.add(code)
                out.append(g)
    return out


@lru_cache(maxsize=None)
def graph_catalog(n):
    """All graphs on exactly n vertices up to isomorphism."""
    if n == 0:
        return (Graph(0, []),)
    if n == 1:
        return (Graph(1, []),)
    if n == 8:
        cached = _load_graphs8()
        if cached is not None:
            return cached
    out = tuple(_augment(graph_catalog(n - 1), n))
    assert len(out) == GRAPH_COUNTS[n], (n, len(out))
    return out


def graph_catalog_upto(n):
    for k in range(1, n + 1):
        yield from graph_catalog(k)


def _load_graphs8():
    if not os.path.exists(GRAPHS8_CACHE):
        return None
    with open(GRAPHS8_CACHE, encoding="ascii") as fh:
        codes = [int(line, 16) for line in fh if line.strip()]
    assert len(codes) == GRAPH_COUNTS[8], len(codes)
    assert len(set(codes)) == len(codes)
    return tuple(decode_graph(8, c) for c in codes)


def write_graphs8(path=GRAPHS8_CACHE):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    graphs = _augment(graph_catalog(7), 8)
    assert len(graphs) == GRAPH_COUNTS[8], len(graphs)
    with open(path, "w", encoding="ascii") as fh:
        for g in graphs:
            code = encode_graph(g)
            assert decode_graph(8, code).adj == g.adj
            fh.write(f"{code:07x}\n")
    return len(graphs)


# ---------------------------------------------------------------------------
# cotree catalog (unlabeled cographs, one canonical cotree each)


@lru_cache(maxsize=None)
def _cotree_shapes(n, root):
    """Unlabeled cotree shapes on n leaves whose root label is `root`
    ('leaf', '+', or '*'); children of a +/* node are leaves or the other
    label.  Shapes are nested tuples ('leaf',) / (label, child multiset)."""
    if n == 1:
        return (("leaf",),) if root == "leaf" else ()
    if root == "leaf":
        return ()
    other = "*" if root == "+" else "+"
    child_shapes = {}
    for k in range(1, n):
        opts = _cotree_shapes(k, "leaf") + _cotree_shapes(k, other)
        if opts:
            child_shapes[k] = opts
    out = []

    def build(remaining, min_size, start_idx, chosen):
        if remaining == 0:
            if len(chosen) >= 2:
                out.append((root, tuple(chosen)))
            return
        for k in range(min_size, remaining + 1):
            for idx, shape in enumerate(child_shapes.get(k, ())):
                if k == min_size and idx < start_idx:
                    continue
                build(remaining - k, k, idx, chosen + (shape,))

    build(n, 1, 0, ())
    return tuple(out)


def _shape_to_cotree(shape, counter):
    if shape[0] == "leaf":
        v = counter[0]
        counter[0] += 1
        return leaf(v)
    parts = [_shape_to_cotree(c, counter) for c in shape[1]]
    return union(*parts) if shape[0] == "+" else join(*parts)


def cotree_catalog(n):
    """One canonical cotree per unlabeled cograph on n vertices."""
    shapes = (
        _cotree_shapes(n, "leaf") + _cotree_shapes(n, "+") + _cotree_shapes(n, "*")
    )
    return [_shape_to_cotree(s, [0]) for s in shapes]


# ---------------------------------------------------------------------------
# treewidth (exponential exact finder, test plumbing only)


def treewidth_decomposition(g: Graph):
    """(width, bags, tree_edges) via elimination-order DP, n <= 15."""
    n = g.n
    if n > 15:
        raise ValueError("treewidth finder is test plumbing for n <= 15")
    if n == 0:
        raise ValueError("empty graph")
    full = (1 << n) - 1
    adj = g.adj

    # parts[elim]: the components of G[elim] with their neighbors, each
    # from the parts of elim less its top vertex h: those next to h merge
    # with h
    parts = [()]
    for elim in range(1, full + 1):
        h = elim.bit_length() - 1
        comp, nbrs = 1 << h, adj[h]
        kept = []
        for part in parts[elim ^ comp]:
            if part[0] & adj[h]:
                comp |= part[0]
                nbrs |= part[1]
            else:
                kept.append(part)
        kept.append((comp, nbrs))
        parts.append(kept)
    # best[elim] = (width, v): the least width of eliminating the rest
    # after elim, with the first v that reaches it.  Eliminating v costs its
    # neighbors outside elim reachable through elim, which are those of v
    # and of each component of G[elim] next to v.
    best = [None] * full + [(-1, None)]
    for elim in range(full - 1, -1, -1):
        result = (n, None)
        free = full & ~elim
        while free:
            bit = free & -free
            free ^= bit
            sub = best[elim | bit][0]
            if sub >= result[0]:
                continue  # v cannot beat the first best strictly
            v = bit.bit_length() - 1
            out = adj[v]
            for comp, nbrs in parts[elim]:
                if comp & adj[v]:
                    out |= nbrs
            cand = max((out & ~elim & ~bit).bit_count(), sub)
            if cand < result[0]:
                result = (cand, v)
        best[elim] = result

    order = []
    elim = 0
    width, _ = best[0]
    while elim != full:
        _, v = best[elim]
        order.append(v)
        elim |= 1 << v

    # simulate elimination to form bags over the fill-in graph
    adj = [set(neighbors(g, v)) for v in range(n)]
    alive = set(range(n))
    bags = []
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        nbrs = adj[v] & alive
        bags.append({v} | nbrs)
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
        alive.discard(v)
    edges = []
    for i, v in enumerate(order):
        later = [u for u in bags[i] if u != v]
        if later:
            j = min(pos[u] for u in later)
            edges.append((i, j))
        elif i + 1 < n:
            edges.append((i, i + 1))
    assert max(len(b) for b in bags) - 1 == width
    return width, bags, edges


def trivial_decomposition(g: Graph):
    """Single bag holding all of V; width n-1."""
    return [set(range(g.n))], []


# ---------------------------------------------------------------------------
# small constructions and checks


def complement_rook(m, n) -> Graph:
    """Complement of the rook's graph R(m,n): grid vertices (i,j), id i*n+j,
    adjacent iff in a different row and a different column."""
    if m < 1 or n < 1:
        raise ValueError("grid dimensions must be positive")
    edges = []
    for i in range(m):
        for j in range(n):
            for i2 in range(i + 1, m):
                for j2 in range(n):
                    if j2 != j:
                        edges.append((i * n + j, i2 * n + j2))
    return Graph(m * n, edges)


def threshold_cotree_text(n):
    """(* (+ (* ... 0 1) 2) 3) ...: odd vertices are joined to everything
    before them, even ones arrive isolated; nested n - 1 deep."""
    text = "0"
    for v in range(1, n):
        text = f"({'*' if v % 2 else '+'} {text} {v})"
    return text


def verify_product_witness(g: Graph, h: Graph, witness, size):
    """Checks that witness is an independent set of G x H with size
    vertices, by the product's definition on the factors' rows rather than
    on the explicit product, which for two 600-vertex factors would need
    360,000 rows of 360,000 bits: (a, b) and (a2, b2) are adjacent exactly
    when a ~ a2 in G and b ~ b2 in H."""
    ids = set(witness)
    if len(ids) != len(witness) or len(ids) != size:
        raise VerificationError(f"product witness has {len(ids)} distinct vertices, not {size}")
    if not all(0 <= pid < g.n * h.n for pid in ids):
        raise VerificationError("product witness has an id outside G x H")
    rows = [0] * g.n  # rows[a]: the H-coordinates b of the ids (a, b)
    for pid in ids:
        a, b = divmod(pid, h.n)
        rows[a] |= 1 << b
    for a, row in enumerate(rows):
        reach = 0  # H-neighbours of row
        for b in mask_to_set(row):
            reach |= h.adj[b]
        if any(rows[a2] & reach for a2 in mask_to_set(g.adj[a])):
            raise VerificationError("product witness is not independent in G x H")


# ---------------------------------------------------------------------------
# graph properties only tests ask for


def connected_components(g: Graph):
    """Per-vertex component ids, numbered by least contained vertex order."""
    comp = [-1] * g.n
    next_id = 0
    for start in range(g.n):
        if comp[start] >= 0:
            continue
        comp[start] = next_id
        frontier = 1 << start
        seen = frontier
        while frontier:
            reach = 0
            while frontier:
                reach |= g.adj[(frontier & -frontier).bit_length() - 1]
                frontier &= frontier - 1
            frontier = reach & ~seen
            seen |= reach
            w = frontier
            while w:
                comp[(w & -w).bit_length() - 1] = next_id
                w &= w - 1
        next_id = next_id + 1
    return comp


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return from_adj([full & ~m & ~(1 << v) for v, m in enumerate(g.adj)])


def component_count(g: Graph) -> int:
    comp = connected_components(g)
    return max(comp) + 1 if comp else 0


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or component_count(g) == 1


def is_bipartite(g: Graph):
    """Returns a proper 2-coloring (list of 0/1) or None."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            w = g.adj[u]
            while w:
                v = (w & -w).bit_length() - 1
                w &= w - 1
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    stack.append(v)
                elif color[v] == color[u]:
                    return None
    return color


# ---------------------------------------------------------------------------
# exhaustive references


def find_p4_reference(g: Graph, vertices=None):
    """An induced P4 (a,b,c,d) with edges ab, bc, cd, or None, from edge
    lists of every 4-subset in lexicographic order."""
    if vertices is None:
        vertices = range(g.n)
    for quad in combinations(sorted(vertices), 4):
        sub = [(u, v) for u, v in combinations(quad, 2) if has_edge(g, u, v)]
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


def cograph_recognize_reference(g: Graph):
    """Canonical cotree for g, or NotACograph with an induced-P4 witness, by
    recursion over induced subgraphs and their complements."""
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
        cc = connected_components(complement(sub))
        nco = max(cc) + 1
        if nco > 1:
            parts = [
                build([back[i] for i in range(len(back)) if cc[i] == c])
                for c in range(nco)
            ]
            return join(*parts)
        raise NotACograph(find_p4_reference(g, vertices))

    return build(list(range(g.n)))


def find_obstruction_reference(g: Graph):
    """First induced 2K2, C4 or C5 in lexicographic subset order, from edge
    lists of every subset."""
    for quad in combinations(range(g.n), 4):
        edges = [frozenset(e) for e in combinations(quad, 2) if has_edge(g, *e)]
        if len(edges) == 2 and not (edges[0] & edges[1]):
            return "2K2", quad
        if len(edges) == 4:
            deg = {v: sum(v in e for e in edges) for v in quad}
            if all(d == 2 for d in deg.values()):
                return "C4", quad
    for five in combinations(range(g.n), 5):
        edges = [e for e in combinations(five, 2) if has_edge(g, *e)]
        if len(edges) == 5:
            deg = {v: sum(v in e for e in edges) for v in five}
            if all(d == 2 for d in deg.values()):
                return "C5", five
    return None


def cograph_product_reference(tg, th):
    """alpha(G x H) for cotrees by the same recursion as
    alpha_product_cographs, memoizing a set of leaf pairs with every value:
    (value, witness of row-major product ids).  Recursive, so for shallow
    trees only."""
    memo = {}

    def solve(a, b):
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
    return value, {g * th.size + h for g, h in pairs}


def split_product_reference(g: Graph, p1, h: Graph, p2):
    """alpha(G x H) for split graphs over every case of the product theorem,
    each Koenig run cold and none skipped: (value, witness, index of the
    first best case in _SplitProductMIS.cases order)."""
    solver = _SplitProductMIS(g, p1, h, p2)
    best = None
    for index, (_, left, right, rook) in enumerate(solver.cases()):
        size, witness, _ = bipartite_mis(solver.adj, left, right)
        size += rook.bit_count()
        if best is None or size > best[0]:
            best = (size, witness | rook, index)
    return best[0], mask_to_set(best[1]), best[2]


def enumerate_maximal_independent_sets(g: Graph):
    """Every maximal independent set exactly once, as frozensets, in the
    kernel's deterministic order.  The count is at most 3^(n/3)
    (Moon-Moser)."""
    for mask in kernels.maximal_independent_sets(g.adj, (1 << g.n) - 1):
        yield frozenset(mask_to_set(mask))


def count_maximal_independent_sets(adj):
    return sum(1 for _ in kernels.maximal_independent_sets(adj, (1 << len(adj)) - 1))


def split_partition_scan(g: Graph):
    """Reference split partition: every clique side within one vertex in and
    one out of the degree-sequence partition, the largest and then the
    lexicographically least valid one.  Assumes g passed the degree test."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    degs = [g.degree(v) for v in order]
    m = max((i + 1 for i in range(n) if degs[i] >= i), default=0)
    base_c = set(order[:m])
    base_s = set(order[m:])

    def valid(c_set):
        return g.is_clique(c_set) and g.is_independent(set(range(n)) - c_set)

    candidates = [base_c]
    for v in base_s:
        candidates.append(base_c | {v})
    for u in base_c:
        candidates.append(base_c - {u})
        for v in base_s:
            candidates.append((base_c - {u}) | {v})
    best = max(
        (c for c in candidates if valid(c)),
        key=lambda c: (len(c), [-x for x in sorted(c)]),
    )
    return frozenset(best), frozenset(range(n)) - frozenset(best)


def chain_dp_reference(g: Graph, order, chain_ok):
    """The O(n^3) chain DP on vertex sets, one scan of every predecessor per
    chain length: best[(x, k)] = (cost, set), first predecessor in order
    wins on equal cost, final scan x-major then k ascending."""
    nbr = {v: set(neighbors(g, v)) for v in range(g.n)}
    best = {}
    for x in order:
        best[(x, 1)] = (len(nbr[x]), frozenset({x}))
        for k in range(2, g.n + 1):
            cand = None
            for y in order:
                if y == x or not chain_ok(y, x):
                    continue
                prev = best.get((y, k - 1))
                if prev is None:
                    continue
                cost = prev[0] + len(nbr[x] - nbr[y])
                if cand is None or cost < cand[0]:
                    cand = (cost, prev[1] | {x})
            if cand is not None:
                best[(x, k)] = cand
    result = None
    for (x, k), (cost, wit) in best.items():
        ratio = Fraction(k, k + cost)
        if result is None or ratio > result[0]:
            result = (ratio, wit)
    return result


def cograph_profile_reference(t: Cotree) -> NeighborhoodProfile:
    """The size-indexed profile DP on a cotree, which the cograph engine ran
    before its Dinkelbach steps: ell(k) for every k.  Unions convolve
    (min-plus), joins take the best child and pay for every vertex of the
    other children.  Nodes are solved in reverse preorder, so children come
    first and deep cotrees do not recurse.  Witnesses are vertex masks until
    the root's profile."""
    stack, order = [t], []
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    solved = {}  # id(node) -> (table, witness masks), until the parent takes it
    for node in reversed(order):
        if node.kind == LEAF:
            table, wits = {0: 0, 1: 0}, {0: 0, 1: 1 << node.vertex}
        elif node.kind == UNION:
            table, wits = {0: 0}, {0: 0}
            for child in node.children:
                ct, cw = solved.pop(id(child))
                nt, nw = {}, {}
                for k1, e1 in table.items():
                    for k2, e2 in ct.items():
                        k = k1 + k2
                        if k not in nt or e1 + e2 < nt[k]:
                            nt[k] = e1 + e2
                            nw[k] = wits[k1] | cw[k2]
                table, wits = nt, nw
        else:
            # join: a nonempty independent set sits inside one child and
            # sees every vertex of the other children
            table, wits = {0: 0}, {0: 0}
            for child in node.children:
                other = node.size - child.size
                ct, cw = solved.pop(id(child))
                for k, e in ct.items():
                    if k == 0:
                        continue
                    if k not in table or e + other < table[k]:
                        table[k] = e + other
                        wits[k] = cw[k]
        solved[id(node)] = table, wits
    table, wits = solved[id(t)]
    return NeighborhoodProfile(table, {k: mask_to_set(w) for k, w in wits.items()})


def treewidth_profile_reference(g: Graph, d: NiceTreeDecomposition) -> NeighborhoodProfile:
    """The size-indexed profile DP on a nice decomposition, which the
    treewidth engine ran before its Dinkelbach steps: ell(k) for every k.

    Entry key: (mask of bag vertices in I, mask of bag vertices with a
    processed neighbor in I, k = |I| over processed vertices).  Value:
    (m, witness mask) with m the number of processed vertices known to lie
    in N(I) and witness one I achieving it.  A vertex's neighbor count is
    final when it is forgotten, because all its neighbors live in bags of
    the current subtree.
    """
    tables = []
    for node, bag in zip(d.nodes, d.masks):
        if node.kind == START:
            tab = {(0, 0, 0): (0, 0)}
        elif node.kind == INTRODUCE:
            bit = 1 << node.vertex
            child = tables[node.children[0]]
            tab = {}

            def put(key, m, wit):
                if key not in tab or m < tab[key][0]:
                    tab[key] = (m, wit)

            xnbrs = g.adj[node.vertex] & bag
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


def validate_decomposition(g: Graph, bags, tree_edges):
    """Checks the three tree-decomposition axioms on plain bags, each
    failure with a witness: the tree shape, then vertex coverage, edge
    coverage and subtree connectivity, each for the least vertex or edge."""
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

    # vertex -> mask of the bags holding it, built once
    where = {}
    for i, b in enumerate(bags):
        for v in b:
            where[v] = where.get(v, 0) | (1 << i)
    for v in range(g.n):
        if v not in where:
            raise InvalidDecomposition(
                "vertex-coverage", f"vertex {v} appears in no bag", witness=v
            )
    for u, v in g.edges():
        if not where[u] & where[v]:
            raise InvalidDecomposition(
                "edge-coverage", f"edge ({u},{v}) is in no bag", witness=(u, v)
            )
    # the bags holding v induce a subforest of the tree, which is connected
    # exactly when it has one edge fewer than it has bags
    shared = {}
    for a, b in tree_edges:
        for v in bags[a] & bags[b]:
            shared[v] = shared.get(v, 0) + 1
    for v in range(g.n):
        if shared.get(v, 0) != where[v].bit_count() - 1:
            raise InvalidDecomposition(
                "subtree-connectivity",
                f"bags containing vertex {v} are disconnected",
                witness=v,
            )
    return bags, adj


def recheck_reference(g: Graph, nodes):
    """The check of a nice form's nodes that the library ran before its
    one-pass check, on bags derived as sets: equal JOIN bags, then the
    three axioms on all the nice bags.  Returns the bags."""
    nice_bags = []
    edges = []
    for i, n in enumerate(nodes):
        kids = [nice_bags[c] for c in n.children]
        edges += [(i, c) for c in n.children]
        if n.kind == START:
            bag = set()
        elif n.kind == INTRODUCE:
            bag = kids[0] | {n.vertex}
        elif n.kind == FORGET:
            bag = kids[0] - {n.vertex}
        elif kids[0] != kids[1]:
            raise InvalidDecomposition("nice-form", "join child bag differs")
        else:
            bag = kids[0]
        nice_bags.append(bag)
    validate_decomposition(g, nice_bags, edges)
    return nice_bags


def profile_exhaustive(g: Graph, limit=20) -> NeighborhoodProfile:
    """Profile ell(k) by scanning every independent set (small graphs)."""
    if g.n > limit:
        raise LimitExceeded(f"profile scan limited to {limit} vertices", required=g.n)
    table = {0: 0}
    wits = {0: frozenset()}
    for mask in range(1, 1 << g.n):
        vs = [v for v in range(g.n) if (mask >> v) & 1]
        if not g.is_independent(vs):
            continue
        nb = len(neighborhood(g, vs))
        k = len(vs)
        if k not in table or nb < table[k]:
            table[k] = nb
            wits[k] = frozenset(vs)
    return NeighborhoodProfile(table, wits)


def min_ratio_subset_exhaustive(svars, nbr):
    """Oracle twin of min_ratio_subset: scans all nonempty subsets."""
    svars = sorted(set(svars))
    ratios = {}
    for mask in range(1, 1 << len(svars)):
        sub = frozenset(svars[i] for i in range(len(svars)) if (mask >> i) & 1)
        nbrs = set().union(*(nbr[v] for v in sub)) if sub else set()
        ratios[sub] = Fraction(len(nbrs), len(sub))
    best = min(ratios.values())
    # minimizers are closed under union, so their union is the maximal one
    best_set = set().union(*(s for s, r in ratios.items() if r == best))
    return best_set, best


def general_reference(g: Graph):
    """(a, witness) of the general engine by its documented rule, with no
    pruning: the greedy maximal independent set (from the least vertex of
    minimum degree, add the candidate with the fewest candidate neighbours,
    least first on ties) gives the first witness, its maximal ratio
    minimizer, and the first price.  Unless that price is 1, each
    component, by least vertex, is walked on a stack of nodes (I, N(I), C):
    the candidates whose neighbours all lie in N(I) join I, and I replaces
    the witness when its ratio strictly beats the price.  If C is then
    independent, the best ratio of I | T over subsets T of C, when it
    strictly beats the price, is recorded with the union of the T that
    attain it.  Otherwise the walk branches on the candidate with the most
    candidate neighbours, least first on ties, and takes the branch that
    adds it first.  Ratios come from subset scans, on sets of vertices."""
    nbr = [neighbors(g, v) for v in range(g.n)]

    def ratio(vs):
        return Fraction(len(vs), len(vs) + len(set().union(*(nbr[v] for v in vs))))

    cand = set(range(g.n))
    greedy = []
    while cand:
        v = min(cand, key=lambda u: (len(nbr[u] & cand), u))
        greedy.append(v)
        cand -= nbr[v] | {v}
    witness, nu = min_ratio_subset_exhaustive(greedy, nbr)
    price = 1 / (1 + nu)
    comp = connected_components(g)
    for c in range(max(comp) + 1 if price != 1 else 0):
        stack = [(frozenset(), frozenset(), frozenset(v for v in range(g.n) if comp[v] == c))]
        while stack:
            inset, covered, cand = stack.pop()
            free = {v for v in cand if nbr[v] <= covered}
            inset, cand = inset | free, cand - free
            if inset and ratio(inset) > price:
                witness, price = inset, ratio(inset)
            if not cand:
                continue
            degree = {v: len(nbr[v] & cand) for v in cand}
            top = max(degree.values())
            if top:
                v = min(u for u in cand if degree[u] == top)
                stack.append((inset, covered, cand - {v}))
                stack.append((inset | {v}, covered | nbr[v], cand - nbr[v] - {v}))
                continue
            verts = sorted(cand)
            sets = [inset | {verts[i] for i in range(len(verts)) if sub >> i & 1}
                    for sub in range(1 << len(verts))]
            values = {grown: ratio(grown) for grown in sets if grown}
            best = max(values.values())
            if best > price:
                union = frozenset().union(*(t for t, r in values.items() if r == best))
                assert ratio(union) == best
                witness, price = union, best
    return price, frozenset(witness)


def _product_id(hn, a, b):
    """Row-major id of the product vertex (a, b) when H has hn vertices."""
    return a * hn + b


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
# the branch-and-bound kernel as it was written before its explicit stack


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


def max_independent_set_reference(adj, mask):
    """kernels.max_independent_set as a recursive closure: two scans of the
    candidates per node (reductions, then the branch vertex) and the full
    clique cover before each pruning test.  The same search in the same
    order, so the same (size, witness mask); its depth is bounded by the
    recursion limit."""
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

    expand(mask, 0, 0)
    return best_size, best_mask


# ---------------------------------------------------------------------------
# random generators


def random_graph(n, p, rng):
    return Graph(
        n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    )


def random_max_degree(n, maxdeg, p, rng):
    edges = []
    deg = [0] * n
    cands = list(combinations(range(n), 2))
    rng.shuffle(cands)
    for u, v in cands:
        if deg[u] < maxdeg and deg[v] < maxdeg and rng.random() < p:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def random_cotree(n, rng, max_arity=3):
    nodes = [leaf(i) for i in range(n)]
    while len(nodes) > 1:
        k = rng.randint(2, min(max_arity, len(nodes)))
        picks = sorted(rng.sample(range(len(nodes)), k), reverse=True)
        parts = [nodes[i] for i in picks]
        for i in picks:
            nodes.pop(i)
        nodes.append(union(*parts) if rng.random() < 0.5 else join(*parts))
    return nodes[0]
