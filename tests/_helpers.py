"""Shared test plumbing: isomorphism-reduced graph catalogs, cotree
enumeration, random model generators, and an exact treewidth finder.

Catalogs are generated by vertex augmentation with isomorphism rejection
via canonical codes (color refinement plus a pruned search for the
minimum adjacency encoding); published counts (1, 2, 4, 11, 34, 156,
1044, 12346 for n = 1..8) are asserted as a self-check.  The n = 8
catalog is read from a committed cache written by tools/gen_graphs8.py.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations

from indeplib.cotree import join, leaf, union
from indeplib.errors import VerificationError
from indeplib.graph import Graph, categorical_product

GRAPH_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
GRAPHS8_CACHE = os.path.join(DATA_DIR, "graphs8.txt")


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
            (colors[v], tuple(sorted(colors[u] for u in g.neighbors(v))))
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
                g.has_edge(v, u) == h.has_edge(w, mapping[u]) for u in range(v)
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
                if g.has_edge(v, placed[j]):
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

    def cost(v, elim):
        """Neighbors of v outside elim, reachable through elim u {v}."""
        seen = (1 << v) | (elim & _reach(v, elim))
        out = 0
        for u in range(n):
            if u != v and not (elim >> u) & 1:
                if g.adj[u] & seen:
                    out |= 1 << u
        return out

    def _reach(v, elim):
        grow = g.adj[v] & elim
        while True:
            nxt = grow
            m = grow
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                nxt |= g.adj[u] & elim
            if nxt == grow:
                return grow
            grow = nxt

    from functools import lru_cache as _lru

    @_lru(maxsize=None)
    def best(elim):
        if elim == full:
            return -1, None
        result = None
        for v in range(n):
            if (elim >> v) & 1:
                continue
            width_here = bin(cost(v, elim)).count("1")
            sub, _ = best(elim | (1 << v))
            cand = max(width_here, sub)
            if result is None or cand < result[0]:
                result = (cand, v)
        return result

    order = []
    elim = 0
    width, _ = best(0)
    while elim != full:
        _, v = best(elim)
        order.append(v)
        elim |= 1 << v

    # simulate elimination to form bags over the fill-in graph
    adj = [set(g.neighbors(v)) for v in range(n)]
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
    labels = [f"({i},{j})" for i in range(m) for j in range(n)]
    return Graph(m * n, edges, labels)


def verify_product_witness(g: Graph, h: Graph, witness, size):
    """Checks on the explicit product that witness is an independent set of
    G x H with size vertices."""
    if len(witness) != size:
        raise VerificationError(f"product witness has {len(witness)} vertices, not {size}")
    if not categorical_product(g, h).is_independent(witness):
        raise VerificationError("product witness is not independent in G x H")


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
