"""The four workloads: inputs made from a seed, the timed item, and the
check of each result.

Inputs are generated here from ``random.Random(f"{workload}:{seed}")`` and
nowhere else (nothing is imported from the test suite), so a change to the
test helpers cannot change a workload.  Each pool is a list of rounds; a
round holds one item of every kind (or size class) in a fixed order, so any
prefix of the pool has the same mix.  That keeps a run's figures steady
across seeds: the seed changes the graphs, not the mix.

Checks run outside the timed region.  A check raises ``Wrong``; anything an
item raises is a failure too.  The expensive cross-checks (brute force,
exact oracle on the explicit product, the command line's in-process
reference) run the first time a pool item is seen; a repeat must give the
same answer as that verified first result.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

MODULES = (
    "capacity",
    "cli",
    "cotree",
    "errors",
    "flow",
    "graph",
    "intersection",
    "io",
    "kernels",
    "oracles",
    "product_alpha",
    "splitgraph",
    "treedecomp",
)

# a(G) is cross-checked against the subset-enumeration oracle up to here
BRUTE_MAX_N = 18
# alpha(G x H) is cross-checked against branch and bound up to here
PRODUCT_ORACLE_MAX = 64
CHILD_TIMEOUT_S = 60

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD_SHIM = os.path.join(HERE, "cli_child.py")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Wrong(Exception):
    """An item's result failed its check."""


def load_lib(src):
    """Import indeplib afresh from ``src`` (dropping any earlier import) and
    return its modules as one namespace."""
    for name in [m for m in sys.modules if m == "indeplib" or m.startswith("indeplib.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("indeplib")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(os.path.abspath(src), "indeplib"):
        raise ImportError(f"indeplib was imported from {where}, not from {src}")
    mods = {m: importlib.import_module("indeplib." + m) for m in MODULES}
    return SimpleNamespace(pkg=pkg, **mods)


@dataclass
class Item:
    index: int
    kind: str
    data: tuple


def rstr(x):
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# generators: each returns plain edge lists, so the checks never depend on
# the library's own model realization


def random_edges(n, p, rng):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def relabel(n, edges, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, [(perm[u], perm[v]) for u, v in edges]


def random_cograph(vertices, kind, rng):
    """(s-expression, edges) of a random cograph on ``vertices``; the root
    has label ``kind`` and labels alternate down the tree."""
    if len(vertices) == 1:
        return str(vertices[0]), []
    k = rng.randint(2, min(4, len(vertices)))
    cuts = sorted(rng.sample(range(1, len(vertices)), k - 1))
    parts = [vertices[a:b] for a, b in zip([0] + cuts, cuts + [len(vertices)])]
    other = "*" if kind == "+" else "+"
    exprs, edges = [], []
    for part in parts:
        e, sub = random_cograph(part, other, rng)
        exprs.append(e)
        edges += sub
    if kind == "*":
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                edges += [(u, v) for u in a for v in b]
    return f"({kind} {' '.join(exprs)})", edges


def cograph_input(n, root, rng):
    vertices = list(range(n))
    rng.shuffle(vertices)
    return random_cograph(vertices, root, rng)


def exact_edges(n, m, rng):
    """Uniform random graph with exactly m edges."""
    return rng.sample([(u, v) for u in range(n) for v in range(u + 1, n)], m)


def split_edges(n, rng):
    """Random split graph: a clique on n/2 vertices, the rest an independent
    set, each clique-to-rest pair an edge with probability 0.4, except that
    s0 - c0 - c1 - s1 is an induced P4 (so the graph is never a cograph and
    the dispatch reaches the split engine).  Returns (edges, clique side);
    needs n >= 4."""
    c = n // 2
    planted = {(0, c): True, (1, c): False, (0, c + 1): False, (1, c + 1): True}
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges += [
        (u, s)
        for s in range(c, n)
        for u in range(c)
        if planted.get((u, s), rng.random() < 0.4)
    ]
    perm, edges = relabel(n, edges, rng)
    return edges, {perm[u] for u in range(c)}


def interval_input(n, max_len, rng):
    ivs = []
    for _ in range(n):
        left = rng.randrange(4 * n)
        ivs.append((left, left + rng.randint(0, max_len)))
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]
    ]
    return ivs, edges


def permutation_input(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]]
    return perm, edges


def chain_decomposition(n, width, rng):
    """Graph on a path of bags {i..i+width} with every consecutive edge and
    each longer chord inside a bag present with probability 0.6, vertices
    relabeled at random.  Returns (edges, bags, tree edges)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [
        (i, j) for i in range(n) for j in range(i + 2, min(n, i + width + 1)) if rng.random() < 0.6
    ]
    perm, edges = relabel(n, edges, rng)
    bags = [{perm[v] for v in range(i, i + width + 1)} for i in range(n - width)]
    tree = [(i, i + 1) for i in range(len(bags) - 1)]
    return edges, bags, tree


def degree3_edges(n, rng):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    deg = [0] * n
    edges = []
    for u, v in pairs:
        if deg[u] < 3 and deg[v] < 3 and rng.random() < 0.7:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    return edges


def neither_edges(n, rng):
    """Random graph (p = 1/2) around an induced C5, which is neither a
    cograph nor a split graph; needs n >= 5."""
    cycle = [(i, (i + 1) % 5) for i in range(5)]
    edges = cycle + [
        (u, v) for u in range(n) for v in range(max(u + 1, 5), n) if rng.random() < 0.5
    ]
    return relabel(n, edges, rng)[1]


# ---------------------------------------------------------------------------
# checks built on Graph primitives


def check_capacity(lib, g, res, first):
    w = res.witness
    if not w:
        raise Wrong("empty witness")
    if not all(0 <= v < g.n for v in w) or not g.is_independent(w):
        raise Wrong("witness is not an independent set")
    achieved = Fraction(len(w), len(w) + len(lib.graph.neighborhood(g, w)))
    if achieved != res.a:
        raise Wrong(f"witness achieves {achieved}, result says a = {res.a}")
    a_star = Fraction(1) if res.a > Fraction(1, 2) else res.a
    if res.a_star != a_star:
        raise Wrong(f"a* = {res.a_star} does not follow from a = {res.a}")
    if (res.a_star == 1) == res.has_fpm:
        raise Wrong("a* = 1 must hold exactly when there is no fractional perfect matching")
    if first and g.n <= BRUTE_MAX_N:
        brute, _ = lib.oracles.a_bruteforce(g, limit=BRUTE_MAX_N)
        if brute != res.a:
            raise Wrong(f"brute force gives a = {brute}, engine gives {res.a}")


def check_product_set(g, h, witness, size):
    """``witness`` (row-major ids a * |H| + b) is an independent set of
    G x H of the given size: no two members are adjacent in both
    coordinates."""
    if len(witness) != size:
        raise Wrong(f"witness has {len(witness)} vertices, alpha = {size}")
    rows = {}
    for pid in witness:
        a, b = divmod(pid, h.n)
        if not 0 <= a < g.n:
            raise Wrong(f"product vertex {pid} out of range")
        rows[a] = rows.get(a, 0) | (1 << b)
    for a, row in rows.items():
        hn = 0
        r = row
        while r:
            hn |= h.adj[(r & -r).bit_length() - 1]
            r &= r - 1
        ga = g.adj[a]
        for a2, row2 in rows.items():
            if (ga >> a2) & 1 and hn & row2:
                raise Wrong("witness is not independent in the categorical product")


def break_set(adj_of, witness):
    """Corrupt an independent set: one member swapped for a vertex adjacent
    to another member (a one-member set gains a neighbor instead)."""
    members = sorted(witness)
    out = set(members)
    if len(members) == 1:
        out.add(adj_of(members[0]))
    else:
        out.discard(members[0])
        out.add(adj_of(members[1]))
    return out


def graph_neighbor(g):
    return lambda v: (g.adj[v] & -g.adj[v]).bit_length() - 1


def product_neighbor(g, h):
    def nb(pid):
        a, b = divmod(pid, h.n)
        a2 = (g.adj[a] & -g.adj[a]).bit_length() - 1
        b2 = (h.adj[b] & -h.adj[b]).bit_length() - 1
        return a2 * h.n + b2

    return nb


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    def pool(self, lib, rng, tiny):
        """The seed's inputs, as a list of Items."""
        raise NotImplementedError

    def prepare(self, lib, pool, workdir):
        """Set-up work beyond generating the pool (files to write)."""

    def warm_up_item(self, lib, pool):
        """An item run once during set-up, from a fixed tiny input so its
        cost does not depend on the seed."""
        return self.pool(lib, random.Random(f"{self.name}:warm-up"), tiny=True)[0]

    def run(self, lib, item, tracer=None):
        raise NotImplementedError

    def check(self, lib, item, result, first):
        raise NotImplementedError

    def answer(self, item, result):
        """Exact, witness-free answer compared with the stored outputs."""
        raise NotImplementedError

    def corrupt(self, item, result):
        raise NotImplementedError


def _rounds(kinds, rounds, sizes):
    """Items in round-robin order, one of every kind per round, each with
    the next entry of its kind's size cycle (so sizes are not drawn at
    random and every run sees the same size mix)."""
    seen = dict.fromkeys(kinds, 0)
    out = []
    for _ in range(rounds):
        for kind in kinds:
            cycle = sizes.get(kind, (None,))
            out.append((kind, cycle[seen[kind] % len(cycle)]))
            seen[kind] += 1
    return out


def _capacity_answer(res):
    return [rstr(res.a), rstr(res.a_star), res.has_fpm, res.engine.value]


def _capacity_corrupt(item, res):
    g = item.data[0]
    witness = frozenset(break_set(graph_neighbor(g), res.witness))
    return type(res)(res.a, res.a_star, witness, res.engine, res.has_fpm)


class CapacityGeneral(Workload):
    name = "capacity_general"
    # (n, p, components) size classes covering n 16-36 and p 0.1-0.4
    # together; a graph has round(p * n(n-1)/2) edges (per component), which
    # keeps the cost within a class steadier than G(n, p) would.  Two
    # components take the per-component path.  By cost, five classes lie
    # below the three n = 24 slots and five above, so the median falls in
    # the middle of those three (where a run holds some forty graphs, which
    # keeps the median steady from seed to seed) and the 90th percentile
    # inside the two n = 36 slots rather than on an edge between classes.
    CLASSES = (
        (16, 0.10, 1),
        (24, 0.30, 2),
        (18, 0.15, 1),
        (20, 0.18, 1),
        (22, 0.22, 1),
        (24, 0.25, 1),
        (24, 0.25, 1),
        (24, 0.25, 1),
        (26, 0.28, 1),
        (30, 0.32, 1),
        (33, 0.36, 1),
        (36, 0.40, 1),
        (36, 0.40, 1),
    )
    TINY = ((8, 0.3, 1), (10, 0.3, 2), (12, 0.25, 1))
    ROUNDS = 30

    def pool(self, lib, rng, tiny):
        classes = self.TINY if tiny else self.CLASSES
        items = []
        for (n, p, parts), _ in _rounds(classes, 1 if tiny else self.ROUNDS, {}):
            edges = []
            sizes = [n // parts + (i < n % parts) for i in range(parts)]
            base = 0
            for size in sizes:
                m = round(p * size * (size - 1) / 2)
                edges += [(u + base, v + base) for u, v in exact_edges(size, m, rng)]
                base += size
            _, edges = relabel(n, edges, rng)
            kind = f"n{n}p{p}" + ("x2" if parts == 2 else "")
            items.append(Item(len(items), kind, (lib.graph.Graph(n, edges),)))
        return items

    def run(self, lib, item, tracer=None):
        return lib.capacity.tensor_capacity(item.data[0])

    def check(self, lib, item, result, first):
        check_capacity(lib, item.data[0], result, first)

    def answer(self, item, result):
        return _capacity_answer(result)

    corrupt = staticmethod(_capacity_corrupt)


class CapacityClasses(Workload):
    name = "capacity_classes"
    # Item costs fall in two groups: cotree and split items take a few
    # milliseconds, the other five kinds tens to hundreds, each over a wide
    # range.  By cost, five items per round lie below the four cotree_large
    # items and five above, so the median falls in the middle of the
    # cotree_large items rather than in the gap between the groups, where
    # it would jump from seed to seed.  Their cost still varies with the
    # random cotree, so there are four per round: a run's median then rests
    # on about a hundred of them.
    KINDS = (
        "cotree",
        "interval_short",
        "split",
        "cotree_large",
        "permutation",
        "td_path",
        "split",
        "cotree_large",
        "interval_long",
        "split",
        "cotree_large",
        "td_chain3",
        "cotree",
        "cotree_large",
    )
    SIZES = {
        "cotree": ((60, "*"), (70, "+"), (80, "*"), (90, "+"), (100, "*")),
        "interval_short": (60, 70, 80, 90, 100, 110),
        "permutation": (60, 70, 80, 90, 100, 110),
        "td_path": (100, 130, 160, 190, 220),
        "split": (60, 72, 84, 96, 108, 120),
        "interval_long": (60, 70, 80, 90, 100, 110),
        "td_chain3": (100, 110, 120, 130, 140),
        "cotree_large": ((110, "+"), (120, "*"), (130, "+"), (140, "*"), (150, "+")),
    }
    TINY = dict(dict.fromkeys(KINDS, (12,)), cotree=((12, "*"),), cotree_large=((12, "+"),))
    ROUNDS = 25

    def pool(self, lib, rng, tiny):
        Graph = lib.graph.Graph
        items = []
        sizes = self.TINY if tiny else self.SIZES
        for kind, n in _rounds(self.KINDS, 1 if tiny else self.ROUNDS, sizes):
            if kind.startswith("interval"):
                ivs, edges = interval_input(n, 3 if kind == "interval_short" else n // 2, rng)
                cert = {"interval": lib.intersection.IntervalModel(tuple(ivs))}
            elif kind == "permutation":
                perm, edges = permutation_input(n, rng)
                cert = {"permutation": lib.intersection.PermutationModel(tuple(perm))}
            elif kind.startswith("td"):
                edges, bags, tree = chain_decomposition(n, 1 if kind == "td_path" else 3, rng)
                cert = {"bags": bags, "tree": tree}
            elif kind.startswith("cotree"):
                n, root = n
                expr, edges = cograph_input(n, root, rng)
                cert = {"cotree": lib.cotree.parse_cotree(expr)}
            else:
                edges, clique = split_edges(n, rng)
                clique = frozenset(clique)
                rest = frozenset(range(n)) - clique
                cert = {"split": lib.splitgraph.SplitPartition(clique, rest)}
            g = Graph(n, edges)
            if "bags" in cert or "split" in cert:
                cert["g"] = g
            items.append(Item(len(items), kind, (g, cert)))
        return items

    def run(self, lib, item, tracer=None):
        cert = item.data[1]
        cap = lib.capacity
        if "bags" in cert:
            g = cert["g"]
            nice = lib.treedecomp.validate_and_nicify(g, cert["bags"], cert["tree"])
            return cap.tensor_capacity(g, decomposition=nice)
        return cap.tensor_capacity(**cert)

    def check(self, lib, item, result, first):
        check_capacity(lib, item.data[0], result, first)

    def answer(self, item, result):
        return _capacity_answer(result)

    corrupt = staticmethod(_capacity_corrupt)


class AlphaProducts(Workload):
    name = "alpha_products"
    # The mix puts each reported percentile inside one group of similar
    # items rather than on the edge between two groups of very different
    # cost, where it would jump from seed to seed: 9 of 14 items are the
    # small oracle-bound kinds (the median falls among them), and 2 of 14
    # are 20-vertex split pairs, with only the 24- and 28-vertex split pairs
    # above them (the 90th percentile falls in the middle of the 20s).
    KINDS = (
        "neither",
        "cograph",
        "k4",
        "split20",
        "neither",
        "k4",
        "split",
        "neither",
        "cograph",
        "k4",
        "split20",
        "neither",
        "k4",
        "neither",
    )
    SIZES = {
        # (|G|, |H|, root labels)
        "cograph": (
            (20, 100, "**"),
            (40, 60, "*+"),
            (60, 80, "**"),
            (80, 40, "*+"),
            (100, 20, "**"),
            (50, 50, "*+"),
            (100, 100, "**"),
            (30, 70, "*+"),
        ),
        "neither": ((5, 8), (6, 6), (10, 4), (5, 7), (8, 5), (6, 5)),
        "k4": (7, 8, 9, 10),
        "split": (8, 12, 16, 24, 28),
        "split20": (20,),
    }
    TINY = {
        "cograph": ((6, 7, "*+"),),
        "neither": ((5, 4),),
        "k4": (6,),
        "split": (6,),
        "split20": (6,),
    }
    # Peak memory climbs as a run meets new cograph pairs, so a run must get
    # through the whole pool for its peak RSS not to depend on how far it
    # got; twelve rounds take about two-thirds of a run.
    ROUNDS = 12
    ENGINE = {"cograph": "cograph", "split": "split", "split20": "split", "neither": "oracle"}

    def pool(self, lib, rng, tiny):
        Graph = lib.graph.Graph
        items = []
        sizes = self.TINY if tiny else self.SIZES
        for kind, n in _rounds(self.KINDS, 1 if tiny else self.ROUNDS, sizes):
            if kind == "cograph":
                n1, n2, roots = n
                data = (
                    Graph(n1, cograph_input(n1, roots[0], rng)[1]),
                    Graph(n2, cograph_input(n2, roots[1], rng)[1]),
                )
            elif kind.startswith("split"):
                data = (Graph(n, split_edges(n, rng)[0]), Graph(n, split_edges(n, rng)[0]))
            elif kind == "neither":
                n1, n2 = n
                data = (Graph(n1, neither_edges(n1, rng)), Graph(n2, random_edges(n2, 0.5, rng)))
            else:
                data = (Graph(n, degree3_edges(n, rng)),)
            items.append(Item(len(items), kind, data))
        return items

    def run(self, lib, item, tracer=None):
        if item.kind == "k4":
            g = item.data[0]
            product = lib.graph.categorical_product(g, lib.graph.complete_graph(4))
            value, s_prime = lib.oracles.alpha_exact(product)
            return value, s_prime, lib.product_alpha.extract_is_from_k4_product(g, s_prime)
        g, h = item.data
        errors = lib.errors
        try:
            tg, th = lib.cotree.cograph_recognize(g), lib.cotree.cograph_recognize(h)
            value, witness = lib.product_alpha.alpha_product_cographs(tg, th)
            return value, witness, "cograph"
        except errors.NotACograph:
            pass
        try:
            p1, p2 = lib.splitgraph.split_partition(g), lib.splitgraph.split_partition(h)
            value, witness = lib.product_alpha.alpha_product_split(g, p1, h, p2)
            return value, witness, "split"
        except errors.NotASplitgraph:
            pass
        value, witness = lib.oracles.alpha_exact(lib.graph.categorical_product(g, h))
        return value, witness, "oracle"

    def check(self, lib, item, result, first):
        if item.kind == "k4":
            g = item.data[0]
            value, s_prime, extracted = result
            check_product_set(g, lib.graph.complete_graph(4), s_prime, value)
            if not extracted or not g.is_independent(extracted):
                raise Wrong("extracted set is not an independent set of G")
            if 4 * len(extracted) < value:
                raise Wrong(f"extracted {len(extracted)} vertices from {value}: below a quarter")
            return
        g, h = item.data
        value, witness, engine = result
        if engine != self.ENGINE[item.kind]:
            raise Wrong(f"{item.kind} pair dispatched to {engine}")
        check_product_set(g, h, witness, value)
        if first and g.n * h.n <= PRODUCT_ORACLE_MAX:
            product = lib.graph.categorical_product(g, h)
            if not product.is_independent(witness):
                raise Wrong("witness is not independent in the explicit product")
            exact, _ = lib.oracles.alpha_exact(product, limit=PRODUCT_ORACLE_MAX)
            if exact != value:
                raise Wrong(f"oracle gives alpha = {exact}, engine gives {value}")

    def answer(self, item, result):
        if item.kind == "k4":
            return [result[0]]
        return [result[0], result[2]]

    def corrupt(self, item, result):
        if item.kind == "k4":
            value, s_prime, extracted = result
            g = item.data[0]
            return value, s_prime, break_set(graph_neighbor(g), extracted)
        value, witness, engine = result
        g, h = item.data
        return value, break_set(product_neighbor(g, h), witness), engine


class Cli(Workload):
    name = "cli"
    # Start-up dominates every command, so most items cost the same; three
    # of fifteen are general-engine runs on 23-25 vertices that take about
    # half as long again.  The 90th percentile falls in the middle of those,
    # rather than in the tail of start-up times, which is where interference
    # from other processes on the machine shows first, or on the edge of
    # the group, where it would move with the seed's graphs.
    KINDS = (
        "capacity",
        "alpha_cograph",
        "capacity_large",
        "capacity_interval",
        "check",
        "capacity_permutation",
        "alpha_split",
        "capacity_large",
        "capacity_cotree",
        "capacity_large",
        "domination_bipartite",
        "capacity_td",
        "alpha_neither",
        "capacity_split",
        "domination_multipartite",
    )
    SIZES = {"capacity_large": (23, 24, 25)}
    TINY = {"capacity_large": (10,)}
    ROUNDS = 12

    def __init__(self):
        self.workdir = None

    def pool(self, lib, rng, tiny):
        """Items carry the argv, the files to write as {name: text} and the
        graphs in those files."""
        items = []
        sizes = self.TINY if tiny else self.SIZES
        for kind, size in _rounds(self.KINDS, 1 if tiny else self.ROUNDS, sizes):
            tag = f"{len(items):03d}"
            files = {}
            graphs = {}

            def graph_file(name, n, edges):
                lines = [f"p il {n} {len(edges)}"] + [f"e {u} {v}" for u, v in edges]
                files[name] = "\n".join(lines) + "\n"
                graphs[name] = lib.graph.Graph(n, edges)

            if kind == "capacity":
                n = rng.randint(8, 12)
                graph_file(f"g{tag}.g", n, random_edges(n, rng.uniform(0.2, 0.4), rng))
                argv = ["capacity", f"g{tag}.g"]
            elif kind == "capacity_large":
                m = round(0.26 * size * (size - 1) / 2)
                graph_file(f"g{tag}.g", size, exact_edges(size, m, rng))
                argv = ["capacity", f"g{tag}.g"]
            elif kind == "capacity_interval":
                n = rng.randint(10, 20)
                ivs, edges = interval_input(n, n // 3, rng)
                files[f"m{tag}.iv"] = "".join(f"{i} {l} {r}\n" for i, (l, r) in enumerate(ivs))
                graphs[f"m{tag}.iv"] = lib.graph.Graph(n, edges)
                argv = ["capacity", "--interval", f"m{tag}.iv"]
            elif kind == "capacity_permutation":
                n = rng.randint(10, 20)
                perm, edges = permutation_input(n, rng)
                files[f"m{tag}.pm"] = f"{n}\n" + " ".join(str(v + 1) for v in perm) + "\n"
                graphs[f"m{tag}.pm"] = lib.graph.Graph(n, edges)
                argv = ["capacity", "--permutation", f"m{tag}.pm"]
            elif kind == "capacity_cotree":
                n = rng.randint(10, 30)
                expr, edges = cograph_input(n, rng.choice("+*"), rng)
                files[f"t{tag}.ct"] = expr + "\n"
                graphs[f"t{tag}.ct"] = lib.graph.Graph(n, edges)
                argv = ["capacity", "--cotree", f"t{tag}.ct"]
            elif kind == "capacity_td":
                n = rng.randint(15, 30)
                edges, bags, tree = chain_decomposition(n, rng.choice((1, 2)), rng)
                graph_file(f"g{tag}.g", n, edges)
                width = max(len(b) for b in bags)
                lines = [f"s td {len(bags)} {width} {n}"]
                lines += [f"b {i + 1} " + " ".join(map(str, sorted(b))) for i, b in enumerate(bags)]
                lines += [f"{a + 1} {b + 1}" for a, b in tree]
                files[f"d{tag}.td"] = "\n".join(lines) + "\n"
                argv = ["capacity", "--td", f"d{tag}.td", f"g{tag}.g"]
            elif kind == "capacity_split":
                n = rng.randint(10, 20)
                graph_file(f"g{tag}.g", n, split_edges(n, rng)[0])
                argv = ["capacity", "--split", f"g{tag}.g"]
            elif kind.startswith("alpha"):
                if kind == "alpha_cograph":
                    n1, n2 = rng.randint(6, 12), rng.randint(6, 12)
                    pair = [
                        (n1, cograph_input(n1, rng.choice("+*"), rng)[1]),
                        (n2, cograph_input(n2, rng.choice("+*"), rng)[1]),
                    ]
                elif kind == "alpha_split":
                    n1, n2 = rng.randint(6, 10), rng.randint(6, 10)
                    pair = [(n1, split_edges(n1, rng)[0]), (n2, split_edges(n2, rng)[0])]
                else:
                    n1, n2 = rng.choice(AlphaProducts.SIZES["neither"])
                    pair = [(n1, neither_edges(n1, rng)), (n2, random_edges(n2, 0.5, rng))]
                graph_file(f"a{tag}.g", *pair[0])
                graph_file(f"b{tag}.g", *pair[1])
                argv = ["alpha", f"a{tag}.g", f"b{tag}.g"]
            elif kind == "check":
                n = rng.randint(6, 10)
                graph_file(f"g{tag}.g", n, random_edges(n, rng.uniform(0.25, 0.5), rng))
                argv = ["check", f"g{tag}.g"]
            elif kind == "domination_bipartite":
                m, n = rng.randint(1, 4), rng.randint(1, 4)
                kmax = str(rng.randint(4, 12))
                argv = ["domination", "--bipartite", str(m), str(n), "--kmax", kmax]
            else:
                sizes = [str(rng.randint(1, 4)) for _ in range(rng.randint(2, 4))]
                argv = ["domination", "--multipartite", *sizes]
            items.append(Item(len(items), kind, (["--json", *argv], files, graphs)))
        return items

    def prepare(self, lib, pool, workdir):
        os.makedirs(workdir, exist_ok=True)
        for item in pool:
            for name, text in item.data[1].items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        self.workdir = workdir

    def warm_up_item(self, lib, pool):
        return pool[0]  # start-up dominates, whatever the command

    def run(self, lib, item, tracer=None):
        """One child process; with a tracer the child runs the traced shim
        and hands back its spans through a file."""
        argv = item.data[0]
        if tracer is None:
            cmd = [sys.executable, "-m", "indeplib.cli", *argv]
        else:
            spans_path = os.path.join(self.workdir, "child-spans.json")
            cmd = [sys.executable, CHILD_SHIM, spans_path, *argv]
        proc = subprocess.run(
            cmd,
            cwd=self.workdir,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=False,
        )
        if tracer is not None and proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
            tracer.add_child(child["spans"], child["counts"])
        return proc.returncode, proc.stdout

    def reference(self, lib, item):
        """The same command run in-process, checked against the oracles."""
        argv = item.data[0]
        out = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out):
                code = lib.cli.main(argv)
        finally:
            os.chdir(cwd)
        text = out.getvalue()
        if code != 0:
            raise Wrong(f"in-process reference exits {code}")
        graphs = item.data[2]
        cmd = argv[1]
        if cmd == "capacity":
            record = json.loads(text)
            g = graphs[argv[-1]]
            if g.n <= BRUTE_MAX_N:
                brute, _ = lib.oracles.a_bruteforce(g, limit=BRUTE_MAX_N)
                if rstr(brute) != record["a"]:
                    raise Wrong(f"brute force gives a = {brute}, command prints {record['a']}")
        elif cmd == "alpha":
            record = json.loads(text)
            g, h = graphs[argv[-2]], graphs[argv[-1]]
            if g.n * h.n <= PRODUCT_ORACLE_MAX:
                product = lib.graph.categorical_product(g, h)
                exact, _ = lib.oracles.alpha_exact(product, limit=PRODUCT_ORACLE_MAX)
                if exact != record["alpha"]:
                    raise Wrong(f"oracle gives alpha = {exact}, command prints {record['alpha']}")
        elif cmd == "check" and "FAIL" in text:
            raise Wrong("invariant check reports a failure")
        return text

    def check(self, lib, item, result, first):
        code, text = result
        if code != 0:
            raise Wrong(f"exit code {code}")
        if first and text != self.reference(lib, item):
            raise Wrong("output differs from the in-process reference")

    def answer(self, item, result):
        return [result[0], result[1]]

    def corrupt(self, item, result):
        """Change the last digit of the output."""
        code, text = result
        for i in range(len(text) - 1, -1, -1):
            if text[i].isdigit():
                d = str((int(text[i]) + 1) % 10)
                return code, text[:i] + d + text[i + 1 :]
        return code, text + "0"


WORKLOADS = {w.name: w for w in (CapacityGeneral, CapacityClasses, AlphaProducts, Cli)}
