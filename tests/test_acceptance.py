"""Acceptance gate: the ten headline guarantees, one test per criterion.

Each test prints a single "criterion N ...: PASS" line on success; any
disagreement fails the assert with the offending instance attached.
"""

import functools
import itertools
import random
import time
from fractions import Fraction
from math import ceil

from _helpers import (
    alpha_product_multipartite,
    cotree_catalog,
    disjoint_union,
    enumerate_maximal_independent_sets,
    graph_catalog_upto,
    is_splitgraph,
    multipartite_product_witness,
    random_cotree,
    random_graph,
    random_max_degree,
    treewidth_decomposition,
    verify_product_witness,
)
from indeplib.capacity import (
    a_cograph,
    a_general_exact,
    a_interval,
    a_permutation,
    a_split,
    a_star,
    a_treewidth,
    has_fractional_perfect_matching,
)
from indeplib.cotree import parse_cotree, realize
from indeplib.graph import (
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    graph_power,
)
from indeplib.intersection import (
    IntervalModel,
    PermutationModel,
    realize_interval,
    realize_permutation,
)
from indeplib.oracles import a_bruteforce, alpha_exact
from indeplib.domination import (
    ri_complete_bipartite_power,
    ri_power_exact,
    ultimate_independent_domination_multipartite,
)
from indeplib.product_alpha import (
    alpha_product_cographs,
    alpha_product_split,
    extract_is_from_k4_product,
)
from indeplib.splitgraph import split_partition
from indeplib.treedecomp import validate_and_nicify


def _nice_tw(g):
    _, bags, edges = treewidth_decomposition(g)
    return validate_and_nicify(g, bags, edges)


def _cograph_catalog_upto(n):
    out = []
    for k in range(1, n + 1):
        out.extend(cotree_catalog(k))
    return out


def _size_lists(total):
    lists = []

    def build(rest, minimum, acc):
        if acc:
            lists.append(list(acc))
        for s in range(minimum, rest + 1):
            acc.append(s)
            build(rest - s, s, acc)
            acc.pop()

    build(total, 1, [])
    return lists


def test_criterion_1_cograph_product_exactness():
    trees = _cograph_catalog_upto(7)
    checked = 0
    for tg in trees:
        g = realize(tg)
        for th in trees:
            h = realize(th)
            value, witness = alpha_product_cographs(tg, th)
            want = alpha_exact(categorical_product(g, h), limit=64)[0]
            assert value == want, (str(tg), str(th), value, want)
            verify_product_witness(g, h, witness, value)
            checked += 1
    rng = random.Random(101)
    for _ in range(500):
        tg = random_cotree(rng.randint(1, 12), rng)
        th = random_cotree(rng.randint(1, 12), rng)
        g, h = realize(tg), realize(th)
        value, witness = alpha_product_cographs(tg, th)
        want = alpha_exact(categorical_product(g, h), limit=200)[0]
        assert value == want, (str(tg), str(th), value, want)
        verify_product_witness(g, h, witness, value)
        checked += 1
    # documented regression: the double-join rule is max, not min
    p3 = parse_cotree("(* (+ 0 1) 2)")
    assert alpha_product_cographs(p3, p3)[0] == 6
    print(f"criterion 1 cograph product exactness ({checked} pairs): PASS")


def test_criterion_2_split_product_exactness():
    splits = [(g, split_partition(g)) for g in graph_catalog_upto(7) if is_splitgraph(g)]
    checked = 0
    for g, p1 in splits:
        for h, p2 in splits:
            value, witness = alpha_product_split(g, p1, h, p2)
            want = alpha_exact(categorical_product(g, h), limit=64)[0]
            assert value == want, (list(g.edges()), list(h.edges()), value, want)
            checked += 1
    print(f"criterion 2 split product exactness ({checked} pairs): PASS")


def test_criterion_3_multipartite_closed_form():
    lists = _size_lists(6)
    checked = 0
    for sg in lists:
        for sh in lists:
            g = complete_multipartite(sg)
            h = complete_multipartite(sh)
            value = alpha_product_multipartite(sg, sh)
            want = alpha_exact(categorical_product(g, h), limit=64)[0]
            assert value == want, (sg, sh, value, want)
            verify_product_witness(g, h, multipartite_product_witness(sg, sh), value)
            checked += 1
    print(f"criterion 3 multipartite closed form ({checked} pairs): PASS")


@functools.cache
def _general_on_catalog8():
    """(graph, a_general_exact(g).a) over the catalog up to 8 vertices; the
    engine runs once for criteria 4 and 5."""
    return tuple((g, a_general_exact(g).a) for g in graph_catalog_upto(8))


def test_criterion_4_capacity_engines_vs_oracle():
    checked = 0
    for g, a in _general_on_catalog8():
        want = a_bruteforce(g)[0]
        assert a == want, list(g.edges())
        checked += 1
        if g.n <= 7:
            assert a_treewidth(g, _nice_tw(g)).a == want, list(g.edges())
            checked += 1
        if is_splitgraph(g):
            assert a_split(g, split_partition(g)).a == want, list(g.edges())
            checked += 1
    for t in _cograph_catalog_upto(8):
        g = realize(t)
        assert a_cograph(t).a == a_bruteforce(g)[0], str(t)
        checked += 1
    rng = random.Random(103)
    for _ in range(200):
        n = rng.randint(1, 10)
        pts = rng.sample(range(3 * n), 2 * n)
        ivs = tuple(
            (min(pts[2 * i], pts[2 * i + 1]), max(pts[2 * i], pts[2 * i + 1]))
            for i in range(n)
        )
        m = IntervalModel(ivs)
        assert a_interval(m).a == a_bruteforce(realize_interval(m))[0], ivs
        perm = list(range(n))
        rng.shuffle(perm)
        pm = PermutationModel(tuple(perm))
        assert a_permutation(pm).a == a_bruteforce(realize_permutation(pm))[0], perm
        checked += 2
    print(f"criterion 4 capacity engines vs oracle ({checked} checks): PASS")


def test_criterion_5_fpm_equivalence():
    checked = 0
    for g, a in _general_on_catalog8():
        astar = a_star(a)
        assert (astar == 1) == (not has_fractional_perfect_matching(g)), list(g.edges())
        checked += 1
    rng = random.Random(107)
    for _ in range(200):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        astar = a_star(a_general_exact(g).a)
        assert (astar == 1) == (not has_fractional_perfect_matching(g)), list(g.edges())
        checked += 1
    print(f"criterion 5 fractional matching equivalence ({checked} graphs): PASS")


def test_criterion_6_toth_identity():
    checked = 0
    for g in graph_catalog_upto(5):
        sq = graph_power(g, 2)
        assert a_general_exact(sq).a_star == a_general_exact(g).a_star, list(g.edges())
        checked += 1
    print(f"criterion 6 a*(G^2)=a*(G) ({checked} graphs): PASS")


def test_criterion_7_bipartite_power_ratio():
    for m in range(1, 7):
        for k in range(1, 13):
            assert ri_complete_bipartite_power(m, m, k) == Fraction(1, 2), (m, k)
    brute = 0
    for m in range(1, 7):
        for n in range(m, 7):
            k = 1
            while (m + n) ** k <= 20:
                want = ri_power_exact(complete_bipartite(m, n), k)
                assert ri_complete_bipartite_power(m, n, k) == want, (m, n, k)
                brute += 1
                k += 1
    for m in range(1, 7):
        for n in range(1, 7):
            vals = [ri_complete_bipartite_power(m, n, k) for k in range(1, 13)]
            assert all(a >= b for a, b in zip(vals, vals[1:])), (m, n)
    print(f"criterion 7 closed-form power ratios ({brute} brute-force checks): PASS")


def test_criterion_8_ultimate_ratio_classification():
    checked = 0
    for t in range(2, 5):
        for sizes in itertools.combinations_with_replacement(range(1, 5), t):
            want = Fraction(1, 2) if t == 2 and sizes[0] == sizes[1] else Fraction(0)
            got = ultimate_independent_domination_multipartite(list(sizes))
            assert got == want, (sizes, got)
            checked += 1
    print(f"criterion 8 ultimate ratio classification ({checked} size lists): PASS")


def test_criterion_9_k4_extraction():
    rng = random.Random(109)
    for _ in range(200):
        g = random_max_degree(rng.randint(1, 10), 3, rng.random(), rng)
        product = categorical_product(g, complete_graph(4))
        size, witness = alpha_exact(product, limit=40)
        result = extract_is_from_k4_product(g, witness)
        assert g.is_independent(result)
        assert len(result) >= ceil(size / 4), (list(g.edges()), size, len(result))
        assert size == 4 * alpha_exact(g)[0], list(g.edges())
    print("criterion 9 K4-product extraction (200 graphs): PASS")


def test_criterion_10_performance_floor():
    g = random_graph(30, 0.3, random.Random(113))
    start = time.monotonic()
    res = a_general_exact(g)
    general_time = time.monotonic() - start
    assert general_time < 60, general_time
    assert 0 < res.a <= 1
    triangles = complete_graph(3)
    big = triangles
    for _ in range(9):
        big = disjoint_union(big, triangles)
    assert big.n == 30
    start = time.monotonic()
    count = sum(1 for _ in enumerate_maximal_independent_sets(big))
    enum_time = time.monotonic() - start
    assert count == 3**10
    assert enum_time < 60, enum_time
    print(
        "criterion 10 performance floor "
        f"(general {general_time:.1f}s, enumeration {enum_time:.1f}s): PASS"
    )
