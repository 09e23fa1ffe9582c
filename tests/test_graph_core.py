"""Graph construction, products, powers, helpers, file formats, ratios."""

import random
import sys
from fractions import Fraction

import pytest

from _helpers import (
    complement,
    complement_rook,
    component_count,
    connected_components,
    disjoint_union,
    from_adj,
    graph_join,
    has_edge,
    is_bipartite,
    is_connected,
    neighbors,
    random_graph,
)
from indeplib.errors import LimitExceeded, ParseError
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    components,
    cycle_graph,
    empty_graph,
    graph_power,
    is_product_independent,
    mask_to_set,
    neighborhood,
    path_graph,
    set_to_mask,
    star_graph,
)
from indeplib.io import format_graph, parse_graph
from indeplib.ratio import ratio_decimal, ratio_str


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2)])
    assert g.n == 4
    assert has_edge(g, 0, 1) and has_edge(g, 1, 0)
    assert not has_edge(g, 0, 2)
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert neighbors(g, 1) == {0, 2}
    assert g.is_independent({0, 2, 3})
    assert not g.is_independent({0, 1})
    assert g.is_clique({0, 1}) and not g.is_clique({0, 2})


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        from_adj([0b10, 0b00])  # not symmetric
    with pytest.raises(ValueError):
        from_adj([0b01, 0b00])  # self-loop


def test_complement_and_subgraph():
    g = path_graph(4)
    c = complement(g)
    assert sorted(c.edges()) == [(0, 2), (0, 3), (1, 3)]
    sub = g.subgraph([1, 2, 3])
    assert sub.n == 3 and sorted(sub.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        g.subgraph([0, 4])


def test_subgraph_matches_pairwise_definition():
    # the remapped masks give the graph built edge by edge on sorted ids
    rng = random.Random(61)
    for _ in range(200):
        g = random_graph(rng.randint(1, 24), rng.random(), rng)
        verts = rng.sample(range(g.n), rng.randint(0, g.n))
        order = sorted(verts)
        edges = [
            (i, j)
            for i, u in enumerate(order)
            for j, v in enumerate(order)
            if i < j and has_edge(g, u, v)
        ]
        want = Graph(len(order), edges)
        sub = g.subgraph(verts)
        assert sub == want and sub == from_adj(sub.adj)


def test_mask_helpers():
    assert mask_to_set(0b1011) == {0, 1, 3}
    assert set_to_mask({0, 1, 3}) == 0b1011


def test_categorical_product_k2_k2():
    # K2 x K2 is a perfect matching on 4 vertices
    p = categorical_product(complete_graph(2), complete_graph(2))
    assert p.n == 4
    assert sorted(p.edges()) == [(0, 3), (1, 2)]


def test_categorical_product_vs_definition():
    rng = random.Random(1)
    for _ in range(30):
        g = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4) if rng.random() < 0.5])
        h = Graph(3, [(u, v) for u in range(3) for v in range(u + 1, 3) if rng.random() < 0.5])
        p = categorical_product(g, h)
        assert p.n == 12
        for a in range(4):
            for b in range(3):
                for a2 in range(4):
                    for b2 in range(3):
                        want = has_edge(g, a, a2) and has_edge(h, b, b2)
                        assert has_edge(p, a * 3 + b, a2 * 3 + b2) == want


def _product_by_definition(g, h):
    """Adjacency masks of G x H, one edge (a,b)~(a2,b2) at a time."""
    adj = [0] * (g.n * h.n)
    for a in range(g.n):
        for b in range(h.n):
            for a2 in neighbors(g, a):
                for b2 in neighbors(h, b):
                    adj[a * h.n + b] |= 1 << (a2 * h.n + b2)
    return adj


def test_categorical_product_row_paths_vs_definition():
    # a row multiplies h.adj[b] by one bit per neighbour's block when
    # deg(a) * bits_per_digit >= |V(H)|, and ORs shifted copies otherwise;
    # the pairs below reach both paths, within one product too
    digit = sys.int_info.bits_per_digit
    rng = random.Random(19)
    hub = star_graph(6)  # the centre multiplies against H of 70, a leaf shifts
    pairs = [
        (complete_graph(6), random_graph(8, 0.5, rng)),  # dense rows
        (cycle_graph(5), random_graph(100, 0.3, rng)),  # sparse rows, wide H
        (hub, random_graph(70, 0.4, rng)),
        (random_graph(9, 0.4, rng), hub),
        (complete_graph(1), random_graph(12, 0.5, rng)),  # K1 factors
        (random_graph(7, 0.5, rng), complete_graph(1)),
        (empty_graph(4), random_graph(40, 0.5, rng)),  # edgeless factors
        (random_graph(5, 0.6, rng), empty_graph(33)),
        (path_graph(3), complete_graph(50)),
        (random_graph(40, 0.2, rng), random_graph(3, 1.0, rng)),  # unequal sizes
    ]
    paths = set()
    for g, h in pairs:
        assert categorical_product(g, h).adj == tuple(_product_by_definition(g, h))
        paths.update(g.degree(a) * digit < h.n for a in range(g.n) if g.degree(a))
    assert paths == {True, False}
    for _ in range(40):
        g = random_graph(rng.randint(1, 12), rng.random(), rng)
        h = random_graph(rng.randint(1, 90), rng.random() * 0.3, rng)
        assert categorical_product(g, h).adj == tuple(_product_by_definition(g, h))


def test_is_product_independent_cases():
    # P3 x K2: (a, b) has id 2a + b, and (a, b) ~ (a2, b2) iff |a - a2| = 1, b != b2
    g, h = path_graph(3), complete_graph(2)
    assert is_product_independent(g, h, [])
    assert is_product_independent(g, h, {0, 2, 4})  # column 0, adjacent rows
    assert is_product_independent(g, h, {0, 1})  # two ids in one row
    assert is_product_independent(g, h, {0, 1, 4, 5})  # rows 0 and 2 are not adjacent
    assert not is_product_independent(g, h, {0, 3})  # (0,0) ~ (1,1), across two rows
    assert not is_product_independent(g, h, {5, 2})  # (2,1) ~ (1,0)
    assert not is_product_independent(g, h, [0, 2, 0])  # a repeated id
    assert not is_product_independent(g, h, {6})  # past the last id
    assert not is_product_independent(g, h, {-1})  # negative
    assert not is_product_independent(g, empty_graph(0), {0})  # an empty factor has no ids


def test_is_product_independent_vs_explicit_product():
    rng = random.Random(31)
    seen = set()
    for _ in range(200):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        h = random_graph(rng.randint(1, 7), rng.random(), rng)
        p = categorical_product(g, h)
        ids = rng.sample(range(p.n), rng.randint(0, min(p.n, 6)))
        want = p.is_independent(ids)
        assert is_product_independent(g, h, ids) == want, (g.adj, h.adj, ids)
        seen.add(want)
    assert seen == {True, False}


def test_graph_power_matches_iterated_definition():
    # C5^3 left-associated: vertex ((a*5 + b)*5 + c) ~ ((a2*5 + b2)*5 + c2)
    # iff every coordinate is adjacent in C5
    c5 = cycle_graph(5)
    cube = graph_power(c5, 3)
    assert cube.n == 125
    for x in range(125):
        for y in range(125):
            want = all(has_edge(c5, x // 5**i % 5, y // 5**i % 5) for i in range(3))
            assert has_edge(cube, x, y) == want, (x, y)


def test_library_built_graphs_pass_from_adj():
    # products, powers, unions and joins skip from_adj's checks; each must
    # still be a graph from_adj accepts, with the edges of its definition
    rng = random.Random(9)
    for _ in range(300):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        h = random_graph(rng.randint(1, 6), rng.random(), rng)
        k = rng.randint(1, 3)
        results = {
            "product": categorical_product(g, h),
            "power": graph_power(g, k),
            "union": disjoint_union(g, h),
            "join": graph_join(g, h),
        }
        for name, r in results.items():
            assert from_adj(r.adj) == r, name
        edges = {
            "product": lambda x, y: (
                has_edge(g, x // h.n, y // h.n) and has_edge(h, x % h.n, y % h.n)
            ),
            "power": lambda x, y: all(
                has_edge(g, x // g.n**i % g.n, y // g.n**i % g.n) for i in range(k)
            ),
            "union": lambda x, y: has_edge(g, x, y) if y < g.n else
            x >= g.n and has_edge(h, x - g.n, y - g.n),
            "join": lambda x, y: (x < g.n) != (y < g.n) or (
                has_edge(g, x, y) if y < g.n else has_edge(h, x - g.n, y - g.n)
            ),
        }
        for name, r in results.items():
            for x in range(r.n):
                for y in range(r.n):
                    want = x != y and edges[name](min(x, y), max(x, y))
                    assert has_edge(r, x, y) == want, (name, g.adj, h.adj, k)


def test_product_of_empty_graph_raises():
    with pytest.raises(ValueError):
        categorical_product(empty_graph(0), complete_graph(2))


def test_k3_k3_is_complement_rook():
    p = categorical_product(complete_graph(3), complete_graph(3))
    r = complement_rook(3, 3)
    assert p.n == r.n and p.adj == r.adj


def test_graph_power():
    sq = graph_power(cycle_graph(5), 2)
    assert sq.n == 25
    assert graph_power(complete_graph(3), 1).adj == complete_graph(3).adj
    with pytest.raises(LimitExceeded):
        graph_power(complete_graph(10), 8)
    with pytest.raises(ValueError):
        graph_power(complete_graph(2), 0)


def test_neighborhood():
    g = star_graph(3)
    assert neighborhood(g, {0}) == {1, 2, 3}
    assert neighborhood(g, {1}) == {0}
    assert neighborhood(g, {1, 2, 3}) == {0}


def test_components_and_bipartite():
    g = disjoint_union(path_graph(3), complete_graph(3))
    assert component_count(g) == 2
    assert connected_components(g) == [0, 0, 0, 1, 1, 1]
    assert components(g.adj, 0b111111) == [0b000111, 0b111000]
    assert components(g.adj, 0b101101) == [0b000001, 0b000100, 0b101000]
    assert components(complement(g).adj, 0b111111) == [0b111111]
    assert components(g.adj, 0) == []
    assert not is_connected(g)
    assert is_bipartite(path_graph(4)) is not None
    assert is_bipartite(cycle_graph(5)) is None
    coloring = is_bipartite(complete_bipartite(2, 3))
    assert coloring[0] == coloring[1] != coloring[2]


def test_generators():
    assert complete_graph(4).edge_count() == 6
    assert path_graph(1).n == 1
    assert star_graph(3).degree(0) == 3
    assert complete_multipartite([1, 1, 1]).adj == complete_graph(3).adj
    assert complete_multipartite([2, 3]).adj == complete_bipartite(2, 3).adj
    j = graph_join(complete_graph(1), empty_graph(3))
    assert j.adj == star_graph(3).adj
    with pytest.raises(ValueError):
        cycle_graph(2)
    with pytest.raises(ValueError):
        complete_multipartite([])


def test_edge_list_round_trip():
    g = Graph(5, [(0, 4), (1, 2), (0, 1)])
    text = format_graph(g)
    assert text.splitlines()[0] == "p il 5 3"
    assert parse_graph(text).adj == g.adj


def test_edge_list_comments_and_errors():
    assert has_edge(parse_graph("# c\np il 2 1\ne 0 1 # tail\n"), 0, 1)
    for bad, frag in [
        ("", "empty"),
        ("p il 2\n", "header"),
        ("p il 2 1\ne 0 2\n", "out of range"),
        ("p il 2 1\ne 0 0\n", "self-loop"),
        ("p il 2 2\ne 0 1\n", "promises"),
        ("p il 2 1\nx 0 1\n", "edge line"),
    ]:
        with pytest.raises(ParseError, match=frag):
            parse_graph(bad)


def test_ratio_helpers():
    assert ratio_str(Fraction(3, 6)) == "1/2"
    assert ratio_str(Fraction(1)) == "1/1"
    assert ratio_decimal(Fraction(2, 3)) == "0.666667"
    assert ratio_decimal(Fraction(1, 2), places=2) == "0.50"
