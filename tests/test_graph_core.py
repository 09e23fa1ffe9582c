"""Graph construction, products, powers, helpers, file formats, ratios."""

import random
from fractions import Fraction

import pytest

from _helpers import (
    complement,
    complement_rook,
    component_count,
    connected_components,
    is_bipartite,
    is_connected,
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
    disjoint_union,
    empty_graph,
    graph_power,
    join,
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
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.degree(1) == 2 and g.degree(3) == 0
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    assert g.neighbors(1) == {0, 2}
    assert g.is_independent({0, 2, 3})
    assert not g.is_independent({0, 1})
    assert g.is_clique({0, 1}) and not g.is_clique({0, 2})


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph.from_adj([0b10, 0b00])  # not symmetric
    with pytest.raises(ValueError):
        Graph.from_adj([0b01, 0b00])  # self-loop


def test_complement_and_subgraph():
    g = path_graph(4)
    c = complement(g)
    assert sorted(c.edges()) == [(0, 2), (0, 3), (1, 3)]
    sub = g.subgraph([1, 2, 3])
    assert sub.n == 3 and sorted(sub.edges()) == [(0, 1), (1, 2)]


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
                        want = g.has_edge(a, a2) and h.has_edge(b, b2)
                        assert p.has_edge(a * 3 + b, a2 * 3 + b2) == want


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
            "join": join(g, h),
        }
        for name, r in results.items():
            assert Graph.from_adj(r.adj) == r, name
        edges = {
            "product": lambda x, y: g.has_edge(x // h.n, y // h.n) and h.has_edge(x % h.n, y % h.n),
            "power": lambda x, y: all(
                g.has_edge(x // g.n**i % g.n, y // g.n**i % g.n) for i in range(k)
            ),
            "union": lambda x, y: g.has_edge(x, y) if y < g.n else
            x >= g.n and h.has_edge(x - g.n, y - g.n),
            "join": lambda x, y: (x < g.n) != (y < g.n) or (
                g.has_edge(x, y) if y < g.n else h.has_edge(x - g.n, y - g.n)
            ),
        }
        for name, r in results.items():
            for x in range(r.n):
                for y in range(r.n):
                    want = x != y and edges[name](min(x, y), max(x, y))
                    assert r.has_edge(x, y) == want, (name, g.adj, h.adj, k)


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
    j = join(complete_graph(1), empty_graph(3))
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
    assert parse_graph("# c\np il 2 1\ne 0 1 # tail\n").has_edge(0, 1)
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
