"""Structured classes: cotrees, split partitions, interval/permutation
models, and tree decompositions."""

import random

import pytest

from _helpers import graph_catalog_upto, random_graph, trivial_decomposition
from indeplib.cotree import (
    cograph_recognize,
    find_p4,
    format_cotree,
    is_cograph,
    join,
    leaf,
    parse_cotree,
    realize,
    union,
)
from indeplib.errors import (
    InvalidDecomposition,
    InvalidModel,
    NotACograph,
    NotASplitgraph,
    ParseError,
)
from indeplib.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from indeplib.intersection import (
    IntervalModel,
    PermutationModel,
    realize_interval,
    realize_permutation,
)
from indeplib.io import (
    parse_interval_model,
    parse_permutation_model,
    parse_tree_decomposition,
)
from indeplib.splitgraph import is_splitgraph, split_partition
from indeplib.treedecomp import validate_and_nicify, validate_decomposition


# ---------------------------------------------------------------------------
# cotrees


def test_cotree_realize_p3():
    t = parse_cotree("(* (+ 0 1) 2)")
    g = realize(t)
    assert sorted(g.edges()) == [(0, 2), (1, 2)]


def test_cotree_parse_format_round_trip():
    for text in ["0", "(+ 0 1)", "(* (+ 0 1) 2)", "(+ (* 0 2) (* 1 3))"]:
        t = parse_cotree(text)
        assert parse_cotree(format_cotree(t)) == t


def test_cotree_canonical_flattening():
    # nested same-label nodes flatten, children sort by least leaf
    t = union(leaf(2), union(leaf(0), leaf(1)))
    assert format_cotree(t) == "(+ 0 1 2)"
    assert join(leaf(1), leaf(0)) == join(leaf(0), leaf(1))


def test_cotree_parse_errors():
    for bad in ["", "(", "(* 0 1", "(? 0 1)", "0 1", "(+ 0 x)"]:
        with pytest.raises(InvalidModel):
            parse_cotree(bad)


def test_cograph_recognition_round_trip():
    for g in graph_catalog_upto(6):
        if is_cograph(g):
            t = cograph_recognize(g)
            assert realize(t).adj == g.adj
        else:
            with pytest.raises(NotACograph) as err:
                cograph_recognize(g)
            a, b, c, d = err.value.witness
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)
            assert not (g.has_edge(a, c) or g.has_edge(a, d) or g.has_edge(b, d))


def test_find_p4():
    assert find_p4(path_graph(4)) == (0, 1, 2, 3)
    assert find_p4(complete_graph(4)) is None


# ---------------------------------------------------------------------------
# split graphs


def test_split_partition_examples():
    # the clique side is maximized: the center plus one leaf
    p = split_partition(star_graph(3))
    assert p.clique == {0, 1} and p.independent == {2, 3}
    p = split_partition(complete_graph(4))
    assert p.clique == {0, 1, 2, 3}
    p = split_partition(Graph(1, []))
    assert p.clique == {0} and p.independent == set()
    p.validate(Graph(1, []))


def test_split_partition_maximizes_clique():
    # path P3: valid partitions include C={1}, S={0,2} and C={0,1}, S={2};
    # the clique side is maximized, then lexicographically least
    p = split_partition(path_graph(3))
    assert len(p.clique) == 2
    assert p.clique == {0, 1}


def test_split_obstructions():
    cases = [
        (disjoint_union(complete_graph(2), complete_graph(2)), "2K2"),
        (cycle_graph(4), "C4"),
        (cycle_graph(5), "C5"),
    ]
    for g, kind in cases:
        with pytest.raises(NotASplitgraph) as err:
            split_partition(g)
        assert err.value.kind == kind
        assert len(set(err.value.witness)) == (5 if kind == "C5" else 4)


def test_split_recognition_matches_obstruction_freedom():
    from itertools import combinations

    def has_obstruction(g):
        for quad in combinations(range(g.n), 4):
            sub = g.subgraph(quad)
            m = sub.edge_count()
            degs = sorted(sub.degrees())
            if m == 2 and degs == [1, 1, 1, 1]:
                return True
            if m == 4 and degs == [2, 2, 2, 2]:
                return True
        for five in combinations(range(g.n), 5):
            sub = g.subgraph(five)
            if sub.edge_count() == 5 and sorted(sub.degrees()) == [2] * 5:
                return True
        return False

    for g in graph_catalog_upto(6):
        assert is_splitgraph(g) == (not has_obstruction(g)), list(g.edges())
        if is_splitgraph(g):
            split_partition(g).validate(g)


# ---------------------------------------------------------------------------
# interval and permutation models


def test_interval_models():
    assert realize_interval(IntervalModel(((0, 1), (2, 3), (4, 5)))).edge_count() == 0
    assert realize_interval(IntervalModel(((0, 9), (1, 8), (2, 7)))).adj == complete_graph(3).adj
    # endpoint touch counts as intersection
    assert realize_interval(IntervalModel(((0, 1), (1, 2)))).has_edge(0, 1)
    with pytest.raises(InvalidModel):
        IntervalModel(((2, 1),))


def test_permutation_models():
    assert realize_permutation(PermutationModel((0, 1, 2))).edge_count() == 0
    assert realize_permutation(PermutationModel((2, 1, 0))).adj == complete_graph(3).adj
    g = realize_permutation(PermutationModel((1, 0, 3, 2)))
    assert sorted(g.edges()) == [(0, 1), (2, 3)]
    with pytest.raises(InvalidModel):
        PermutationModel((0, 2))
    m = PermutationModel((1, 0, 2))
    assert m.left_of(0, 2) and not m.left_of(0, 1) and not m.left_of(2, 0)


def test_model_file_formats():
    m = parse_interval_model("# c\n1 1 2\n0 0 1\n")
    assert m.intervals == ((0, 1), (1, 2))
    with pytest.raises(ParseError):
        parse_interval_model("0 0 1\n2 0 1\n")  # ids not dense
    p = parse_permutation_model("3\n2 1 3\n")
    assert p.perm == (1, 0, 2)
    with pytest.raises(ParseError):
        parse_permutation_model("3\n1 2\n")
    with pytest.raises(ParseError):
        parse_permutation_model("3\n0 1 2\n")  # values must be 1-based


# ---------------------------------------------------------------------------
# tree decompositions


def test_validate_decomposition_accepts_paths():
    g = path_graph(4)
    bags = [{0, 1}, {1, 2}, {2, 3}]
    validate_decomposition(g, bags, [(0, 1), (1, 2)])


def test_validate_decomposition_axioms():
    g = path_graph(3)
    with pytest.raises(InvalidDecomposition, match="vertex-coverage"):
        validate_decomposition(g, [{0, 1}], [])
    with pytest.raises(InvalidDecomposition, match="edge-coverage"):
        validate_decomposition(g, [{0, 1}, {2}], [(0, 1)])
    with pytest.raises(InvalidDecomposition, match="subtree-connectivity"):
        validate_decomposition(g, [{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)])
    with pytest.raises(InvalidDecomposition, match="tree"):
        validate_decomposition(g, [{0, 1}, {1, 2}], [])


def test_nicify_preserves_width_and_validates():
    rng = random.Random(4)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        bags, edges = trivial_decomposition(g)
        nice = validate_and_nicify(g, bags, edges)
        assert nice.width == g.n - 1
        assert not nice.nodes[nice.root].bag
    g = path_graph(5)
    nice = validate_and_nicify(g, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    assert nice.width == 1


def test_parse_tree_decomposition():
    text = "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n"
    bags, edges, n = parse_tree_decomposition(text)
    assert bags == [{0, 1}, {1, 2}] and edges == [(0, 1)] and n == 3
    with pytest.raises(ParseError):
        parse_tree_decomposition("s td 2 2 3\nb 1 0 1\n1 2\n")  # missing bag
    with pytest.raises(ParseError):
        parse_tree_decomposition("s td 1 1 2\nb 1 0 1\n")  # bag too large
