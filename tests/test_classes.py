"""Structured classes: cotrees, split partitions, interval/permutation
models, and tree decompositions."""

import random
import tracemalloc

import pytest

from _helpers import (
    cograph_recognize_reference,
    disjoint_union,
    find_obstruction_reference,
    from_adj,
    graph_catalog,
    graph_catalog_upto,
    has_edge,
    is_cograph,
    is_splitgraph,
    join,
    random_cotree,
    random_graph,
    recheck_reference,
    split_partition_scan,
    threshold_cotree_text,
    treewidth_decomposition,
    trivial_decomposition,
    union,
    validate_decomposition,
)
from indeplib.cotree import (
    cograph_recognize,
    find_p4,
    format_cotree,
    leaf,
    parse_cotree,
    realize,
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
    path_graph,
    set_to_mask,
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
from indeplib.splitgraph import (
    SplitPartition,
    _find_obstruction,
    split_partition,
)
from indeplib.treedecomp import (
    FORGET,
    INTRODUCE,
    JOIN,
    START,
    NiceNode,
    NiceTreeDecomposition,
    validate_and_nicify,
)


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


def test_cotree_helpers_on_deep_tree():
    # 1200 leaves nested 1199 deep: formatting, equality and hashing need
    # no recursion
    text = threshold_cotree_text(1200)
    t, u = parse_cotree(text), parse_cotree(text)
    assert t is not u
    assert format_cotree(t) == text
    assert t == u and hash(t) == hash(u)
    assert t != parse_cotree(text.replace("(* 0 1)", "(+ 0 1)"))


def test_cotree_canonical_flattening():
    # nested same-label nodes flatten, children sort by least leaf
    t = union(leaf(2), union(leaf(0), leaf(1)))
    assert format_cotree(t) == "(+ 0 1 2)"
    assert join(leaf(1), leaf(0)) == join(leaf(0), leaf(1))


def test_cotree_parse_errors():
    for bad in ["", "(", "(* 0 1", "(? 0 1)", "0 1", "(+ 0 x)"]:
        with pytest.raises(InvalidModel):
            parse_cotree(bad)


def test_cotree_leaf_masks():
    t = parse_cotree("(* (+ 3 0) (+ 1 2))")
    assert t.mask == 0b1111 and t.size == 4 and t.leaves == (0, 1, 2, 3)
    assert [c.leaves for c in t.children] == [(0, 3), (1, 2)]
    with pytest.raises(InvalidModel, match="duplicate leaf ids"):
        parse_cotree("(* (+ 0 1) (+ 1 2))")
    # refused before a leaf mask of 10^11 bits is built
    with pytest.raises(InvalidModel, match="out of range for 2 leaves"):
        parse_cotree("(+ 0 100000000000)")


def test_cograph_recognition_round_trip():
    for g in graph_catalog_upto(6):
        if is_cograph(g):
            t = cograph_recognize(g)
            assert realize(t).adj == g.adj
            assert cograph_recognize(g, witness=False) == t
        else:
            with pytest.raises(NotACograph) as err:
                cograph_recognize(g)
            a, b, c, d = err.value.witness
            assert has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, c, d)
            assert not (has_edge(g, a, c) or has_edge(g, a, d) or has_edge(g, b, d))
            with pytest.raises(NotACograph) as err:
                cograph_recognize(g, witness=False)
            assert err.value.witness == () and str(err.value) == "graph is not a cograph"


def test_cograph_recognition_builds_canonical_trees():
    # recognition builds each node from its parts as they come, without
    # flattening or sorting them: on every cograph of the 8-vertex catalog
    # its tree is the one parsing its own text builds, and realizes g
    cographs = 0
    for g in graph_catalog(8):
        try:
            t = cograph_recognize(g, witness=False)
        except NotACograph:
            continue
        assert t == parse_cotree(format_cotree(t))
        assert realize(t).adj == g.adj
        cographs += 1
    assert cographs == 522  # unlabeled cographs on 8 vertices


def test_find_p4():
    assert find_p4(path_graph(4)) == (0, 1, 2, 3)
    assert find_p4(complete_graph(4)) is None


def _cotree_or_p4(recognize, g):
    try:
        return format_cotree(recognize(g))
    except NotACograph as err:
        return err.witness


def _obstruction(g):
    try:
        split_partition(g)
    except NotASplitgraph as err:
        return err.kind, err.witness
    return None


def test_recognition_matches_references_on_catalog():
    for g in graph_catalog_upto(7):
        edges = list(g.edges())
        assert _cotree_or_p4(cograph_recognize, g) == _cotree_or_p4(
            cograph_recognize_reference, g
        ), edges
        want = find_obstruction_reference(g)
        assert _find_obstruction(g) == want and _obstruction(g) == want, edges


def test_recognition_matches_references_on_relabelled_cographs():
    # random cographs under a random vertex order, every second one with one
    # vertex pair toggled, so most of those fail with a P4 deep in the tree
    rng = random.Random(5)
    for i in range(300):
        n = rng.randint(2, 40)
        t = random_cotree(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [0] * n
        for u, v in realize(t).edges():
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        if i % 2:
            u, v = rng.sample(range(n), 2)
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        g = from_adj(adj)
        edges = list(g.edges())
        assert _cotree_or_p4(cograph_recognize, g) == _cotree_or_p4(
            cograph_recognize_reference, g
        ), edges
        found = _obstruction(g)
        if found is not None:
            assert found == find_obstruction_reference(g), edges


def test_find_obstruction_matches_reference_on_random_graphs():
    # random graphs, and random split graphs with every second one given
    # one toggled vertex pair, so obstructions also sit late in the order
    rng = random.Random(6)
    for i in range(600):
        n = rng.randint(4, 10)
        if i % 3 == 0:
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        else:
            clique = rng.sample(range(n), rng.randint(1, n - 1))
            edges = {(u, v) for u in clique for v in clique if u < v}
            edges |= {
                (min(u, v), max(u, v))
                for u in clique
                for v in range(n)
                if v not in clique and rng.random() < 0.5
            }
            if i % 2:
                edges ^= {tuple(sorted(rng.sample(range(n), 2)))}
            g = Graph(n, edges)
        assert _find_obstruction(g) == find_obstruction_reference(g), list(g.edges())


def test_cograph_recognize_deep_threshold_graph():
    # 1200 vertices, each set splits off one vertex: the cotree is 1199 deep
    t = parse_cotree(threshold_cotree_text(1200))
    assert cograph_recognize(realize(t)) == t


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
        with pytest.raises(NotASplitgraph) as err:
            split_partition(g, obstruction=False)
        assert err.value.kind is None and err.value.witness == ()
        assert str(err.value) == "graph is not a splitgraph"


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


def test_split_partition_matches_scan_on_labelled_graphs():
    # every labelled graph on up to 6 vertices, so ties between clique
    # sides of equal size are met in every vertex order
    from itertools import combinations

    for n in range(1, 7):
        pairs = list(combinations(range(n), 2))
        for code in range(1 << len(pairs)):
            g = Graph(n, [e for i, e in enumerate(pairs) if code >> i & 1])
            try:
                part = split_partition(g)
            except NotASplitgraph:
                continue
            assert (part.clique, part.independent) == split_partition_scan(g), pairs
            part.validate(g)


def test_split_partition_large_threshold_graph():
    # {0} plus the odd vertices is the least maximum clique side
    n = 1200
    g = realize(parse_cotree(threshold_cotree_text(n)))
    part = split_partition(g)
    part.validate(g)
    assert len(part.clique) == 601
    assert part.clique == {0, *range(1, n, 2)}


# ---------------------------------------------------------------------------
# interval and permutation models


def test_interval_models():
    assert realize_interval(IntervalModel(((0, 1), (2, 3), (4, 5)))).edge_count() == 0
    assert realize_interval(IntervalModel(((0, 9), (1, 8), (2, 7)))).adj == complete_graph(3).adj
    # endpoint touch counts as intersection
    assert has_edge(realize_interval(IntervalModel(((0, 1), (1, 2)))), 0, 1)
    with pytest.raises(InvalidModel):
        IntervalModel(((2, 1),))


def test_models_refuse_non_integer_values():
    # int() would truncate (0, 1.9), (1.95, 3), two disjoint intervals, to
    # (0, 1), (1, 3), which touch: a K2 with a = 1/2 in place of a = 1
    with pytest.raises(InvalidModel, match="^interval ends must be integers: 'float' object"):
        IntervalModel(((0, 1.9), (1.95, 3)))
    with pytest.raises(InvalidModel, match="^interval ends must be integers: 'str' object"):
        IntervalModel(((0, 1), ("2", 3)))
    with pytest.raises(InvalidModel, match="^permutation values must be integers: 'float' object"):
        PermutationModel((0, 1.0))
    # integers of any type that says it is one are kept
    assert IntervalModel(((False, True),)).intervals == ((0, 1),)
    assert PermutationModel((True, False)).perm == (1, 0)


def test_permutation_models():
    assert realize_permutation(PermutationModel((0, 1, 2))).edge_count() == 0
    assert realize_permutation(PermutationModel((2, 1, 0))).adj == complete_graph(3).adj
    g = realize_permutation(PermutationModel((1, 0, 3, 2)))
    assert sorted(g.edges()) == [(0, 1), (2, 3)]
    with pytest.raises(InvalidModel, match=r"^not a permutation of 0\.\.1: 2 is out of range$"):
        PermutationModel((0, 2))
    # the message names the first offending value, not the whole model
    with pytest.raises(InvalidModel, match=r"^not a permutation of 0\.\.99999: 5 repeats$"):
        PermutationModel([*range(99_999), 5])


def test_certificate_models_are_checked_frozen_values():
    # the models are NamedTuples: built from any iterable, checked on every
    # construction (_make and _replace included), equal and hashed by value,
    # and read-only
    m = IntervalModel([[0, 1], (1, 2)])
    assert m.intervals == ((0, 1), (1, 2)) and m.n == 2
    assert m == IntervalModel(((0, 1), (1, 2))) and hash(m) == hash(IntervalModel(m.intervals))
    assert m != IntervalModel(((0, 1),)) and len({m, IntervalModel(m.intervals)}) == 1
    assert repr(m) == "IntervalModel(intervals=((0, 1), (1, 2)))"
    with pytest.raises(InvalidModel):
        m._replace(intervals=((1, 0),))
    with pytest.raises(InvalidModel):
        IntervalModel._make((((3, 2),),))
    with pytest.raises(AttributeError):
        m.intervals = ()

    pm = PermutationModel([2, 0, 1])
    assert pm.perm == (2, 0, 1) and pm.n == 3
    assert pm == PermutationModel((2, 0, 1)) and hash(pm) == hash(PermutationModel(pm.perm))
    assert pm != PermutationModel((0, 1, 2))
    with pytest.raises(InvalidModel):
        pm._replace(perm=(0, 0))
    with pytest.raises(AttributeError):
        pm.perm = (0,)

    part = split_partition(path_graph(4))
    assert part == SplitPartition(frozenset({1, 2}), frozenset({0, 3}))
    assert hash(part) == hash(SplitPartition(part.clique, part.independent))
    with pytest.raises(AttributeError):
        part.clique = frozenset()


def test_model_file_formats():
    m = parse_interval_model("# c\n1 1 2\n0 0 1\n")
    assert m.intervals == ((0, 1), (1, 2))
    with pytest.raises(ParseError):
        parse_interval_model("0 0 1\n2 0 1\n")  # ids not dense
    # the model refuses a reversed interval; the error names the interval's
    # id and its line, whatever order the lines give the ids in
    text = "# c\n2 2 3\n\n1 5 3\n0 0 1\n"
    with pytest.raises(ParseError, match="^line 4: interval 1 has left 5 > right 3$") as exc:
        parse_interval_model(text)
    assert exc.value.line == 4
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


# Each of the next four tests breaks a later axiom too, and pins which
# failure the reference check validate_decomposition reports first, with
# its message and witness.


def _first_failure(g, bags, tree_edges, check=validate_decomposition):
    with pytest.raises(InvalidDecomposition) as info:
        check(g, bags, tree_edges)
    return info.value.axiom, str(info.value), info.value.witness


def test_decomposition_tree_failures_come_first():
    g = path_graph(4)  # also uncovered: vertex 3, edges, connectivity
    assert _first_failure(g, [], []) == ("tree", "tree: decomposition has no bags", None)
    assert _first_failure(g, [{0}, {1}], [(0, 2), (0, 1), (1, 0)])[1] == (
        "tree: tree edge (0,2) out of range"
    )
    assert _first_failure(g, [{0}, {1}], [(0, 1), (1, 0)])[1] == (
        "tree: 2 edges for 2 bags: not a tree"
    )
    assert _first_failure(g, [{0}, {1}, {0}], [(0, 2), (2, 0)])[1] == (
        "tree: bag tree is disconnected"
    )


def test_decomposition_vertex_coverage_before_edges():
    g = path_graph(5)  # vertices 2 and 4 in no bag, no edge covered
    assert _first_failure(g, [{0}, {1}, {3}, {0}], [(0, 1), (1, 2), (2, 3)]) == (
        "vertex-coverage",
        "vertex-coverage: vertex 2 appears in no bag",
        2,
    )


def test_decomposition_edge_coverage_before_connectivity():
    g = path_graph(4)  # edges (1,2) and (2,3) uncovered, vertex 1 disconnected
    assert _first_failure(g, [{0, 1}, {2}, {1}, {3}], [(0, 1), (1, 2), (1, 3)]) == (
        "edge-coverage",
        "edge-coverage: edge (1,2) is in no bag",
        (1, 2),
    )


def test_decomposition_connectivity_lowest_vertex_first():
    g = path_graph(3)  # vertices 0 and 2 both disconnected
    bags = [{0, 2}, {0, 1}, {1, 2}, {0, 2}]
    assert _first_failure(g, bags, [(0, 1), (1, 2), (2, 3)]) == (
        "subtree-connectivity",
        "subtree-connectivity: bags containing vertex 0 are disconnected",
        0,
    )


def test_nicify_first_failures():
    # the tree shape is checked on the bags, in the reference's order; the
    # rest by the nice-form check, which reports a vertex forgotten twice
    # where the reference reports disconnected bags, and a vertex in no bag
    # before an edge in no bag
    cases = [
        (path_graph(4), [], [], ("tree", "tree: decomposition has no bags", None)),
        (path_graph(4), [{0}, {1}], [(0, 2), (0, 1), (1, 0)],
         ("tree", "tree: tree edge (0,2) out of range", None)),
        (path_graph(4), [{0}, {1}], [(0, 1), (1, 0)],
         ("tree", "tree: 2 edges for 2 bags: not a tree", None)),
        (path_graph(4), [{0}, {1}, {0}], [(0, 2), (2, 0)],
         ("tree", "tree: bag tree is disconnected", None)),
        # the reference's vertex-coverage and edge-coverage cases also have
        # disconnected bags
        (path_graph(5), [{0}, {1}, {3}, {0}], [(0, 1), (1, 2), (2, 3)],
         ("subtree-connectivity", "subtree-connectivity: vertex 0 is forgotten twice", 0)),
        (path_graph(4), [{0, 1}, {2}, {1}, {3}], [(0, 1), (1, 2), (1, 3)],
         ("subtree-connectivity", "subtree-connectivity: vertex 1 is forgotten twice", 1)),
        (path_graph(3), [{0, 2}, {0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2), (2, 3)],
         ("subtree-connectivity", "subtree-connectivity: vertex 0 is forgotten twice", 0)),
        # the bags cover edge (0,1), but 0 is forgotten below bag 1 first
        (path_graph(3), [{0, 1}, {1, 2}, {0, 2}], [(0, 1), (1, 2)],
         ("subtree-connectivity", "subtree-connectivity: vertex 0 is forgotten twice", 0)),
        # vertex 2 is in no bag, so edge (1,2) is in none either
        (path_graph(3), [{0, 1}], [],
         ("vertex-coverage", "vertex-coverage: vertex 2 appears in no bag", 2)),
        (path_graph(3), [{0, 1}, {2}], [(0, 1)],
         ("edge-coverage", "edge-coverage: edge (1,2) is in no bag", (1, 2))),
    ]
    for g, bags, edges, want in cases:
        assert _first_failure(g, bags, edges, validate_and_nicify) == want, bags


def test_nicify_preserves_width_and_validates():
    rng = random.Random(4)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        bags, edges = trivial_decomposition(g)
        nice = validate_and_nicify(g, bags, edges)
        assert nice.width == g.n - 1
        assert nice.masks[nice.root] == 0
    g = path_graph(5)
    nice = validate_and_nicify(g, [{0, 1}, {1, 2}, {2, 3}, {3, 4}], [(0, 1), (1, 2), (2, 3)])
    assert nice.width == 1


def test_nicify_node_order_with_join():
    # children are expanded depth first in adjacency order, each followed by
    # its transform chain, and the bag's JOIN comes after all of them
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (2, 4)])
    nice = validate_and_nicify(g, [{0, 1}, {0, 2}, {0, 3}, {2, 4}], [(0, 1), (0, 2), (1, 3)])
    kinds = [n.kind[0].upper() + ("" if n.vertex is None else str(n.vertex)) for n in nice.nodes]
    assert kinds == [
        "S", "I2", "I4", "F4", "I0", "F2", "I1", "S", "I0", "I3", "F3", "I1", "J", "F0", "F1"
    ]
    assert nice.nodes[12].children == (6, 11) and nice.masks[12] == 0b11


def test_nicify_bags_are_nice_bags_and_hold_them():
    # every input bag's mask is a nice bag and every nice bag lies inside an
    # input bag, so the nice-form check settles coverage for the input bags
    def check(g, bags, edges):
        d = validate_and_nicify(g, bags, edges)
        masks = [set_to_mask(b) for b in bags]
        assert set(masks) <= set(d.masks), (list(g.edges()), bags)
        assert all(any(m & ~b == 0 for b in masks) for m in d.masks), (list(g.edges()), bags)

    for g in graph_catalog(8):
        check(g, *treewidth_decomposition(g)[1:])
    # random bag trees: each bag keeps a random part of its parent's and
    # adds vertices never seen before, so each vertex's bags stay connected;
    # the graph has a random part of the pairs that share a bag
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(1, 4)
        bags, edges = [set(range(n))], []
        for i in range(1, rng.randint(1, 12)):
            parent = rng.randrange(i)
            kept = {v for v in bags[parent] if rng.random() < 0.6}
            fresh = set(range(n, n + rng.randint(0, 3)))
            n += len(fresh)
            bags.append(kept | fresh)
            edges.append((parent, i))
        pairs = {(u, v) for b in bags for u in b for v in b if u < v}
        g = Graph(n, [e for e in sorted(pairs) if rng.random() < 0.5])
        check(g, bags, edges)


def _nodes(*spec):
    """Nice nodes from (kind, vertex, children) tuples."""
    return [NiceNode(*node) for node in spec]


S = (START, None, ())


def test_nicify_refuses_bag_vertices_outside_the_graph():
    # refused before a bag mask is made: -1 used to end in "negative shift
    # count", and 10**9 in masks of over 100 MB first
    g = path_graph(2)
    for v in (-1, 10**9):
        tracemalloc.start()
        try:
            with pytest.raises(InvalidDecomposition, match=f"vertex {v} is not a vertex"):
                validate_and_nicify(g, [{0, 1}, {v}], [(0, 1)])
            with pytest.raises(InvalidDecomposition, match=f"vertex {v} is not a vertex"):
                NiceTreeDecomposition(g, _nodes(S, (INTRODUCE, v, (0,))))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6, (v, peak)


def test_nice_form_check_rejects_corrupt_forms():
    # each form breaks one rule; the one-pass check that builds a
    # decomposition and the axiom check it replaced both refuse it
    p2 = path_graph(2)
    corrupt = {
        ("subtree-connectivity", "forgotten twice"): (  # vertex 0 introduced again after its forget
            path_graph(1),
            _nodes(S, (INTRODUCE, 0, (0,)), (FORGET, 0, (1,)), (INTRODUCE, 0, (2,)),
                   (FORGET, 0, (3,))),
        ),
        ("edge-coverage", r"edge \(0,1\)"): (  # 0 and 1 never share a bag
            p2,
            _nodes(S, (INTRODUCE, 0, (0,)), (FORGET, 0, (1,)), (INTRODUCE, 1, (2,)),
                   (FORGET, 1, (3,))),
        ),
        ("nice-form", "join node 5"): (  # the join's children have different bags
            p2,
            _nodes(S, (INTRODUCE, 0, (0,)), (INTRODUCE, 1, (1,)), S, (INTRODUCE, 0, (3,)),
                   (JOIN, None, (2, 4)), (FORGET, 0, (5,)), (FORGET, 1, (6,))),
        ),
        ("tree", "node 3 cannot have child 2"): (  # node 2 is the child of two nodes
            p2,
            _nodes(S, (INTRODUCE, 0, (0,)), (INTRODUCE, 1, (1,)), (JOIN, None, (2, 2)),
                   (FORGET, 0, (3,)), (FORGET, 1, (4,))),
        ),
        ("nice-form", "root bag must be empty"): (  # vertex 0 is forgotten and then stays in the root
            path_graph(1),
            _nodes(S, (INTRODUCE, 0, (0,)), (FORGET, 0, (1,)), (INTRODUCE, 0, (2,))),
        ),
    }
    for (axiom, text), (g, nodes) in corrupt.items():
        with pytest.raises(InvalidDecomposition, match=text) as info:
            NiceTreeDecomposition(g, nodes)
        assert info.value.axiom == axiom
        with pytest.raises(InvalidDecomposition):
            recheck_reference(g, nodes)
    # a nice form cut short of its root is still a decomposition, so only
    # the one-pass check refuses its nonempty root
    nodes = _nodes(S, (INTRODUCE, 0, (0,)))
    recheck_reference(path_graph(1), nodes)
    with pytest.raises(InvalidDecomposition, match="root bag must be empty"):
        NiceTreeDecomposition(path_graph(1), nodes)
    with pytest.raises(InvalidDecomposition, match="tree: decomposition has no nodes"):
        NiceTreeDecomposition(path_graph(1), [])


def test_nice_form_check_accepts_valid_forms():
    rng = random.Random(6)
    for _ in range(60):
        g = random_graph(rng.randint(1, 9), rng.random(), rng)
        for _, bags, edges in [treewidth_decomposition(g), (None, *trivial_decomposition(g))]:
            nice = validate_and_nicify(g, bags, edges)
            rebuilt = NiceTreeDecomposition(g, nice.nodes)
            derived = recheck_reference(g, nice.nodes)
            assert rebuilt.masks == [set_to_mask(b) for b in derived]
            assert rebuilt.width == max(len(b) for b in bags) - 1
    # the width is read off the largest bag
    nice = NiceTreeDecomposition(
        path_graph(2),
        _nodes(S, (INTRODUCE, 0, (0,)), (INTRODUCE, 1, (1,)), (FORGET, 0, (2,)),
               (FORGET, 1, (3,))),
    )
    assert nice.width == 1 and nice.masks == [0, 0b01, 0b11, 0b10, 0]


def test_parse_tree_decomposition():
    text = "s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n"
    bags, edges, n = parse_tree_decomposition(text)
    assert bags == [{0, 1}, {1, 2}] and edges == [(0, 1)] and n == 3
    with pytest.raises(ParseError, match="^missing the bag line for id 2$"):
        parse_tree_decomposition("s td 2 2 3\nb 1 0 1\n1 2\n")
    # the message names the first missing id, not every one
    with pytest.raises(ParseError, match="^missing the bag line for id 1$"):
        parse_tree_decomposition("s td 100000 2 1\n" + "1 2\n" * 100_000)
    with pytest.raises(ParseError):
        parse_tree_decomposition("s td 1 1 2\nb 1 0 1\n")  # bag too large
