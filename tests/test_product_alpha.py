"""Product independence numbers for structured factors, validated against
the brute-force oracle on explicit products."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import indeplib
from _helpers import (
    alpha_product_multipartite,
    cograph_product_reference,
    frame_depth,
    is_bipartite,
    join,
    multipartite_product_witness,
    neighbors,
    random_cotree,
    random_graph,
    random_max_degree,
    split_product_reference,
    threshold_cotree_text,
    verify_product_witness,
)
from indeplib import product_alpha
from indeplib.cotree import JOIN, cograph_recognize, leaf, parse_cotree, realize
from indeplib.errors import VerificationError
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    mask_to_set,
    path_graph,
    set_to_mask,
    star_graph,
)
from indeplib.oracles import alpha_exact
from indeplib.product_alpha import (
    alpha_product_cographs,
    alpha_product_split,
    bipartite_mis,
    extract_is_from_k4_product,
)
from indeplib.splitgraph import split_partition

PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


# ---------------------------------------------------------------------------
# cograph products


def test_cograph_product_single_vertex_factor():
    th = parse_cotree("(* (+ 0 1) 2)")  # P3
    value, witness = alpha_product_cographs(leaf(0), th)
    assert value == 3 and witness == {0, 1, 2}


def test_cograph_product_p3_p3_regression():
    # the one-sided blocks of a double join combine by max, not min:
    # min would give 3 here, the true value is 6
    t = parse_cotree("(* (+ 0 1) 2)")
    value, witness = alpha_product_cographs(t, t)
    assert value == 6
    g = realize(t)
    verify_product_witness(g, g, witness, 6)
    assert alpha_exact(categorical_product(g, g))[0] == 6


def test_cograph_product_k3_k3():
    t = parse_cotree("(* 0 1 2)")
    value, witness = alpha_product_cographs(t, t)
    assert value == 3
    verify_product_witness(complete_graph(3), complete_graph(3), witness, 3)


def test_cograph_product_random_vs_oracle():
    rng = random.Random(11)
    for _ in range(60):
        tg = random_cotree(rng.randint(1, 5), rng)
        th = random_cotree(rng.randint(1, 5), rng)
        g, h = realize(tg), realize(th)
        value, witness = alpha_product_cographs(tg, th)
        assert value == alpha_exact(categorical_product(g, h))[0]
        verify_product_witness(g, h, witness, value)
        # one-sided lower bound for any product
        assert value >= max(alpha_exact(g)[0] * h.n, alpha_exact(h)[0] * g.n)


def test_cograph_product_matches_set_memo_reference():
    # values first and one witness walk give the same value and witness as
    # memoizing a set of leaf pairs with every value; every tenth pair
    # multiplies a tree by itself
    rng = random.Random(41)
    for i in range(300):
        tg = random_cotree(rng.randint(1, 40), rng)
        th = tg if i % 10 == 0 else random_cotree(rng.randint(1, 40), rng)
        assert alpha_product_cographs(tg, th) == cograph_product_reference(tg, th)


def test_cograph_product_leaf_factors_match_reference():
    # a single-vertex factor makes the product edgeless: the value is the
    # other factor's size and the witness is every vertex of the product
    rng = random.Random(53)
    k1 = leaf(0)
    assert alpha_product_cographs(k1, k1) == (1, {0}) == cograph_product_reference(k1, k1)
    for _ in range(40):
        t = random_cotree(rng.randint(2, 12), rng, max_arity=4)
        for tg, th in ((k1, t), (t, k1)):
            result = alpha_product_cographs(tg, th)
            assert result == cograph_product_reference(tg, th)
            assert result == (t.size, set(range(t.size)))


def test_cograph_product_tied_joins_match_reference():
    # two joins whose best one-sided blocks tie: the witness comes from the
    # first best block, G's children before H's, as in the reference
    texts = (
        "(* 0 1)",
        "(* 0 1 2)",
        "(* (+ 0 1) (+ 2 3))",
        "(* (+ 0 1) 2 (+ 3 4))",
        "(* (+ 0 (* 1 2)) (+ 3 (* 4 5)))",
    )
    trees = [parse_cotree(text) for text in texts]
    rng = random.Random(59)
    while len(trees) < 30:
        t = random_cotree(rng.randint(4, 10), rng, max_arity=4)
        if t.kind == JOIN:
            trees.append(t)
    tied = 0
    for tg in trees:
        for th in trees:
            value, witness = alpha_product_cographs(tg, th)
            assert (value, witness) == cograph_product_reference(tg, th)
            blocks = [cograph_product_reference(c, th)[0] for c in tg.children]
            blocks += [cograph_product_reference(tg, c)[0] for c in th.children]
            assert max(blocks) == value
            tied += blocks.count(value) > 1
    # 274 of the 900 pairs tie, every pair of the hand-picked trees among them
    assert tied >= 250


def test_cograph_product_two_deep_cotrees():
    # a 600-leaf cotree nested 599 deep, squared, under a recursion limit
    # 100 frames above this test: the recursive reference fails, the engine
    # not; alpha(G) = 300 (the even vertices), so alpha(G x G) >= 300 * 600
    t = parse_cotree(threshold_cotree_text(600))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        with pytest.raises(RecursionError):
            cograph_product_reference(t, t)
        value, witness = alpha_product_cographs(t, t)
    finally:
        sys.setrecursionlimit(limit)
    g = realize(t)
    verify_product_witness(g, g, witness, value)
    assert value >= 300 * 600


def test_cograph_product_deep_cotree():
    # 1200 leaves nested 1199 deep against K2: no recursion in either pass,
    # and G x K2 is bipartite, so Koenig gives the exact value
    tg = parse_cotree(threshold_cotree_text(1200))
    th = join(leaf(0), leaf(1))
    value, witness = alpha_product_cographs(tg, th)
    g, h = realize(tg), realize(th)
    verify_product_witness(g, h, witness, value)
    evens = set_to_mask(range(0, 2 * g.n, 2))
    assert value == bipartite_mis(categorical_product(g, h).adj, evens, evens << 1)[0]


# ---------------------------------------------------------------------------
# complete multipartite products


def test_multipartite_closed_form_examples():
    assert alpha_product_multipartite([1, 1, 1], [1, 1, 1]) == 3
    assert alpha_product_multipartite([2, 3], [1, 4]) == 20
    with pytest.raises(ValueError):
        alpha_product_multipartite([], [1])


def test_multipartite_vs_oracle_small():
    # all nondecreasing size lists with sum <= 5
    lists = []

    def build(rest, minimum, acc):
        if acc:
            lists.append(list(acc))
        for s in range(minimum, rest + 1):
            acc.append(s)
            build(rest - s, s, acc)
            acc.pop()

    build(5, 1, [])
    for sg in lists:
        for sh in lists:
            g = complete_multipartite(sg)
            h = complete_multipartite(sh)
            value = alpha_product_multipartite(sg, sh)
            assert value == alpha_exact(categorical_product(g, h))[0], (sg, sh)
            witness = multipartite_product_witness(sg, sh)
            verify_product_witness(g, h, witness, value)


def test_multipartite_witness_prefers_rows():
    # tie between row and column: the row through class 0 of the first factor
    witness = multipartite_product_witness([2, 1], [2, 1])
    assert witness == {0, 1, 2, 3, 4, 5}


# ---------------------------------------------------------------------------
# bipartite maximum independent sets (Koenig)


def _sides(g):
    coloring = is_bipartite(g)
    left = set_to_mask(v for v in range(g.n) if coloring[v] == 0)
    return left, ((1 << g.n) - 1) & ~left


def test_bipartite_mis_even_cycle_and_star():
    g = cycle_graph(6)
    size, witness, _ = bipartite_mis(g.adj, *_sides(g))
    assert size == 3 and g.is_independent(mask_to_set(witness))
    g = complete_bipartite(2, 5)
    size, witness, _ = bipartite_mis(g.adj, *_sides(g))
    assert size == 5 and witness == set_to_mask({2, 3, 4, 5, 6})


def test_bipartite_mis_random_vs_alpha():
    # whole sides, then random restrictions of them against the induced subgraph
    rng = random.Random(9)
    done = 0
    while done < 60:
        g = random_graph(rng.randint(1, 12), rng.random() * 0.5, rng)
        if is_bipartite(g) is None:
            continue
        left, right = _sides(g)
        for keep in ((1 << g.n) - 1, rng.getrandbits(g.n)):
            size, witness, _ = bipartite_mis(g.adj, left & keep, right & keep)
            verts = mask_to_set(keep)
            assert size == (alpha_exact(g.subgraph(verts))[0] if verts else 0)
            wset = mask_to_set(witness)
            assert wset <= verts and g.is_independent(wset) and len(wset) == size
        done += 1


def test_bipartite_mis_rejects_bad_sides():
    adj = path_graph(3).adj  # 0 - 1 - 2
    with pytest.raises(VerificationError, match="not independent"):
        bipartite_mis(adj, 0b011, 0b100)
    with pytest.raises(VerificationError, match="not independent"):
        bipartite_mis(adj, 0b001, 0b110)
    with pytest.raises(VerificationError, match="overlap"):
        bipartite_mis(adj, 0b101, 0b011)
    # a side outside the base's checked side is scanned again
    adj = path_graph(4).adj  # 0 - 1 - 2 - 3
    base = bipartite_mis(adj, 0b0001, 0b0010)[2]
    with pytest.raises(VerificationError, match="not independent"):
        bipartite_mis(adj, 0b0001, 0b0110, base)
    with pytest.raises(VerificationError, match="not independent"):
        bipartite_mis(adj, 0b1100, 0b0010, base)


def test_bipartite_mis_rejects_non_maximum_matching(monkeypatch):
    # the empty matching is a valid matching, but not a maximum one
    monkeypatch.setattr(
        product_alpha, "bipartite_matching", lambda adj, lm, rm, warm=None: ({}, {}, 0, 0)
    )
    with pytest.raises(VerificationError, match="Koenig witness has 2 vertices, not 3"):
        bipartite_mis(path_graph(3).adj, 0b101, 0b010)


def test_bipartite_mis_rejects_invalid_cold_matching(monkeypatch):
    adj = path_graph(3).adj  # 0 - 1 - 2
    bad = [
        (0b001, 0b100, ({0: 2}, {2: 0}, 0b001, 0b100), "not an edge"),
        (0b001, 0b010, ({2: 1}, {1: 2}, 0b100, 0b010), "not between the sides"),
        (0b101, 0b010, ({0: 1, 2: 1}, {1: 2}, 0b101, 0b010), "pairs disagree"),
        (0b101, 0b010, ({0: 1}, {1: 0}, 0b101, 0b010), "masks disagree"),
    ]
    for left, right, matching, message in bad:
        monkeypatch.setattr(
            product_alpha, "bipartite_matching", lambda adj, lm, rm, warm=None: matching
        )
        with pytest.raises(VerificationError, match=message):
            bipartite_mis(adj, left, right)


def test_bipartite_mis_warm_equals_cold_on_split_cases():
    # every case of random split products, warm-started from case 0 as the
    # split engine does (a column case with the sides swapped) and cold,
    # gives the same size and witness
    rng = random.Random(23)
    for _ in range(40):
        g = _random_split(rng.randint(1, 30), rng)
        h = _random_split(rng.randint(1, 30), rng)
        solver = product_alpha._SplitProductMIS(g, split_partition(g), h, split_partition(h))
        starts = None
        for column, left, right, _ in solver.cases():
            start = starts and starts[column]
            size, witness, state = bipartite_mis(solver.adj, left, right, start)
            if starts is None:
                starts = (state, product_alpha._swap_sides(state))
            assert bipartite_mis(solver.adj, left, right)[:2] == (size, witness)


# ---------------------------------------------------------------------------
# splitgraph products


def _random_split(n, rng):
    """A clique on a random prefix of the vertices, the rest independent,
    random edges between the two."""
    c = rng.randint(0, n)
    p = rng.random()
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges += [(u, v) for u in range(c) for v in range(c, n) if rng.random() < p]
    return Graph(n, edges)


def _workload_split(n, rng):
    """A split graph shaped like the benchmark's: a clique on n // 2
    vertices, each clique-to-rest pair an edge with probability 0.4, and
    the vertices relabelled at random."""
    c = n // 2
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    edges += [(u, v) for u in range(c) for v in range(c, n) if rng.random() < 0.4]
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _split_alpha(g, h):
    return alpha_product_split(g, split_partition(g), h, split_partition(h))


def test_split_product_k2_k2():
    value, witness = _split_alpha(complete_graph(2), complete_graph(2))
    assert value == 2
    p = categorical_product(complete_graph(2), complete_graph(2))
    assert p.is_independent(witness) and len(witness) == 2


def test_split_product_small_examples():
    for g, h in [(PAW, PAW), (star_graph(3), star_graph(3)), (PAW, star_graph(3))]:
        value, witness = _split_alpha(g, h)
        assert value == alpha_exact(categorical_product(g, h))[0]
        verify_product_witness(g, h, witness, value)


def test_split_product_random_vs_oracle():
    rng = random.Random(17)
    done = 0
    while done < 60:
        g = random_max_degree(rng.randint(1, 7), 6, rng.random(), rng)
        h = random_max_degree(rng.randint(1, 7), 6, rng.random(), rng)
        try:
            p1 = split_partition(g)
            p2 = split_partition(h)
        except Exception:
            continue
        value, witness = alpha_product_split(g, p1, h, p2)
        assert value == alpha_exact(categorical_product(g, h))[0]
        verify_product_witness(g, h, witness, value)
        done += 1


def _split_case_kind(p1, p2, index):
    """Kind of the case at index in _SplitProductMIS.cases order."""
    rooks = len(p1.clique) * len(p2.clique)
    if index == 0:
        return "none"
    if index <= rooks:
        return "rook"
    if index <= rooks + len(p1.clique):
        return "row"
    return "column"


def test_split_product_matches_cold_reference():
    # the warm-started case loop with its matching bound gives the same
    # value and witness as running every case cold with none skipped
    rng = random.Random(31)
    pairs = [
        (_random_split(rng.randint(1, 24), rng), _random_split(rng.randint(1, 24), rng))
        for _ in range(200)
    ]
    pairs += [(_workload_split(n, rng), _workload_split(n, rng)) for n in (20, 24, 28) * 3 + (22,)]
    for g, h in pairs:
        p1, p2 = split_partition(g), split_partition(h)
        assert alpha_product_split(g, p1, h, p2) == split_product_reference(g, p1, h, p2)[:2]


def test_split_bound_koenig_runs(monkeypatch):
    # the bound settles all but a few cases of 20-vertex pairs shaped like
    # the benchmark's without a Koenig run, so a lost skip raises the count;
    # 10 runs are the cold case 0s (with kept pairs alone as the bound and
    # the column cases started from the first one run, these took 210 runs)
    calls = []
    real = product_alpha.bipartite_mis
    monkeypatch.setattr(product_alpha, "bipartite_mis", lambda *a: calls.append(1) or real(*a))
    rng = random.Random(59)
    for _ in range(10):
        g, h = _workload_split(20, rng), _workload_split(20, rng)
        alpha_product_split(g, split_partition(g), h, split_partition(h))
    assert len(calls) == 16


def test_split_bound_keeps_winning_cases():
    # a rook, a row and a later column case win here, each warm-started; the
    # rook and row bounds equal the winning value, so a bound one short or a
    # skip on equality would drop them
    p3 = star_graph(2)
    pins = [
        ("rook", Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)]), p3, 10),
        ("row", p3, p3, 6),
        ("column", PAW, Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4)]), 12),
    ]
    for kind, g, h, want in pins:
        p1, p2 = split_partition(g), split_partition(h)
        value, witness, index = split_product_reference(g, p1, h, p2)
        assert _split_case_kind(p1, p2, index) == kind and value == want
        assert alpha_product_split(g, p1, h, p2) == (value, witness)
        assert value == alpha_exact(categorical_product(g, h))[0]


def test_split_witness_check_refuses_an_edge(monkeypatch):
    # a Koenig routine that returns both whole sides gives case 0 of P4 x P4
    # a 12-vertex witness, the size it claims, holding product edges; only
    # the split engine's final independence check can see that
    def both_sides(adj, left, right, base=None):
        return (left | right).bit_count(), left | right, (left, right, ({}, {}, 0, 0))

    monkeypatch.setattr(product_alpha, "bipartite_mis", both_sides)
    g = path_graph(4)
    p = split_partition(g)
    msg = "split witness is not an independent set of size 12"
    with pytest.raises(VerificationError, match=msg):
        alpha_product_split(g, p, g, p)


def test_split_verification_survives_optimize():
    # a Koenig routine that returns both whole sides must still fail the
    # split engine's witness check under python -O
    code = textwrap.dedent(
        """
        import sys
        from indeplib import product_alpha
        from indeplib.errors import VerificationError
        from indeplib.graph import path_graph
        from indeplib.splitgraph import split_partition

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        product_alpha.bipartite_mis = lambda adj, l, r, base=None: (
            (l | r).bit_count(), l | r, (l, r, ({}, {}, 0, 0))
        )
        g = path_graph(4)
        p = split_partition(g)
        try:
            product_alpha.alpha_product_split(g, p, g, p)
        except VerificationError:
            sys.exit(0)
        sys.exit("no VerificationError raised")
        """
    )
    src = os.path.dirname(os.path.dirname(indeplib.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# K4-product extraction


def test_extraction_product_form_input():
    g = path_graph(5)
    omega = {0, 2, 4}
    s_prime = {gv * 4 + t for gv in omega for t in range(4)}
    assert extract_is_from_k4_product(g, s_prime) == omega


def test_extraction_from_optimal_witnesses():
    rng = random.Random(23)
    for _ in range(40):
        g = random_max_degree(rng.randint(1, 8), 3, rng.random(), rng)
        product = categorical_product(g, complete_graph(4))
        size, witness = alpha_exact(product, limit=40)
        result = extract_is_from_k4_product(g, witness)
        assert g.is_independent(result)
        assert 4 * len(result) >= size
        # both directions of the reduction
        assert size == 4 * alpha_exact(g)[0]


def _degree3_graph(n, rng):
    """A random graph of maximum degree 3 from 3n random pairs, in O(n)."""
    deg = [0] * n
    edges = set()
    for _ in range(3 * n):
        u, v = sorted(rng.sample(range(n), 2))
        if deg[u] < 3 and deg[v] < 3 and (u, v) not in edges:
            edges.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return Graph(n, edges)


def _random_maximal_k4_set(g, rng):
    """A random maximal independent set of G x K4 (ids 4a + t), grown in a
    random order of product vertices: (a, t) joins unless a neighbour of a
    already holds a coordinate other than t."""
    order = [(a, t) for a in range(g.n) for t in range(4)]
    rng.shuffle(order)
    coords = [0] * g.n
    for a, t in order:
        if not any(coords[u] & ~(1 << t) for u in neighbors(g, a)):
            coords[a] |= 1 << t
    return {4 * a + t for a in range(g.n) for t in range(4) if (coords[a] >> t) & 1}


def _check_extraction(g, s_prime):
    result = extract_is_from_k4_product(g, s_prime)
    assert g.is_independent(result) and 4 * len(result) >= len(s_prime)
    # a vertex that occurs with two or more coordinates is always kept
    multi = {a for a in range(g.n) if sum(4 * a + t in s_prime for t in range(4)) > 1}
    assert multi <= result
    return result, multi


def test_extraction_from_random_maximal_sets():
    # maximal but mostly not maximum, with both multi-coordinate vertices
    # and single-coordinate classes
    rng = random.Random(41)
    k4 = complete_graph(4)
    mixed = short = 0
    for _ in range(150):
        g = random_max_degree(rng.randint(2, 12), 3, rng.random(), rng)
        s_prime = _random_maximal_k4_set(g, rng)
        product = categorical_product(g, k4)
        assert product.is_independent(s_prime)
        outside = set(range(product.n)) - s_prime
        assert all(product.adj[v] & set_to_mask(s_prime) for v in outside)  # maximal
        result, multi = _check_extraction(g, s_prime)
        single = {pid // 4 for pid in s_prime} - multi
        mixed += bool(multi and single)
        short += len(s_prime) < 4 * alpha_exact(g)[0]
    assert mixed >= 40 and short >= 50, (mixed, short)


def test_extraction_4000_vertices():
    rng = random.Random(43)
    g = _degree3_graph(4000, rng)
    s_prime = _random_maximal_k4_set(g, rng)
    result, multi = _check_extraction(g, s_prime)
    assert multi and len(result) > len(multi)


def test_extraction_never_builds_the_product(monkeypatch):
    def refuse(g, h):
        raise AssertionError("G x K4 was built")

    monkeypatch.setattr(product_alpha, "categorical_product", refuse)
    rng = random.Random(47)
    for _ in range(20):
        g = _degree3_graph(rng.randint(2, 40), rng)
        _check_extraction(g, _random_maximal_k4_set(g, rng))
    with pytest.raises(ValueError, match="independent"):
        extract_is_from_k4_product(path_graph(2), {0, 5})


def test_extraction_rejects_out_of_range_ids():
    # P3 x K4 has ids 0..11; an id outside fails before any work, like a dependent set
    for s_prime in ({12}, {-1}, {0, 12}):
        with pytest.raises(ValueError, match="input set is not independent in G x K4"):
            extract_is_from_k4_product(path_graph(3), s_prime)


def test_extraction_error_paths():
    with pytest.raises(ValueError, match="degree"):
        extract_is_from_k4_product(star_graph(4), set())
    g = complete_graph(2)
    with pytest.raises(ValueError, match="independent"):
        extract_is_from_k4_product(g, {0, 5})  # (0,0) and (1,1) are adjacent


# ---------------------------------------------------------------------------
# cograph recognition feeding the product solver


def test_recognized_cotrees_work_in_products():
    g = realize(parse_cotree("(+ (* 0 1) (* 2 3 4))"))
    t = cograph_recognize(g)
    value, witness = alpha_product_cographs(t, t)
    assert value == alpha_exact(categorical_product(g, g))[0]
    verify_product_witness(g, g, witness, value)
