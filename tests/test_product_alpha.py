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
    cograph_product_reference,
    is_bipartite,
    multipartite_product_witness,
    random_cotree,
    random_graph,
    random_max_degree,
    split_product_reference,
    threshold_cotree_text,
    verify_product_witness,
)
from indeplib import product_alpha
from indeplib.cotree import cograph_recognize, join, leaf, parse_cotree, realize
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
    alpha_product_multipartite,
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
    # every case of random split products, warm-started from its base case
    # as the split engine does and cold, gives the same size and witness
    rng = random.Random(23)
    for _ in range(40):
        g = _random_split(rng.randint(1, 30), rng)
        h = _random_split(rng.randint(1, 30), rng)
        solver = product_alpha._SplitProductMIS(g, split_partition(g), h, split_partition(h))
        bases = {}
        for column, left, right, _ in solver.cases():
            size, witness, state = bipartite_mis(solver.adj, left, right, bases.get(column))
            bases.setdefault(column, state)
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
    for _ in range(200):
        g = _random_split(rng.randint(1, 24), rng)
        h = _random_split(rng.randint(1, 24), rng)
        p1, p2 = split_partition(g), split_partition(h)
        assert alpha_product_split(g, p1, h, p2) == split_product_reference(g, p1, h, p2)[:2]


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
