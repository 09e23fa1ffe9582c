"""Product independence numbers for structured factors, validated against
the brute-force oracle on explicit products."""

import os
import random
import subprocess
import sys
import textwrap

import pytest

import indeplib
from _helpers import random_cotree, random_graph, random_max_degree, verify_product_witness
from indeplib import product_alpha
from indeplib.cotree import cograph_recognize, leaf, parse_cotree, realize
from indeplib.errors import VerificationError
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    is_bipartite,
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
    multipartite_product_witness,
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
    size, witness = bipartite_mis(g.adj, *_sides(g))
    assert size == 3 and g.is_independent(mask_to_set(witness))
    g = complete_bipartite(2, 5)
    size, witness = bipartite_mis(g.adj, *_sides(g))
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
            size, witness = bipartite_mis(g.adj, left & keep, right & keep)
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


def test_bipartite_mis_rejects_non_maximum_matching(monkeypatch):
    monkeypatch.setattr(
        product_alpha, "bipartite_matching", lambda nl, nr, adj, lm, rm: (0, [-1] * nr)
    )
    with pytest.raises(VerificationError, match="Koenig witness has 2 vertices, not 3"):
        bipartite_mis(path_graph(3).adj, 0b101, 0b010)


# ---------------------------------------------------------------------------
# splitgraph products


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
        product_alpha.bipartite_mis = lambda adj, l, r: ((l | r).bit_count(), l | r)
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
