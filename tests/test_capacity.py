"""Capacity engines: a(G), a*(G), Theta^T, fractional perfect matchings,
and the dispatch layer."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

import indeplib
from _helpers import (
    chain_dp_reference,
    connected_components,
    enumerate_maximal_independent_sets,
    profile_exhaustive,
    random_cotree,
    random_graph,
    treewidth_decomposition,
    trivial_decomposition,
)
from indeplib import capacity
from indeplib.capacity import (
    CapacityResult,
    Engine,
    a_cograph,
    a_general_exact,
    a_interval,
    a_permutation,
    a_split,
    a_star,
    a_treewidth,
    cograph_profile,
    has_fractional_perfect_matching,
    tensor_capacity,
    treewidth_profile,
)
from indeplib.cotree import cograph_recognize, is_cograph, parse_cotree, realize
from indeplib.errors import InvalidDecomposition, LimitExceeded
from indeplib.flow import min_ratio_subset_exhaustive
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    disjoint_union,
    graph_power,
    path_graph,
    star_graph,
)
from indeplib.intersection import IntervalModel, PermutationModel
from indeplib.oracles import a_bruteforce, alpha_exact
from indeplib.splitgraph import is_splitgraph, split_partition
from indeplib.treedecomp import (
    INTRODUCE,
    START,
    NiceNode,
    NiceTreeDecomposition,
    validate_and_nicify,
)

PAW = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def _nice(g):
    bags, edges = trivial_decomposition(g)
    return validate_and_nicify(g, bags, edges)


def _nice_tw(g):
    _, bags, edges = treewidth_decomposition(g)
    return validate_and_nicify(g, bags, edges)


# ---------------------------------------------------------------------------
# a_star


def test_a_star():
    assert a_star(Fraction(2, 5)) == Fraction(2, 5)
    assert a_star(Fraction(1, 2)) == Fraction(1, 2)  # boundary is non-strict
    assert a_star(Fraction(3, 4)) == 1
    with pytest.raises(ValueError):
        a_star(Fraction(3, 2))


# ---------------------------------------------------------------------------
# cograph engine


def test_a_cograph_examples():
    for n in range(1, 7):
        t = cograph_recognize(complete_graph(n))
        assert a_cograph(t).a == Fraction(1, n)
    r = a_cograph(cograph_recognize(star_graph(3)))
    assert r.a == Fraction(3, 4) and r.a_star == 1 and not r.has_fpm
    r = a_cograph(parse_cotree("(* 2 (+ (* 0 1) 3))"))  # paw
    assert r.a == Fraction(1, 2) and r.a_star == Fraction(1, 2)


def test_cograph_profile_matches_exhaustive():
    rng = random.Random(3)
    for _ in range(60):
        t = random_cotree(rng.randint(1, 8), rng)
        g = realize(t)
        p = cograph_profile(t)
        q = profile_exhaustive(g)
        assert p.table == q.table
        p.verify(g)


# ---------------------------------------------------------------------------
# split engine


def test_a_split_examples():
    g = star_graph(3)
    assert a_split(g, split_partition(g)).a == Fraction(3, 4)
    for n in range(1, 6):
        g = complete_graph(n)
        assert a_split(g, split_partition(g)).a == Fraction(1, n)
    # triangle with a pendant vertex
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    r = a_split(g, split_partition(g))
    assert r.a == Fraction(1, 2) and r.a == a_bruteforce(g)[0]


# ---------------------------------------------------------------------------
# interval and permutation engines


def test_a_interval_examples():
    assert a_interval(IntervalModel(((0, 1), (2, 3), (4, 5)))).a == 1
    nested = IntervalModel(tuple((i, 10 - i) for i in range(4)))
    assert a_interval(nested).a == Fraction(1, 4)
    p4 = IntervalModel(((0, 1), (1, 2), (2, 3), (3, 4)))
    r = a_interval(p4)
    assert r.a == Fraction(1, 2) and r.engine is Engine.INTERVAL


def test_a_permutation_examples():
    assert a_permutation(PermutationModel((0, 1, 2))).a == 1
    assert a_permutation(PermutationModel((3, 2, 1, 0))).a == Fraction(1, 4)
    r = a_permutation(PermutationModel((1, 0, 3, 2)))  # 2K2
    assert r.a == Fraction(1, 2) and r.has_fpm


def test_chain_engines_random_vs_brute():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 8)
        pts = rng.sample(range(3 * n), 2 * n)
        ivs = []
        for i in range(n):
            lo, hi = pts[2 * i], pts[2 * i + 1]
            ivs.append((min(lo, hi), max(lo, hi)))
        m = IntervalModel(tuple(ivs))
        from indeplib.intersection import realize_interval

        assert a_interval(m).a == a_bruteforce(realize_interval(m))[0]
        perm = list(range(n))
        rng.shuffle(perm)
        pm = PermutationModel(tuple(perm))
        from indeplib.intersection import realize_permutation

        assert a_permutation(pm).a == a_bruteforce(realize_permutation(pm))[0]


def test_chain_dp_matches_reference():
    # identical (a, witness), including which of several optimal chains is
    # kept; short intervals on few endpoints make equal costs common
    from indeplib.intersection import realize_interval, realize_permutation

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        span = rng.choice([1, 3, n])
        ivs = []
        for _ in range(n):
            left = rng.randrange(2 * n)
            ivs.append((left, left + rng.randint(0, span)))
        g = realize_interval(IntervalModel(tuple(ivs)))
        order = sorted(range(n), key=lambda v: (ivs[v][1], ivs[v][0], v))

        def chain_ok(y, x):
            return ivs[y][1] < ivs[x][0]

        assert capacity._chain_dp(g, order, chain_ok) == chain_dp_reference(g, order, chain_ok)
        perm = list(range(n))
        rng.shuffle(perm)
        pm = PermutationModel(tuple(perm))
        g = realize_permutation(pm)
        order = list(range(n))
        assert capacity._chain_dp(g, order, pm.left_of) == chain_dp_reference(g, order, pm.left_of)


# ---------------------------------------------------------------------------
# treewidth engine


def test_a_treewidth_examples():
    g = path_graph(4)
    assert a_treewidth(g, _nice_tw(g)).a == Fraction(1, 2)
    g = path_graph(5)
    r = a_treewidth(g, _nice_tw(g))
    assert r.a == Fraction(3, 5) and r.a_star == 1 and not r.has_fpm
    g = cycle_graph(5)
    r = a_treewidth(g, _nice_tw(g))
    assert r.a == Fraction(2, 5) and r.has_fpm


def test_treewidth_profile_matches_exhaustive():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        d = _nice_tw(g)
        p = treewidth_profile(g, d)
        q = profile_exhaustive(g)
        assert p.table == q.table
        p.verify(g)


def test_treewidth_profile_rejects_malformed_nice_form():
    # hand-built nodes that validate_and_nicify never emits
    g = path_graph(1)
    bad = [
        [NiceNode(START, frozenset({0}), None, ())],
        [NiceNode("leaf", frozenset(), None, ())],
        [NiceNode(START, frozenset(), None, ()), NiceNode(INTRODUCE, frozenset({0}), 0, (0,))],
    ]
    for nodes in bad:
        with pytest.raises(InvalidDecomposition, match="nice-form"):
            treewidth_profile(g, NiceTreeDecomposition(nodes, 0))


# ---------------------------------------------------------------------------
# general engine and the fpm characterization


def test_a_general_examples():
    assert a_general_exact(cycle_graph(5)).a == Fraction(2, 5)
    assert a_general_exact(complete_bipartite(3, 3)).a == Fraction(1, 2)
    for seed in (1, 2, 3):
        g = random_graph(10, 0.4, random.Random(seed))
        assert a_general_exact(g).a == a_bruteforce(g)[0]


def test_a_general_limit():
    with pytest.raises(LimitExceeded):
        a_general_exact(complete_graph(8), limit=7)


def test_fractional_perfect_matching_examples():
    assert has_fractional_perfect_matching(complete_graph(2))
    assert not has_fractional_perfect_matching(star_graph(3))
    assert has_fractional_perfect_matching(cycle_graph(5))


def test_fractional_perfect_matching_long_path_and_cycle():
    # the matching must not recurse once per step of an augmenting path
    assert has_fractional_perfect_matching(path_graph(3000))
    assert has_fractional_perfect_matching(cycle_graph(3001))
    assert not has_fractional_perfect_matching(path_graph(3001))


def test_eq7_both_directions_random():
    rng = random.Random(19)
    for _ in range(120):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        astar = a_star(a_bruteforce(g)[0]) if g.n <= 9 else a_general_exact(g).a_star
        assert (astar == 1) == (not has_fractional_perfect_matching(g))


# ---------------------------------------------------------------------------
# identities on powers and products


def test_toth_identity_squares():
    # a*(G^2) = a*(G) for small graphs
    rng = random.Random(29)
    for _ in range(25):
        g = random_graph(rng.randint(1, 5), rng.random(), rng)
        sq = graph_power(g, 2)
        assert a_general_exact(sq).a_star == a_general_exact(g).a_star


def test_product_bound_when_factor_small():
    # a(G x H) <= max(a(G), a(H)) whenever a(G) <= 1/2 or a(H) <= 1/2
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng.randint(1, 5), rng.random(), rng)
        h = random_graph(rng.randint(1, 5), rng.random(), rng)
        ag = a_general_exact(g).a
        ah = a_general_exact(h).a
        if min(ag, ah) > Fraction(1, 2):
            continue
        ap = a_general_exact(categorical_product(g, h)).a
        assert ap <= max(ag, ah), (list(g.edges()), list(h.edges()))


def test_independence_ratio_monotone_under_powers():
    # alpha(G^k) / n^k is non-decreasing in k
    rng = random.Random(37)
    for _ in range(15):
        g = random_graph(rng.randint(2, 5), rng.random(), rng)
        ratios = []
        for k in (1, 2, 3):
            p = graph_power(g, k)
            ratios.append(Fraction(alpha_exact(p, limit=200)[0], p.n))
        assert ratios[0] <= ratios[1] <= ratios[2]


# ---------------------------------------------------------------------------
# engine agreement


def test_engine_agreement_multi_certified():
    # complete multipartite graphs are cographs, have small treewidth, and
    # the threshold ones are also split
    rng = random.Random(41)
    for sizes in ([1, 1, 1], [2, 3], [1, 2, 2], [4], [1, 1, 3]):
        g = complete_multipartite(sizes)
        results = [
            a_cograph(cograph_recognize(g)),
            a_treewidth(g, _nice(g)),
            a_general_exact(g),
        ]
        if is_splitgraph(g):
            results.append(a_split(g, split_partition(g)))
        vals = {(r.a, r.a_star, r.has_fpm) for r in results}
        brute = a_bruteforce(g)[0]
        assert vals == {(brute, a_star(brute), has_fractional_perfect_matching(g))}, (sizes, vals)
    for _ in range(30):
        g = random_graph(rng.randint(1, 7), rng.random(), rng)
        want = a_bruteforce(g)[0]
        assert a_general_exact(g).a == want
        assert a_treewidth(g, _nice(g)).a == want
        if is_cograph(g):
            assert a_cograph(cograph_recognize(g)).a == want
        if is_splitgraph(g):
            assert a_split(g, split_partition(g)).a == want


# ---------------------------------------------------------------------------
# dispatch


def test_tensor_capacity_dispatch():
    r = tensor_capacity(cycle_graph(5))
    assert r.a == Fraction(2, 5) and r.a_star == Fraction(2, 5)
    assert isinstance(r, CapacityResult)
    t = parse_cotree("(* 0 (+ 1 2 3))")
    assert tensor_capacity(cotree=t).engine is Engine.COGRAPH
    g = star_graph(3)
    assert tensor_capacity(g, split=split_partition(g)).engine is Engine.SPLIT
    assert tensor_capacity(g, decomposition=_nice(g)).engine is Engine.TREEWIDTH


def _general_reference(g):
    """(a, witness) of the general engine by definition: every maximal
    independent set, its exhaustive maximal ratio minimizer, then the
    largest a and the lexicographically smallest sorted witness."""
    best = None
    for iset in enumerate_maximal_independent_sets(g):
        subset, nu = min_ratio_subset_exhaustive(iset, {v: g.neighbors(v) for v in iset})
        a = 1 / (1 + nu)
        wit = frozenset(subset)
        if best is None or a > best[0] or (a == best[0] and sorted(wit) < sorted(best[1])):
            best = (a, wit)
    return best


def test_general_witness_matches_exhaustive_reference():
    rng = random.Random(53)
    for _ in range(120):
        if rng.random() < 0.5:
            g = random_graph(rng.randint(1, 14), rng.uniform(0.15, 0.6), rng)
        else:
            g = disjoint_union(
                random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.7), rng),
                random_graph(rng.randint(1, 7), rng.uniform(0.2, 0.7), rng),
            )
            perm = list(range(g.n))
            rng.shuffle(perm)
            g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        # disconnected inputs are solved per component, the first best
        # component winning ties, as tensor_capacity does
        comp = connected_components(g)
        want = None
        for c in range(max(comp) + 1):
            verts = [v for v in range(g.n) if comp[v] == c]
            a, wit = _general_reference(g.subgraph(verts))
            if want is None or a > want[0]:
                want = (a, frozenset(verts[v] for v in wit))
        res = tensor_capacity(g)
        assert (res.a, res.witness) == want, (g.adj, res, want)


def test_verification_survives_optimize():
    # a corrupted neighbourhood must still fail _finish under python -O
    code = textwrap.dedent(
        """
        import sys
        from indeplib import capacity
        from indeplib.errors import VerificationError
        from indeplib.graph import cycle_graph

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        capacity.neighborhood = lambda g, vs: set(range(g.n))
        try:
            capacity.tensor_capacity(cycle_graph(5))
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


def test_tensor_capacity_disjoint_union_max():
    # Theta^T of a disjoint union is the max of the components
    g = disjoint_union(star_graph(3), complete_graph(5))
    r = tensor_capacity(g)
    assert r.a == Fraction(3, 4) and r.a_star == 1
    assert r.witness <= {0, 1, 2, 3}


def test_tensor_capacity_product_theorem_property():
    # Theta^T(G x H) = max(Theta^T(G), Theta^T(H)); tested as a property
    rng = random.Random(43)
    for _ in range(20):
        g = random_graph(rng.randint(1, 4), rng.random(), rng)
        h = random_graph(rng.randint(1, 4), rng.random(), rng)
        p = categorical_product(g, h)
        want = max(tensor_capacity(g).a_star, tensor_capacity(h).a_star)
        assert tensor_capacity(p).a_star == want


def test_tensor_capacity_errors():
    with pytest.raises(ValueError, match="needs a graph"):
        tensor_capacity()
    with pytest.raises(ValueError, match="needs the graph"):
        tensor_capacity(split=split_partition(star_graph(3)))
    with pytest.raises(ValueError, match="does not match"):
        tensor_capacity(path_graph(3), cotree=parse_cotree("(+ 0 1 2)"))
    with pytest.raises(ValueError, match="empty graph"):
        tensor_capacity(Graph(0, []))


# ---------------------------------------------------------------------------
# profiles


def test_profile_exhaustive_shape():
    p = profile_exhaustive(star_graph(3))
    assert p.alpha == 3
    assert p.ell(0) == 0 and p.ell(1) == 1 and p.ell(3) == 1
    a, k, wit = p.best()
    assert a == Fraction(3, 4) and k == 3 and wit == frozenset({1, 2, 3})
    with pytest.raises(LimitExceeded):
        profile_exhaustive(complete_graph(5), limit=4)
