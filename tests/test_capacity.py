"""Capacity engines: a(G), a*(G), Theta^T, fractional perfect matchings,
and the dispatch layer."""

import itertools
import json
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
    cograph_profile_reference,
    disjoint_union,
    general_reference,
    is_cograph,
    is_splitgraph,
    profile_exhaustive,
    random_cotree,
    random_graph,
    threshold_cotree_text,
    treewidth_decomposition,
    treewidth_profile_reference,
    trivial_decomposition,
)
from indeplib import capacity, cli, flow
from indeplib.capacity import (
    CapacityResult,
    Engine,
    NeighborhoodProfile,
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
from indeplib.config import oracle_limit
from indeplib.cotree import cograph_recognize, parse_cotree, realize
from indeplib.errors import InvalidDecomposition, LimitExceeded, VerificationError
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    graph_power,
    mask_to_set,
    neighborhood,
    path_graph,
    star_graph,
)
from indeplib.intersection import IntervalModel, PermutationModel
from indeplib.io import format_graph
from indeplib.oracles import a_bruteforce, alpha_exact
from indeplib.ratio import ratio_str
from indeplib.splitgraph import split_partition
from indeplib.treedecomp import (
    FORGET,
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
    # the step against the exhaustive profile, on random (gain, pen), and
    # the size-indexed reference's table against the same profile
    rng = random.Random(3)
    for _ in range(150):
        t = random_cotree(rng.randint(1, 10), rng, max_arity=rng.choice([2, 3, 5]))
        g = realize(t)
        gain, pen = rng.randint(0, 12), rng.randint(1, 12)
        _step_ok(g, *cograph_profile(t, gain, pen), gain, pen)
        if g.n <= 8:
            p = cograph_profile_reference(t)
            assert p.table == profile_exhaustive(g).table
            p.verify(g)


def test_a_cograph_matches_profile_reference():
    rng = random.Random(13)
    for _ in range(200):
        t = random_cotree(rng.randint(1, 40), rng, max_arity=rng.choice([2, 3, 6]))
        assert a_cograph(t).a == cograph_profile_reference(t).best()[0]
    # 1200 leaves nested 1199 deep: neither the step nor the loop recurses
    t = parse_cotree(threshold_cotree_text(1200))
    assert a_cograph(t).a == cograph_profile_reference(t).best()[0]


def test_cograph_witness_rule():
    # the start passes over the vertices by degree, least first on ties,
    # and takes each vertex outside I | N(I) that does not lower the ratio
    # K3: the start is {0}, whose neighbours are the rest; its ratio 1/3 = a
    # and no step improves
    r = a_cograph(parse_cotree("(* 0 1 2)"))
    assert r.a == Fraction(1, 3) and r.witness == {0}
    # paw: the start takes 3 (degree 1, ratio 1/2), then 0, which keeps
    # 2/4 = 1/2; {0, 3} attains a = 1/2, as does {3}, so no step improves
    r = a_cograph(parse_cotree("(* 2 (+ (* 0 1) 3))"))
    assert r.a == Fraction(1, 2) and r.witness == {0, 3}
    # P3: the start takes 0, then 1 (2/3 >= 1/2); {0, 1} attains a = 2/3
    r = a_cograph(parse_cotree("(* (+ 0 1) 2)"))
    assert r.a == Fraction(2, 3) and r.witness == {0, 1}
    # two P3s: the start takes 0 and 1 (2/3); 3 would lower it to 3/5, so
    # the start {0, 1} attains a = 2/3 and stays the witness, though
    # {0, 1, 3, 4} attains 2/3 too
    r = a_cograph(parse_cotree("(+ (* (+ 0 1) 2) (* (+ 3 4) 5))"))
    assert r.a == Fraction(2, 3) and r.witness == {0, 1}
    # K2 + P3: the start takes 0, 2 and 3 (ratio 3/5); the step from it
    # (gain 2, pen 3) scores {2, 3} at 4 - 3 = 1, the next one has maximum
    # 0, so the last improving step's set is the witness
    r = a_cograph(parse_cotree("(+ (* 0 1) (* (+ 2 3) 4))"))
    assert r.a == Fraction(2, 3) and r.witness == {2, 3}
    # a join keeps its first child of strictly largest value; the step's
    # maximum of 0 is the empty set's
    t = parse_cotree("(* (+ 0 1) (+ 2 3))")
    assert cograph_profile(t, 2, 1) == (2, 0b11)
    assert cograph_profile(t, 1, 1) == (0, 0)


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
    # a equals the size-indexed reference's a on the same models; short
    # intervals on few endpoints make several optimal chains common
    from indeplib.intersection import realize_interval, realize_permutation

    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 30)
        span = rng.choice([1, 3, n])
        ivs = []
        for _ in range(n):
            left = rng.randrange(2 * n)
            ivs.append((left, left + rng.randint(0, span)))
        m = IntervalModel(tuple(ivs))
        order = sorted(range(n), key=lambda v: (ivs[v][1], ivs[v][0], v))

        def chain_ok(y, x):
            return ivs[y][1] < ivs[x][0]

        assert a_interval(m).a == chain_dp_reference(realize_interval(m), order, chain_ok)[0]
        perm = list(range(n))
        rng.shuffle(perm)
        pm = PermutationModel(tuple(perm))
        g = realize_permutation(pm)

        def left_of(y, x):
            return y < x and perm[y] < perm[x]

        assert a_permutation(pm).a == chain_dp_reference(g, list(range(n)), left_of)[0]


def test_chain_witness_rule_on_several_optimal_chains():
    # 2K2 plus an isolated vertex: the start takes {4} first (degree 0,
    # ratio 1), which every other vertex would lower, and nothing beats 1
    r = a_interval(IntervalModel(((0, 1), (1, 2), (3, 4), (4, 5), (7, 7))))
    assert r.a == 1 and r.witness == {4}
    # P4: the start takes 0, then 3, which keeps 2/4 = 1/2 = a, so no step
    # improves and it stays the witness, though {0}, {0,2} and {1,3} attain
    # 1/2 too
    r = a_interval(IntervalModel(((0, 1), (1, 2), (2, 3), (3, 4))))
    assert r.a == Fraction(1, 2) and r.witness == {0, 3}
    # 3K2 as a permutation: the start takes 0, 2 and 4 (ratio 1/2 all the
    # way), and the step from it (gain 3, pen 3) has maximum 0
    r = a_permutation(PermutationModel((1, 0, 3, 2, 5, 4)))
    assert r.a == Fraction(1, 2) and r.witness == {0, 2, 4}
    # P5: the start takes 0, 4 (2/4) and 2 (3/5), the optimum, so the step
    # has maximum 0
    r = a_interval(IntervalModel(((0, 1), (1, 2), (2, 3), (3, 4), (4, 5))))
    assert r.a == Fraction(3, 5) and r.witness == {0, 2, 4}
    # K2 + P3: the start takes 0, 2 and 4 (ratio 3/5); the step from it
    # (gain 2, pen 3) scores {2, 4} at 4 - 3 = 1, the next one has maximum
    # 0, so the last improving step's set is the witness
    r = a_interval(IntervalModel(((0, 1), (1, 2), (3, 4), (4, 5), (5, 6))))
    assert r.a == Fraction(2, 3) and r.witness == {2, 4}
    # P6 with gain 2, pen 1: {0,2,4}, {0,2,5}, {0,3,5} and {1,3,5} all score
    # 6 - 3; the first strict maximizer in processing order is kept, so the
    # chain ending in 4 wins.  A maximum of 0 is the empty chain's.  The
    # intervals [v, v + 1] realize P6: y may precede x when y + 1 < x
    g = path_graph(6)
    order = list(range(6))
    ends = [(v, v + 1) for v in range(6)]
    assert capacity._chain_dp(g, order, ends, 2, 1) == (3, 0b10101)
    assert capacity._chain_dp(g, order, ends, 1, 1) == (0, 0)


def _step_ok(g, value, mask, gain, pen):
    """value is max_k gain*k - pen*ell(k), and mask an independent set
    attaining it."""
    profile = profile_exhaustive(g)
    assert value == max(gain * k - pen * e for k, e in profile.table.items())
    vs = mask_to_set(mask)
    assert g.is_independent(vs)
    assert gain * len(vs) - pen * len(neighborhood(g, vs)) == value


def test_chain_step_matches_exhaustive():
    from indeplib.intersection import realize_interval, realize_permutation

    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 10)
        gain, pen = rng.randint(0, 12), rng.randint(1, 12)
        ivs = []
        for _ in range(n):
            left = rng.randrange(2 * n)
            ivs.append((left, left + rng.randint(0, rng.choice([1, 3, n]))))
        g = realize_interval(IntervalModel(tuple(ivs)))
        order = sorted(range(n), key=lambda v: (ivs[v][1], ivs[v][0], v))
        _step_ok(g, *capacity._chain_dp(g, order, ivs, gain, pen), gain, pen)
        perm = list(range(n))
        rng.shuffle(perm)
        g = realize_permutation(PermutationModel(tuple(perm)))
        ends = [(p, p) for p in perm]
        _step_ok(g, *capacity._chain_dp(g, list(range(n)), ends, gain, pen), gain, pen)


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
    # the step against the exhaustive profile, on random (gain, pen)
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng.randint(1, 10), rng.random(), rng)
        d = _nice_tw(g) if rng.random() < 0.5 else _nice(g)
        gain, pen = rng.randint(0, 12), rng.randint(1, 12)
        _step_ok(g, *treewidth_profile(g, d, gain, pen), gain, pen)


def test_treewidth_profile_reference_matches_exhaustive():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        d = _nice_tw(g)
        p = treewidth_profile_reference(g, d)
        q = profile_exhaustive(g)
        assert p.table == q.table
        p.verify(g)


def test_treewidth_profile_rejects_malformed_nice_form():
    # hand-built nodes that validate_and_nicify never emits are refused when
    # the decomposition is built, before any step can run
    start = NiceNode(START, None, ())
    g = path_graph(1)
    bad = [
        ([start, NiceNode(START, None, (0,))], "start node 1 does not match"),
        ([NiceNode("leaf", None, ())], "unknown node kind 'leaf'"),
        ([start, NiceNode(INTRODUCE, 0, (0,))], "the root bag must be empty"),
        ([start, NiceNode(INTRODUCE, 1, (0,))], "1 is not a vertex of the graph"),
    ]
    for nodes, match in bad:
        with pytest.raises(InvalidDecomposition, match=match) as info:
            NiceTreeDecomposition(g, nodes)
        assert info.value.axiom == "nice-form"
    # an INTRODUCE vertex already in its child's bag, just introduced or
    # introduced further down, and a FORGET vertex missing from its child's
    # bag: the step stores the keys where the introduced vertex stays free
    # at once, which is right only when no child key holds it
    g = path_graph(2)
    twice = [
        start,
        NiceNode(INTRODUCE, 0, (0,)),
        NiceNode(INTRODUCE, 0, (1,)),
        NiceNode(FORGET, 0, (2,)),
    ]
    again = [
        start,
        NiceNode(INTRODUCE, 0, (0,)),
        NiceNode(INTRODUCE, 1, (1,)),
        NiceNode(INTRODUCE, 0, (2,)),
    ]
    absent = [
        start,
        NiceNode(INTRODUCE, 0, (0,)),
        NiceNode(FORGET, 1, (1,)),
        NiceNode(FORGET, 0, (2,)),
    ]
    for nodes, match in (
        (twice, "introduce node 2 does not match its children"),
        (again, "introduce node 3 does not match its children"),
        (absent, "forget node 2 does not match its children"),
    ):
        with pytest.raises(InvalidDecomposition, match=match) as info:
            NiceTreeDecomposition(g, nodes)
        assert info.value.axiom == "nice-form"


def test_treewidth_on_paths_that_once_took_lying_bags():
    # two hand-built paths of INTRODUCE then FORGET nodes; given with stored
    # bags that were not their child's plus or minus the vertex, a step that
    # read neighbours from the bags got a wrong a.  Bags now follow from the
    # nodes, so the paths give the true a
    def path_nodes(n):
        nodes = [NiceNode(START, None, ())]
        for kind in (INTRODUCE, FORGET):
            for v in range(n):
                nodes.append(NiceNode(kind, v, (len(nodes) - 1,)))
        return nodes

    # a bag that dropped the live 0 when 1 was introduced gave 1/3
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 3), (2, 4), (3, 4)])
    # a bag that named 2 before its INTRODUCE gave 3/5
    h = Graph(5, [(0, 2), (1, 4), (2, 3)])
    for graph, want in ((g, Fraction(2, 5)), (h, Fraction(2, 3))):
        assert a_bruteforce(graph)[0] == want
        assert a_treewidth(graph, NiceTreeDecomposition(graph, path_nodes(5))).a == want


def test_treewidth_rejects_a_nice_form_that_misses_an_edge():
    # P2 with each vertex in its own bag: a step would score {0, 1} as
    # independent, so the form is refused when built
    g = path_graph(2)
    nodes = [
        NiceNode(START, None, ()),
        NiceNode(INTRODUCE, 0, (0,)),
        NiceNode(FORGET, 0, (1,)),
        NiceNode(INTRODUCE, 1, (2,)),
        NiceNode(FORGET, 1, (3,)),
    ]
    with pytest.raises(InvalidDecomposition, match=r"edge \(0,1\) is in no bag") as info:
        NiceTreeDecomposition(g, nodes)
    assert info.value.axiom == "edge-coverage" and info.value.witness == (0, 1)


def test_treewidth_refuses_a_decomposition_of_another_graph():
    # a valid nice form of K1,3 on vertices 0..3, against K1,3 + K1,4: the
    # form leaves vertices 4..8 out, and read against the larger graph the
    # DP would give a = 3/4 where a(K1,3 + K1,4) = 4/5
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    g = disjoint_union(star, Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))
    assert a_bruteforce(g)[0] == Fraction(4, 5)
    d = validate_and_nicify(star, [{0, 1}, {0, 2}, {0, 3}], [(0, 1), (1, 2)])
    with pytest.raises(InvalidDecomposition, match="vertex 4 appears in no bag") as info:
        NiceTreeDecomposition(g, d.nodes)
    assert info.value.axiom == "vertex-coverage" and info.value.witness == 4
    for engine in (a_treewidth, lambda g, d: tensor_capacity(g, decomposition=d)):
        with pytest.raises(ValueError, match="does not match the supplied graph"):
            engine(g, d)
    # the same vertex count is not enough: P4 is not the star
    with pytest.raises(ValueError, match="does not match the supplied graph"):
        a_treewidth(path_graph(4), d)
    assert a_treewidth(Graph(4, [(0, 1), (0, 2), (0, 3)]), d).a == Fraction(3, 4)


def test_tensor_capacity_takes_the_graph_from_the_decomposition():
    # a decomposition carries its graph, so it needs no other; given one
    # too, the two must match
    rng = random.Random(67)
    for g in (star_graph(3), path_graph(5), random_graph(9, 0.3, rng)):
        d = _nice_tw(g)
        res = tensor_capacity(decomposition=d)
        assert res.engine == Engine.TREEWIDTH
        assert (res.a, res.witness) == (a_treewidth(g, d).a, a_treewidth(g, d).witness)
        assert res == tensor_capacity(g, decomposition=d)
        assert res.a == a_bruteforce(g)[0]
        with pytest.raises(ValueError, match="does not match the supplied graph"):
            tensor_capacity(disjoint_union(g, Graph(1)), decomposition=d)


def test_dinkelbach_checks_each_improving_witness():
    g = path_graph(3)
    with pytest.raises(VerificationError, match="outside the graph"):
        capacity._dinkelbach(g, lambda gain, pen: (1, 1 << 3), 1)
    with pytest.raises(VerificationError, match="reported 5"):
        capacity._dinkelbach(g, lambda gain, pen: (5, 0b101), 1)
    # the start is checked the same way, and must not be empty
    with pytest.raises(VerificationError, match="start witness is not independent"):
        capacity._dinkelbach(g, lambda gain, pen: (0, 0), 0b11)
    with pytest.raises(ValueError, match="nonempty start"):
        capacity._dinkelbach(g, lambda gain, pen: (0, 0), 0)


def _start_graphs(rng):
    """Graphs of 1 to 40 vertices: edgeless, complete, random, and random
    with isolated vertices among the rest."""
    for n in range(1, 41):
        yield Graph(n)
        yield complete_graph(n)
        for p in (0.1, 0.3, 0.6, 0.9):
            yield random_graph(n, p, rng)
        core = random_graph(rng.randint(0, n), rng.uniform(0.2, 0.8), rng)
        g = disjoint_union(core, Graph(n - core.n)) if core.n < n else core
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_greedy_start_beats_the_least_min_degree_vertex():
    # the DP engines' start is a nonempty independent set whose ratio is at
    # least 1/(1 + d), the ratio of a vertex of minimum degree d
    rng = random.Random(41)
    for g in _start_graphs(rng):
        start = capacity._greedy_start(g)
        vs = mask_to_set(start)
        assert vs and max(vs) < g.n and g.is_independent(vs), g.adj
        d = min(g.degrees())
        assert Fraction(len(vs), len(vs) + len(neighborhood(g, vs))) >= Fraction(1, 1 + d), g.adj


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


def test_a_general_limit_is_per_component(monkeypatch):
    # C30 + C30 has 60 vertices in components of 30, so the default limit
    # of 40 admits it; a limit below 30 names the component's size
    g = disjoint_union(cycle_graph(30), cycle_graph(30))
    res = a_general_exact(g)
    assert (res.a, res.a_star, res.has_fpm) == (Fraction(1, 2), Fraction(1, 2), True)
    assert tensor_capacity(g) == res
    with pytest.raises(LimitExceeded, match="limited to 29 vertices, got 30$") as exc:
        a_general_exact(g, limit=29)
    assert exc.value.required == 30

    # every component is checked before any search, and the first one over
    # the limit is reported; unchecked, C5's greedy set would ask the flow
    def refuse(*args, **kwargs):
        raise AssertionError("search started before the limit check")

    monkeypatch.setattr(flow, "max_gain", refuse)
    monkeypatch.setenv("IL_ORACLE_LIMIT", "7")
    g = disjoint_union(disjoint_union(cycle_graph(5), complete_graph(8)), complete_graph(9))
    with pytest.raises(LimitExceeded, match="limited to 7 vertices, got 8$") as exc:
        tensor_capacity(g)
    assert exc.value.required == 8


def test_alpha_exact_limit_is_per_component(monkeypatch):
    # the branch and bound runs on each component, so the default limit of
    # 40 admits C30 + C30, and a limit below 30 names the component's size
    g = disjoint_union(cycle_graph(30), cycle_graph(30))
    size, witness = alpha_exact(g)
    assert size == 30 and len(witness) == 30 and g.is_independent(witness)
    with pytest.raises(LimitExceeded, match="alpha_exact limited to 29 vertices, got 30$") as exc:
        alpha_exact(g, limit=29)
    assert exc.value.required == 30

    # every component is checked before any search, and the first one over
    # the limit is reported
    def refuse(*args, **kwargs):
        raise AssertionError("search started before the limit check")

    monkeypatch.setattr(indeplib.kernels, "max_independent_set", refuse)
    g = disjoint_union(disjoint_union(cycle_graph(5), complete_graph(8)), complete_graph(9))
    with pytest.raises(LimitExceeded, match="limited to 7 vertices, got 8$") as exc:
        alpha_exact(g, limit=7)
    assert exc.value.required == 8


def test_library_honours_oracle_limit_env(monkeypatch):
    # IL_ORACLE_LIMIT bounds both searches in-process, as in the CLI, and an
    # explicit limit overrides it
    c5, c45 = cycle_graph(5), cycle_graph(45)
    monkeypatch.setenv("IL_ORACLE_LIMIT", "4")
    with pytest.raises(LimitExceeded, match="^a_general_exact limited to 4 vertices, got 5$"):
        tensor_capacity(c5)
    with pytest.raises(LimitExceeded, match="^alpha_exact limited to 4 vertices, got 5$"):
        alpha_exact(c5)
    assert a_general_exact(c5, limit=5).a == Fraction(2, 5)
    assert alpha_exact(c5, limit=5)[0] == 2
    monkeypatch.setenv("IL_ORACLE_LIMIT", "45")
    assert tensor_capacity(c45).a == Fraction(22, 45)
    assert alpha_exact(c45)[0] == 22
    monkeypatch.delenv("IL_ORACLE_LIMIT")
    with pytest.raises(LimitExceeded, match="limited to 40 vertices, got 45$"):
        tensor_capacity(c45)


def test_bad_oracle_limit_env_is_refused(monkeypatch):
    for value in ("abc", "0", "-1"):
        monkeypatch.setenv("IL_ORACLE_LIMIT", value)
        message = f"^IL_ORACLE_LIMIT must be a positive integer, got '{value}'$"
        with pytest.raises(ValueError, match=message):
            oracle_limit()
        with pytest.raises(ValueError, match="IL_ORACLE_LIMIT"):
            tensor_capacity(path_graph(3))
        with pytest.raises(ValueError, match="IL_ORACLE_LIMIT"):
            alpha_exact(path_graph(3))


def test_oracle_limit_has_one_home():
    # the environment is read, and the oracle limit's default named, only
    # in config, so a new limit policy is a change to that one module
    src = os.path.dirname(indeplib.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "config.py":
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            text = fh.read()
        assert "os.environ" not in text and "getenv" not in text, name
        assert "DEFAULT_ALPHA_LIMIT" not in text, name


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
        res = tensor_capacity(g)
        assert (res.a, res.witness) == general_reference(g), (g.adj, res)


def test_general_witness_on_tie_heavy_graphs():
    # many maximal sets tie at the optimum (a = 1/2 on paths, even cycles
    # and K_{m,m}), or reach it through an isolated vertex or a
    # single-vertex component; the general engine, called directly or
    # through the dispatch, keeps the reference's value and witness
    graphs = [path_graph(n) for n in range(1, 13)]
    graphs += [cycle_graph(n) for n in range(3, 13)]
    graphs += [complete_bipartite(m, m) for m in range(1, 6)]
    graphs += [complete_bipartite(2, 4), star_graph(4), Graph(1), Graph(3), Graph(5, [(1, 3)])]
    graphs += [disjoint_union(Graph(1), g) for g in (path_graph(4), cycle_graph(6))]
    graphs += [disjoint_union(g, Graph(2)) for g in (complete_bipartite(3, 3), cycle_graph(5))]
    graphs += [disjoint_union(path_graph(5), cycle_graph(4))]
    graphs += [disjoint_union(cycle_graph(4), path_graph(4))]
    for g in graphs:
        want = general_reference(g)
        for res in (a_general_exact(g), tensor_capacity(g)):
            assert (res.a, res.witness) == want, (g.adj, res, want)


def test_general_engine_matches_dispatch_on_unions():
    # the engine splits a graph into components itself, so called directly
    # it gives the dispatch's value and witness; isolated vertices and
    # single-vertex components are mixed in
    rng = random.Random(59)
    for _ in range(80):
        g = Graph(rng.randint(0, 3))
        for _ in range(rng.randint(1, 3)):
            g = disjoint_union(g, random_graph(rng.randint(1, 6), rng.uniform(0.2, 0.8), rng))
        g = disjoint_union(g, Graph(rng.randint(0, 2)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        want = general_reference(g)
        for res in (a_general_exact(g), tensor_capacity(g)):
            assert (res.a, res.witness) == want, (g.adj, res, want)
    # two stars K_{1,2} tie at a = 2/3; the greedy set takes both stars'
    # leaves, and its maximal minimizer, all four, spans both components
    g = Graph(6, [(0, 3), (0, 4), (1, 2), (1, 5)])
    res = a_general_exact(g)
    assert (res.a, res.witness) == (Fraction(2, 3), {2, 3, 4, 5}) == general_reference(g)


def _record_ratio_calls(monkeypatch):
    """Record (sorted set, (a, witness set)) of each min_ratio_subset call
    the general engine makes; the first is the greedy set's."""
    calls = []
    real = capacity.min_ratio_subset

    def recorded(g, mask):
        a, witness = real(g, mask)
        calls.append((sorted(mask_to_set(mask)), (a, mask_to_set(witness))))
        return a, witness

    monkeypatch.setattr(capacity, "min_ratio_subset", recorded)
    return calls


# a connected 6-vertex graph with a = 1/2 whose greedy set only reaches
# a = 1/3; its vertices are relabelled below
SLOW_GREEDY = [(0, 3), (0, 5), (1, 2), (1, 4), (2, 4), (2, 5), (3, 4)]


def test_general_seed_from_a_later_component_keeps_the_first_best(monkeypatch):
    # the first component (vertices 0, 3-7) and the edge 1-2 both reach
    # a = 1/2, but only the edge's part of the greedy set does; the greedy
    # set's witness {1} is the first best, and the first component's sets,
    # which only tie it, do not replace it
    label = [0, 3, 4, 5, 6, 7]
    g = Graph(8, [(label[u], label[v]) for u, v in SLOW_GREEDY] + [(1, 2)])
    calls = _record_ratio_calls(monkeypatch)
    res = a_general_exact(g)
    assert calls[0] == ([0, 1, 3], (Fraction(1, 2), {1}))
    assert (res.a, res.witness) == (Fraction(1, 2), {1}) == general_reference(g)
    assert tensor_capacity(g) == res


def test_general_component_below_the_seed_records_nothing(monkeypatch):
    # the star on 6-9 seeds the price at a = 3/4 (its leaves), which no set
    # of the first component (best a = 1/2) can reach, so no set of it is
    # solved; the value and witness are still the reference's
    g = disjoint_union(Graph(6, SLOW_GREEDY), star_graph(3))
    calls = _record_ratio_calls(monkeypatch)
    res = a_general_exact(g)
    assert calls[0] == ([0, 1, 7, 8, 9], (Fraction(3, 4), {7, 8, 9}))
    assert not [found for _, found in calls[1:] if max(found[1]) < 6]
    assert (res.a, res.witness) == (Fraction(3, 4), {7, 8, 9}) == general_reference(g)


def test_general_sets_that_only_tie_are_not_solved(monkeypatch):
    # every independent set of C12, K6,6, Q5 and P20 reaches at best
    # a = 1/2, the greedy set's value, so the search records no set: the
    # witness is the greedy set's maximal minimizer, from the only ratio
    # minimization
    q5 = Graph(32, [(u, u ^ 1 << i) for u in range(32) for i in range(5) if u < u ^ 1 << i])
    calls = _record_ratio_calls(monkeypatch)
    for g in (cycle_graph(12), complete_bipartite(6, 6), q5, path_graph(20)):
        calls.clear()
        res = a_general_exact(g)
        assert res.a == Fraction(1, 2) and len(calls) == 1, (g.n, calls)
        assert res.witness == calls[0][1][1]


def _asks_a_bound(mask, nbr):
    """Whether a flow.max_gain call is the search's bound: a bound's mask,
    unlike a Dinkelbach step's, is not independent."""
    return any(nbr[v] & mask for v in mask_to_set(mask))


def _count_bounds(monkeypatch):
    """Record, as "may beat" or not, the answer of each bound the search
    asks flow.max_gain."""
    answers = []
    real = flow.max_gain

    def counted(mask, nbr, *rest):
        found = real(mask, nbr, *rest)
        if _asks_a_bound(mask, nbr):
            answers.append(found is not None)
        return found

    monkeypatch.setattr(flow, "max_gain", counted)
    return answers


def test_general_isolated_vertex_runs_no_scan(monkeypatch):
    # a = 1 already, which no set beats, so no component is searched; the
    # witness is the greedy set's maximal maximizer, every isolated vertex.
    # C5 alone is searched
    searched = []
    real = capacity._search

    def logged(g, part, a, witness):
        searched.append(part)
        return real(g, part, a, witness)

    monkeypatch.setattr(capacity, "_search", logged)
    for g, want in (
        (Graph(6, [(0, 1), (1, 2), (0, 2), (4, 5)]), {3}),
        (disjoint_union(cycle_graph(5), Graph(2)), {5, 6}),
    ):
        res = a_general_exact(g)
        assert searched == [] and (res.a, res.witness) == (Fraction(1), want)
        assert general_reference(g) == (Fraction(1), want)
    assert a_general_exact(cycle_graph(5)).a == Fraction(2, 5) and searched == [0b11111]


def test_general_free_candidates_join_at_once(monkeypatch):
    # the greedy set {0, 2} reaches a = 1/3.  The search's root branches on
    # 0 (four candidate neighbours), then 1; taking 1 leaves 3 and 4, whose
    # neighbours all lie in N({1}) = {0, 2, 5}, so they join at once and
    # the node records {1, 3, 4} (a = 1/2) itself, with one check, instead
    # of leaving the set to a leaf's cut
    g = Graph(6, [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 4), (3, 5)])
    checked = []
    real = capacity._witness_counts

    def logged(g, mask, what):
        checked.append((what, mask_to_set(mask)))
        return real(g, mask, what)

    monkeypatch.setattr(capacity, "_witness_counts", logged)
    res = a_general_exact(g)
    assert (res.a, res.witness) == (Fraction(1, 2), {1, 3, 4}) == general_reference(g)
    assert [mask for what, mask in checked if what == "general"] == [{1, 3, 4}] * 2


def test_general_bound_drops_no_improvement(monkeypatch):
    # each bound drops a node only when no set below it beats the price,
    # and the price only rises, so a search with either bound, or both,
    # always answering "may beat" records the same sets: the same a and
    # witness, which are the reference walk's.  The vertex bound is off
    # when flow.max_gain answers "may beat" on every bound's mask (the
    # whole-mask test never drops a node), and the clique bound is off when
    # _clique_bound answers False.  On these graphs the real bounds drop
    # nodes, the clique bound among them on the denser graphs of 20-30
    # vertices, and the search improves on the greedy set's a
    rng = random.Random(14)
    graphs = [random_graph(rng.randint(8, 16), rng.uniform(0.15, 0.5), rng) for _ in range(150)]
    graphs += [cycle_graph(5), Graph(6, SLOW_GREEDY), random_graph(30, 0.35, random.Random(14))]
    dense = [random_graph(rng.randint(20, 30), rng.uniform(0.35, 0.45), rng) for _ in range(8)]
    real_gain, real_clique = flow.max_gain, capacity._clique_bound
    calls = _record_ratio_calls(monkeypatch)
    bounds = _count_bounds(monkeypatch)
    dropped = []

    def counted(*args):
        dropped.append(real_clique(*args))
        return dropped[-1]

    monkeypatch.setattr(capacity, "_clique_bound", counted)
    bounded, improved = [], 0
    for g in graphs:
        calls.clear()
        bounded.append(a_general_exact(g))
        improved += bounded[-1].a > calls[0][1][0]
    assert False in bounds and improved >= 5, improved
    del dropped[:]
    bounded += [a_general_exact(g) for g in dense]
    assert True in dropped

    def may_beat(mask, nbr, *rest):
        return True if _asks_a_bound(mask, nbr) else real_gain(mask, nbr, *rest)

    def keeps(*args):
        return False

    for gain, clique in ((may_beat, real_clique), (real_gain, keeps), (may_beat, keeps)):
        monkeypatch.setattr(flow, "max_gain", gain)
        monkeypatch.setattr(capacity, "_clique_bound", clique)
        for g, res in zip(graphs + dense, bounded):
            unbounded = a_general_exact(g)
            assert (unbounded.a, unbounded.witness) == (res.a, res.witness), g.adj
            if g.n <= 16:
                assert (res.a, res.witness) == general_reference(g), g.adj


def _circulant(n, steps):
    return Graph(n, {tuple(sorted((v, (v + s) % n))) for v in range(n) for s in steps})


def _random_cubic_line_graph(n, rng):
    """The line graph of a random simple cubic graph on n vertices, drawn
    by pairing 3n points until no pair is a loop or a repeat."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(u != v for u, v in edges):
            break
    edges = sorted(edges)
    return Graph(
        len(edges),
        [(i, j) for i in range(len(edges)) for j in range(i) if set(edges[i]) & set(edges[j])],
    )


@pytest.mark.parametrize("name", ["C40(1,2)", "cubic_line"])
def test_general_hard_40_vertex_graphs_through_the_cli(name, monkeypatch, capsys, tmp_path):
    # 4-regular graphs, where many maximal sets come close to the optimum.
    # In C40(1,2) and in the line graph of a cubic graph, a vertex outside
    # an independent set I sees at most two of its members, and each member
    # has four neighbours, so |N(I)| >= 2|I| and a <= 1/3.  C40(1,2)
    # reaches 13/40 (every third vertex; 40 is not a multiple of 3), and
    # the line graph of this cubic graph on 26 vertices (39 edges) 1/3.
    # The search reaches the bound at 9,381 and 5,779 nodes: the whole
    # candidate set keeps 6,190 and 2,966 of them, of which the clique
    # cover drops 1,473 and 72, and flow.max_gain drops the other 3,191 and
    # 2,813.  A bound that did not count what I already pays (threshold 0)
    # was asked 167,943 and 136,034 times
    if name == "C40(1,2)":
        g, a = _circulant(40, (1, 2)), "13/40"
    else:
        g, a = _random_cubic_line_graph(26, random.Random(0)), "1/3"
    assert {g.degree(v) for v in range(g.n)} == {4} and g.n in (39, 40)
    path = tmp_path / "g.g"
    path.write_text(format_graph(g))
    bounds = _count_bounds(monkeypatch)
    assert cli.main(["--json", "capacity", "--witness", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    witness = record["witness"]
    assert record["a"] == a and 0 < len(bounds) < 12_500
    assert g.is_independent(witness)
    assert ratio_str(Fraction(len(witness), len(witness) + len(neighborhood(g, witness)))) == a


@pytest.mark.parametrize("name", ["P40", "tree40"])
def test_general_40_vertex_bipartite_graph_through_the_cli(name, monkeypatch, capsys, tmp_path):
    # each took most of a second or more when sets that only tie the price
    # were solved; now the greedy set's minimization is the only one, and
    # its maximal minimizer (on P40 every even vertex) is the witness
    if name == "P40":
        g, a, witness = path_graph(40), "1/2", list(range(0, 40, 2))
    else:
        rng = random.Random(1)
        g = Graph(40, [(v, rng.randrange(v)) for v in range(1, 40)])
        a, witness = "6/7", [2, 4, 16, 23, 24, 25]
    path = tmp_path / "g.g"
    path.write_text(format_graph(g))
    calls = _record_ratio_calls(monkeypatch)
    assert cli.main(["--json", "capacity", "--witness", str(path)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["a"], sorted(record["witness"]), len(calls)) == (a, witness, 1)


def test_verification_survives_optimize():
    # a corrupted witness check must still fail _finish under python -O
    code = textwrap.dedent(
        """
        import sys
        from indeplib import capacity
        from indeplib.errors import VerificationError
        from indeplib.graph import cycle_graph

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        capacity._witness_counts = lambda g, mask, what: (mask.bit_count(), g.n)
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


def test_tensor_capacity_realizes_a_certificate_once(monkeypatch):
    # P3 as each certificate: a graph that differs, given to tensor_capacity
    # or to the engine itself, is refused before any step runs, and a
    # matching one realizes the certificate once
    p3 = Graph(3, [(0, 1), (0, 2)])
    cases = (
        ("cotree", parse_cotree("(* 0 (+ 1 2))"), "realize", "cograph_profile"),
        ("interval", IntervalModel(((1, 2), (0, 1), (2, 3))), "realize_interval", "_chain_dp"),
        ("permutation", PermutationModel((2, 0, 1)), "realize_permutation", "_chain_dp"),
    )
    engines = {"cotree": a_cograph, "interval": a_interval, "permutation": a_permutation}
    for key, cert, realize_name, step_name in cases:
        realized, steps = [], []
        real_realize, real_step = getattr(capacity, realize_name), getattr(capacity, step_name)

        def counted_realize(model, f=real_realize):
            realized.append(model)
            return f(model)

        def counted_step(*args, f=real_step, **kwargs):
            steps.append(args)
            return f(*args, **kwargs)

        monkeypatch.setattr(capacity, realize_name, counted_realize)
        monkeypatch.setattr(capacity, step_name, counted_step)
        with pytest.raises(ValueError, match="does not match"):
            tensor_capacity(path_graph(3), **{key: cert})
        assert len(realized) == 1 and not steps, key
        realized.clear()
        with pytest.raises(ValueError, match="does not match"):
            engines[key](cert, path_graph(3))
        assert len(realized) == 1 and not steps, key
        realized.clear()
        r = tensor_capacity(p3, **{key: cert})
        assert r.a == Fraction(2, 3) and r.witness == {1, 2}, key
        assert len(realized) == 1 and steps, key


def test_tensor_capacity_refuses_two_certificates():
    # each certificate is valid on its own; the cograph engine used to run
    # and ignore the rest, here the triangle the interval model realizes
    g = Graph(3)
    certs = {
        "cotree": parse_cotree("(+ 0 1 2)"),
        "split": split_partition(g),
        "interval": IntervalModel(((0, 2), (1, 3), (2, 4))),
        "permutation": PermutationModel((0, 1, 2)),
        "decomposition": _nice(g),
    }
    for pair in itertools.combinations(certs, 2):
        for graph in (None, g):
            with pytest.raises(ValueError, match="at most one certificate"):
                tensor_capacity(graph, **{key: certs[key] for key in pair})


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


def test_profile_verify_refuses_bad_witnesses():
    # on P3, ell(1) = 1 at an end vertex; a witness outside 0..2 is refused
    # as a failed verification, not as a bad argument
    g = path_graph(3)
    NeighborhoodProfile({0: 0, 1: 1}, {0: (), 1: {0}}).verify(g)
    for v in (7, -1):
        with pytest.raises(VerificationError, match="outside the graph"):
            NeighborhoodProfile({0: 0, 1: 1}, {0: (), 1: {v}}).verify(g)
    with pytest.raises(VerificationError, match="does not attain"):
        NeighborhoodProfile({0: 0, 1: 1}, {0: (), 1: {1}}).verify(g)
    with pytest.raises(VerificationError, match="not independent"):
        NeighborhoodProfile({0: 0, 2: 1}, {0: (), 2: {0, 1}}).verify(g)
