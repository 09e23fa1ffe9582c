"""Bitset kernels against subset-scan references."""

import random
import sys

import pytest

from _helpers import (
    clique_cover_bound,
    count_maximal_independent_sets,
    disjoint_union,
    frame_depth,
    max_independent_set_reference,
    random_graph,
    random_max_degree,
)
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_graph,
    components,
    mask_to_set,
    set_to_mask,
)
from indeplib.kernels import bipartite_matching, max_independent_set, maximal_independent_sets


def _random_adj(n, p, rng):
    return list(random_graph(n, p, rng).adj)


def _subset_scan(adj):
    """(alpha, set of maximal independent masks) from every vertex subset."""
    n = len(adj)
    full = (1 << n) - 1
    independent = bytearray(1 << n)
    independent[0] = 1
    closed = [0] * (1 << n)  # mask | N(mask)
    alpha = 0
    maximal = set()
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        closed[mask] = closed[rest] | adj[low] | (1 << low)
        if independent[rest] and not adj[low] & rest:
            independent[mask] = 1
            alpha = max(alpha, mask.bit_count())
            if closed[mask] == full:
                maximal.add(mask)
    return alpha, maximal


def _max_matching_by_search(adj, left_mask, right_mask):
    """Maximum matching size from the right-side sets of every matching."""
    covered = {0}
    u = 0
    while left_mask >> u:
        if (left_mask >> u) & 1:
            grown = set(covered)
            for used in covered:
                free = adj[u] & right_mask & ~used
                while free:
                    bit = free & -free
                    free ^= bit
                    grown.add(used | bit)
            covered = grown
        u += 1
    return max(used.bit_count() for used in covered)


def test_max_independent_set_small():
    # C5: alpha = 2
    adj = [0b00110, 0b01001, 0b10001, 0b10010, 0b01100]
    size, mask = max_independent_set(adj, 0b11111)
    assert size == 2
    for v in range(5):
        if (mask >> v) & 1:
            assert not adj[v] & mask


def test_maximal_sets_triangle():
    adj = [0b110, 0b101, 0b011]
    masks = sorted(maximal_independent_sets(adj, 0b111))
    assert masks == [0b001, 0b010, 0b100]
    assert count_maximal_independent_sets(adj) == 3


def _relabel(mask, verts):
    """The mask over positions in verts, as a mask over verts' ids."""
    return set_to_mask(verts[i] for i in mask_to_set(mask))


def test_kernels_on_masks_match_subgraphs():
    # on a component, or on any vertex mask, the kernels give the results of
    # the subgraph built on the sorted mask, relabelled: the maximal-set
    # stream in its order, and the branch-and-bound size and witness
    rng = random.Random(23)
    for _ in range(150):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.7), rng)
        for _ in range(rng.randint(1, 3)):
            g = disjoint_union(g, random_graph(rng.randint(1, 7), rng.uniform(0.1, 0.7), rng))
        perm = list(range(g.n))
        rng.shuffle(perm)
        g = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        masks = components(g.adj, (1 << g.n) - 1) + [rng.getrandbits(g.n) for _ in range(3)]
        for mask in masks:
            verts = sorted(mask_to_set(mask))
            sub = g.subgraph(verts)
            every = (1 << sub.n) - 1
            want = [_relabel(m, verts) for m in maximal_independent_sets(sub.adj, every)]
            assert list(maximal_independent_sets(g.adj, mask)) == want, (g.adj, mask)
            size, wit = max_independent_set(sub.adj, every)
            assert max_independent_set(g.adj, mask) == (size, _relabel(wit, verts)), (g.adj, mask)


def test_bipartite_matching_masks():
    # K_{2,2} with right vertex 0 disabled
    adj = [0b11, 0b11]
    assert len(bipartite_matching(adj, 0b11, 0b11)[1]) == 2
    assert len(bipartite_matching(adj, 0b11, 0b10)[1]) == 1


def _check_matching(adj, left_mask, right_mask, state):
    """Size of a matching state after checking that its pairs form a
    matching between the masks and that its masks are those of the pairs."""
    mate_l, mate_r, ml, mr = state
    assert mate_r == {j: u for u, j in mate_l.items()}
    assert len(mate_r) == len(mate_l)
    for u, j in mate_l.items():
        assert (left_mask >> u) & 1 and (right_mask >> j) & 1 and (adj[u] >> j) & 1
    assert ml == set_to_mask(mate_l) and mr == set_to_mask(mate_r)
    return len(mate_r)


def test_kernels_match_subset_scan():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 16)
        adj = _random_adj(n, rng.random(), rng)
        alpha, maximal = _subset_scan(adj)
        size, mask = max_independent_set(adj, (1 << n) - 1)
        assert size == alpha == mask.bit_count()
        assert all(not adj[v] & mask for v in range(n) if (mask >> v) & 1)
        found = list(maximal_independent_sets(adj, (1 << n) - 1))
        assert len(found) == len(set(found))
        assert set(found) == maximal
        nl = rng.randint(1, 8)
        nr = rng.randint(1, 8)
        badj = [rng.getrandbits(nr) for _ in range(nl)]
        lm = rng.getrandbits(nl)
        rm = rng.getrandbits(nr)
        state = bipartite_matching(badj, lm, rm)
        assert _check_matching(badj, lm, rm, state) == _max_matching_by_search(badj, lm, rm)
        # warm start from a matching on the full instance, then restrict
        full = bipartite_matching(badj, (1 << nl) - 1, (1 << nr) - 1)
        state = bipartite_matching(badj, lm, rm, full)
        assert _check_matching(badj, lm, rm, state) == _max_matching_by_search(badj, lm, rm)


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def test_max_independent_set_matches_recursive_reference():
    # the same (size, witness) as the recursive kernel it replaced, on
    # shuffled disjoint unions, product components, G x K4 of degree-3
    # graphs and G(n, p) up to 40 vertices, each on its whole vertex set
    # and on a random mask
    rng = random.Random(24)
    graphs = []
    for _ in range(120):
        g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.7), rng)
        for _ in range(rng.randint(1, 3)):
            g = disjoint_union(g, random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.7), rng))
        graphs.append(_shuffled(g, rng))
    for _ in range(100):
        g = random_graph(rng.randint(4, 7), rng.uniform(0.2, 0.8), rng)
        h = random_graph(rng.randint(4, 7), rng.uniform(0.2, 0.8), rng)
        graphs.append(categorical_product(g, h))
    for _ in range(60):
        g = random_max_degree(rng.randint(1, 9), 3, rng.random(), rng)
        graphs.append(categorical_product(g, complete_graph(4)))
    for _ in range(120):
        n = rng.randint(1, 40)
        graphs.append(random_graph(n, rng.uniform(0.05, 0.6), rng))
    checked = 0
    for g in graphs:
        every = (1 << g.n) - 1
        for mask in components(g.adj, every) + [every, rng.getrandbits(g.n)]:
            got = max_independent_set(g.adj, mask)
            assert got == max_independent_set_reference(g.adj, mask), (g.adj, mask)
            checked += 1
    assert checked >= 1000


def test_max_independent_set_deeper_than_recursion_limit():
    # 200 disjoint triangles branch 200 deep; under a recursion limit 100
    # frames above this test the recursive reference fails, the kernel not
    n = 600
    g = Graph(n, [e for i in range(0, n, 3) for e in ((i, i + 1), (i + 1, i + 2), (i, i + 2))])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frame_depth() + 100)
    try:
        with pytest.raises(RecursionError):
            max_independent_set_reference(g.adj, (1 << n) - 1)
        size, mask = max_independent_set(g.adj, (1 << n) - 1)
    finally:
        sys.setrecursionlimit(limit)
    assert size == 200 == mask.bit_count()
    assert all(not g.adj[v] & mask for v in mask_to_set(mask))


def test_max_independent_set_200_vertices():
    size, mask = max_independent_set([0] * 200, (1 << 200) - 1)
    assert size == 200 and mask == (1 << 200) - 1


def test_clique_cover_bound():
    # bound is an upper bound for alpha and exact on unions of cliques
    adj = [0b0110, 0b0101, 0b0011, 0b0000]
    full = 0b1111
    assert clique_cover_bound(adj, full) >= 2
