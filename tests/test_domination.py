"""Independent domination ratios of categorical powers of complete
(multi)partite graphs."""

import itertools
from fractions import Fraction
from math import comb

import pytest

from _helpers import connected_components, is_bipartite
from indeplib.domination import (
    ri_complete_bipartite_power,
    ri_power_exact,
    ultimate_independent_domination_multipartite,
)
from indeplib.errors import LimitExceeded
from indeplib.graph import (
    Graph,
    categorical_product,
    complete_bipartite,
    complete_graph,
    graph_power,
)
from indeplib.oracles import independent_domination_exact


def test_closed_form_examples():
    assert ri_complete_bipartite_power(1, 2, 1) == Fraction(1, 3)
    assert ri_complete_bipartite_power(1, 2, 2) == Fraction(1, 3)
    assert ri_complete_bipartite_power(1, 2, 3) == Fraction(7, 27)
    for m in range(1, 5):
        for k in range(1, 13):
            assert ri_complete_bipartite_power(m, m, k) == Fraction(1, 2)
    with pytest.raises(ValueError):
        ri_complete_bipartite_power(0, 1, 1)


def test_closed_form_matches_brute_force():
    for m in range(1, 7):
        for n in range(m, 7):
            k = 1
            while (m + n) ** k <= 20:
                want = ri_power_exact(complete_bipartite(m, n), k)
                assert ri_complete_bipartite_power(m, n, k) == want, (m, n, k)
                k += 1


def test_closed_form_monotone_non_increasing():
    for m in range(1, 7):
        for n in range(1, 7):
            values = [ri_complete_bipartite_power(m, n, k) for k in range(1, 13)]
            assert all(a >= b for a, b in zip(values, values[1:])), (m, n)


def test_unbalanced_ratio_decays_to_zero():
    # the sequence repeats each value twice (min symmetry) but decays to 0
    values = [ri_complete_bipartite_power(1, 2, k) for k in range(1, 31)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(a > b for a, b in zip(values, values[2:]))
    assert values[-1] < Fraction(1, 10)


def test_ultimate_ratio_classification():
    assert ultimate_independent_domination_multipartite([3, 3]) == Fraction(1, 2)
    assert ultimate_independent_domination_multipartite([1, 2]) == 0
    assert ultimate_independent_domination_multipartite([1, 1, 1]) == 0
    # every multiset of up to 4 classes with sizes up to 4
    for t in range(2, 5):
        for sizes in itertools.combinations_with_replacement(range(1, 5), t):
            want = Fraction(1, 2) if t == 2 and sizes[0] == sizes[1] else Fraction(0)
            assert ultimate_independent_domination_multipartite(list(sizes)) == want
    with pytest.raises(ValueError):
        ultimate_independent_domination_multipartite([3])
    with pytest.raises(ValueError):
        ultimate_independent_domination_multipartite([0, 2])


def test_domination_refuses_non_integer_sizes():
    # int() would read [2.9, 2] as K(2, 2) and parse ["3", "3"]; both answered 1/2
    for sizes in ([2.9, 2], ["3", "3"], [Fraction(3), 3]):
        with pytest.raises(ValueError, match="class size must be an integer"):
            ultimate_independent_domination_multipartite(sizes)
    for args in ((2.5, 2, 3), (2, "2", 3), (2, 2, 1.0)):
        with pytest.raises(ValueError, match="must be an integer, got"):
            ri_complete_bipartite_power(*args)


def test_ri_power_exact_examples():
    assert ri_power_exact(complete_graph(2), 1) == Fraction(1, 2)
    assert ri_power_exact(complete_graph(2), 2) == Fraction(1, 2)
    assert ri_power_exact(complete_bipartite(1, 2), 1) == Fraction(1, 3)
    with pytest.raises(LimitExceeded):
        ri_power_exact(complete_graph(5), 3)
    with pytest.raises(ValueError):
        ri_power_exact(complete_graph(2), 0)


def test_ri_power_exact_bounds_the_power_before_forming_it():
    # the oracle bound is checked one partial power at a time, and K1 is
    # its own power, so neither k below forms |V|^k or runs k - 1 products
    with pytest.raises(LimitExceeded, match=r"got 3\^100000000") as info:
        ri_power_exact(complete_graph(3), 10**8)
    assert info.value.required == 27
    assert ri_power_exact(complete_graph(1), 10**9) == 1


def _no_isolated(g):
    return all(g.degree(v) > 0 for v in range(g.n))


def _small_pairs():
    import random

    rng = random.Random(47)
    pairs = []
    while len(pairs) < 40:
        ng, nh = rng.randint(2, 5), rng.randint(2, 5)
        g = Graph(ng, [e for e in itertools.combinations(range(ng), 2) if rng.random() < 0.6])
        h = Graph(nh, [e for e in itertools.combinations(range(nh), 2) if rng.random() < 0.6])
        if _no_isolated(g) and _no_isolated(h):
            pairs.append((g, h))
    return pairs


def test_product_upper_bound():
    # i(G x H) <= i(G) * |V(H)| when H has no isolated vertices
    for g, h in _small_pairs():
        ip = independent_domination_exact(categorical_product(g, h), limit=25)
        assert ip <= independent_domination_exact(g) * h.n


def test_product_lower_bound_conjecture():
    # i(G x H) >= i(G) * i(H) is conjectural; a counterexample would be a
    # finding worth reporting, not a bug, so halt loudly instead of failing
    for g, h in _small_pairs():
        ip = independent_domination_exact(categorical_product(g, h), limit=25)
        lower = independent_domination_exact(g) * independent_domination_exact(h)
        if ip < lower:
            pytest.exit(
                "counterexample to the product domination conjecture: "
                f"G edges {sorted(g.edges())}, H edges {sorted(h.edges())}, "
                f"i(GxH)={ip} < i(G)*i(H)={lower}",
                returncode=3,
            )


def _component_inventory(g):
    """Multiset of (smaller side, larger side) over the components, which
    must all be complete bipartite."""
    comp = connected_components(g)
    inventory = []
    for c in range(max(comp) + 1):
        verts = [v for v in range(g.n) if comp[v] == c]
        sub = g.subgraph(verts)
        coloring = is_bipartite(sub)
        assert coloring is not None
        a = sum(1 for x in coloring if x == 0)
        b = sub.n - a
        assert sub.edge_count() == a * b, "component is not complete bipartite"
        inventory.append((min(a, b), max(a, b)))
    return sorted(inventory)


def test_power_component_decomposition():
    # K(m,n)^k splits into C(k-1,l) copies of K(m^(k-l) n^l, m^l n^(k-l))
    for m, n, k in [(1, 2, 2), (1, 2, 3), (2, 2, 2), (1, 3, 2), (2, 3, 2)]:
        g = graph_power(complete_bipartite(m, n), k)
        want = []
        for l in range(k):
            a = m ** (k - l) * n**l
            b = m**l * n ** (k - l)
            want.extend([(min(a, b), max(a, b))] * comb(k - 1, l))
        assert _component_inventory(g) == sorted(want), (m, n, k)
