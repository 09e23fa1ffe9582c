"""Max-flow and the neighborhood-ratio minimizer."""

import random
from fractions import Fraction

import pytest

from _helpers import min_ratio_subset_exhaustive
from indeplib.flow import INF, FlowNetwork, max_flow, min_ratio_subset
from indeplib.graph import set_to_mask


def test_max_flow_simple():
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 3)
    net.add_arc(0, 2, 2)
    net.add_arc(1, 3, 2)
    net.add_arc(2, 3, 3)
    net.add_arc(1, 2, 5)
    value, cut = max_flow(net)
    assert value == 5
    assert cut.value == 5
    assert 0 in cut.source_side and 3 not in cut.source_side


def test_max_flow_inf_arcs_and_unbounded():
    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, 5)
    net.add_arc(1, 2, INF)
    value, cut = max_flow(net)
    assert value == 5 and cut.source_side == {0}

    net = FlowNetwork(3, 0, 2)
    net.add_arc(0, 1, INF)
    net.add_arc(1, 2, INF)
    with pytest.raises(ValueError, match="no finite cut"):
        max_flow(net)


def test_max_flow_rejects_bad_arcs():
    net = FlowNetwork(3, 0, 2)
    with pytest.raises(ValueError):
        net.add_arc(1, 0, 1)  # into source
    with pytest.raises(ValueError):
        net.add_arc(2, 1, 1)  # out of sink
    with pytest.raises(ValueError):
        net.add_arc(0, 1, -2)


def test_max_flow_returns_maximal_cut_side():
    # two min cuts exist; the maximal source side must be returned
    net = FlowNetwork(4, 0, 3)
    net.add_arc(0, 1, 1)
    net.add_arc(1, 2, 1)
    net.add_arc(2, 3, 1)
    value, cut = max_flow(net)
    assert value == 1
    assert cut.source_side == {0, 1, 2}


def _masks(nbr):
    return {v: set_to_mask(cs) for v, cs in nbr.items()}


def test_min_ratio_examples():
    # one side of K_{3,3}: every vertex sees the full other side {3, 4, 5}
    nbr = {v: 0b111000 for v in range(3)}
    subset, nu = min_ratio_subset(range(3), nbr)
    assert nu == 1 and subset == {0, 1, 2}
    # vertex with empty neighborhood gives ratio zero
    nbr = {0: 1 << 3, 1: 0, 2: 1 << 4}
    subset, nu = min_ratio_subset(range(3), nbr)
    assert nu == 0 and subset == {1}
    # pendant structure: nu = 1/3 from the three leaves of a star
    nbr = {v: 1 << 3 for v in range(3)}
    subset, nu = min_ratio_subset(range(3), nbr)
    assert nu == Fraction(1, 3) and subset == {0, 1, 2}


def test_min_ratio_input_validation():
    with pytest.raises(ValueError):
        min_ratio_subset([], {})
    with pytest.raises(ValueError):
        min_ratio_subset([0, 1], {0: 1 << 1, 1: 1 << 0})  # ground set overlaps S


def _random_ratio_case(rng):
    ns = rng.randint(1, 7)
    nc = rng.randint(1, 6)
    svars = list(range(ns))
    ground = [ns + j for j in range(nc)]
    nbr = {
        v: {c for c in ground if rng.random() < rng.choice([0.2, 0.5, 0.8])}
        for v in svars
    }
    return svars, nbr


def test_min_ratio_vs_exhaustive_randomized():
    rng = random.Random(13)
    for _ in range(300):
        svars, nbr = _random_ratio_case(rng)
        got = min_ratio_subset(svars, _masks(nbr))
        want = min_ratio_subset_exhaustive(svars, nbr)
        assert got == want, (nbr, got, want)


def test_min_ratio_priced_vs_exhaustive():
    # a price below the minimum gives None; at or above it, the maximal
    # minimizer as without a price
    rng = random.Random(17)
    for _ in range(300):
        svars, nbr = _random_ratio_case(rng)
        masks = _masks(nbr)
        want = min_ratio_subset_exhaustive(svars, nbr)
        prices = {want[1], want[1] + Fraction(1, 3), Fraction(rng.randint(0, 8), rng.randint(1, 4))}
        if want[1] > 0:
            prices.add(want[1] - Fraction(1, 13))
        for price in prices:
            got = min_ratio_subset(svars, masks, price)
            if want[1] > price:
                assert got is None, (nbr, price, got, want)
            else:
                assert got == want, (nbr, price, got, want)


def test_min_ratio_returns_maximal_minimizer():
    # both {0} and {1} minimize at ratio 1; the maximal minimizer is {0,1}
    nbr = {0: 1 << 2, 1: 1 << 3}
    subset, nu = min_ratio_subset([0, 1], nbr)
    assert nu == 1 and subset == {0, 1}
    # priced at exactly that minimum, the maximal minimizer is still found
    subset, nu = min_ratio_subset([0, 1], nbr, Fraction(1))
    assert nu == 1 and subset == {0, 1}
