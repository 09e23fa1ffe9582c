"""Max-flow, the ratio cut and the neighborhood-ratio minimizer."""

import random
from fractions import Fraction

import pytest

from _helpers import min_ratio_subset_exhaustive, random_graph
from indeplib import flow
from indeplib.capacity import min_ratio_subset
from indeplib.errors import VerificationError
from indeplib.flow import INF, FlowNetwork, gain_above, max_flow
from indeplib.graph import Graph, set_to_mask


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


def _bipartite(nbr):
    """The graph joining each S-vertex v to the ground vertices in nbr[v]."""
    edges = [(v, c) for v, cs in nbr.items() for c in cs]
    return Graph(1 + max([v for e in edges for v in e] + list(nbr)), edges)


def test_min_ratio_examples():
    # one side of K_{3,3}: every vertex sees the full other side {3, 4, 5}
    g = _bipartite({v: {3, 4, 5} for v in range(3)})
    assert min_ratio_subset(g, 0b111) == (Fraction(1, 2), 0b111)
    # vertex with empty neighborhood gives ratio zero, a = 1
    g = _bipartite({0: {3}, 1: set(), 2: {4}})
    assert min_ratio_subset(g, 0b111) == (Fraction(1), 0b10)
    # pendant structure: nu = 1/3 from the three leaves of a star
    g = _bipartite({v: {3} for v in range(3)})
    assert min_ratio_subset(g, 0b111) == (Fraction(3, 4), 0b111)


def test_min_ratio_input_validation():
    with pytest.raises(ValueError, match="nonempty"):
        min_ratio_subset(Graph(2), 0)
    with pytest.raises(VerificationError, match="not independent"):
        min_ratio_subset(_bipartite({0: {1}}), 0b11)  # the ground overlaps S


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
        got = min_ratio_subset(_bipartite(nbr), set_to_mask(svars))
        subset, nu = min_ratio_subset_exhaustive(svars, nbr)
        assert got == (1 / (1 + nu), set_to_mask(subset)), (nbr, got, nu, subset)


def test_min_ratio_returns_maximal_minimizer():
    # both {0} and {1} minimize at ratio 1; the maximal minimizer is {0,1}.
    # A loop started at the single vertex 0 would stop there, for no set
    # beats it; started at the whole mask it keeps both
    g = _bipartite({0: {2}, 1: {3}})
    assert min_ratio_subset(g, 0b11) == (Fraction(1, 2), 0b11)
    # the tie survives an improving cut: {0, 1, 2} has ratio 4/3, and the
    # cut moves to the maximal minimizer {0, 1}, not to one of its halves
    g = _bipartite({0: {3}, 1: {4}, 2: {5, 6}})
    assert min_ratio_subset(g, 0b111) == (Fraction(1, 2), 0b11)


def _count_cuts(monkeypatch):
    """Record the arguments of each _ratio_cut call."""
    cuts = []
    real = flow._ratio_cut

    def counted(*args):
        cuts.append(args)
        return real(*args)

    monkeypatch.setattr(flow, "_ratio_cut", counted)
    return cuts


def test_gain_above_vs_exhaustive(monkeypatch):
    # graphs (so N(S) meets the mask and S need not be independent) and
    # arbitrary neighbour masks, with a covered mask (N(I) of the general
    # engine's node) empty in a third of the cases.  Prices are each ratio
    # |N(S) \ covered|/|S| that occurs, and one at random; thresholds are
    # the best gain (a tie: false), one below it (true), one above, 0 and
    # -1.  The answer is true iff some subset S, the empty one included,
    # has p*|S| - q*|N(S) \ covered| above the threshold.  Every way to an
    # answer is taken: a single vertex, the whole mask, a false answer from
    # the greedy fill with no cut, and the cut's, true and false
    cuts = _count_cuts(monkeypatch)
    rng = random.Random(23)
    ways = {"vertex": 0, "whole": 0, "fill": 0, True: 0, False: 0}
    for case in range(400):
        n = rng.randint(1, 10)
        if case % 2:
            nbr = list(random_graph(n, rng.random(), rng).adj)
        else:
            nbr = [rng.getrandbits(n) for _ in range(n)]
        mask = rng.getrandbits(n)
        covered = rng.getrandbits(n) if case % 3 else 0
        verts = [v for v in range(n) if (mask >> v) & 1]
        subsets = []
        for sub in range(1 << len(verts)):
            picked = [v for i, v in enumerate(verts) if (sub >> i) & 1]
            nbrs = 0
            for v in picked:
                nbrs |= nbr[v]
            subsets.append((len(picked), (nbrs & ~covered).bit_count()))
        prices = {Fraction(rng.randint(0, 12), rng.randint(1, 5))}
        prices |= {Fraction(c, k) for k, c in subsets if k}
        for price in prices:
            p, q = price.numerator, price.denominator
            gains = [p * k - q * c for k, c in subsets]
            top = max(gains)
            whole = gains[-1]
            single = max([gains[1 << i] for i in range(len(verts))], default=-1)
            for threshold in {top - 1, top, top + 1, 0, -1}:
                want = top > threshold
                before = len(cuts)
                got = gain_above(mask, nbr, covered, p, q, threshold)
                assert got == want, (nbr, mask, covered, p, q, threshold)
                if len(cuts) > before:
                    ways[got] += 1
                elif not got:
                    ways["fill"] += 1
                elif threshold >= 0 and single > threshold:
                    ways["vertex"] += 1
                elif threshold >= 0:
                    assert whole > threshold
                    ways["whole"] += 1
    assert all(ways.values()), ways


def test_gain_above_spends_no_cut_on_a_passed_sufficient_test(monkeypatch):
    cuts = _count_cuts(monkeypatch)
    # K_{3,3} side {0, 1, 2}: at ratio p/q each vertex alone gains p - 3q,
    # the side 3p - 3q
    nbr = [0b111000] * 3 + [0b000111] * 3
    assert gain_above(0b111, nbr, 0, 2, 1, 0)  # the whole set beats 2
    assert gain_above(0b1001, nbr, 0, 4, 1, 0)  # a single vertex beats 4
    # a tie passes neither test, and the greedy fill places all of the flow
    assert not gain_above(0b111, nbr, 0, 1, 1, 0)  # the whole set ties 1
    assert not gain_above(0b1001, nbr, 0, 3, 1, 0)  # every subset ties 3
    # with vertex 3 covered the side gains 1 at ratio 1: above 0, not above
    # 1, where the fill strands one unit, which that threshold allows
    assert gain_above(0b111, nbr, 0b1000, 1, 1, 0)
    assert not gain_above(0b111, nbr, 0b1000, 1, 1, 1)
    # covered vertices cost nothing: {0} gains 3 - 1 at ratio 3 with 4 and
    # 5 covered, and 3 with 3, 4 and 5 covered, which only ties 3
    assert gain_above(0b1, nbr, 0b110000, 3, 1, 1)
    assert not gain_above(0b1, nbr, 0b111000, 3, 1, 3)
    assert cuts == []
    # 0 and 1 take their least neighbours, 3 and 4, which strands 2 (arcs
    # to 3 and 4) though 0 -> 5, 1 -> 6, 2 -> 3 places it all: only the cut
    # sees that no subset beats 1, and that the whole mask only ties 4/3
    nbr = [0b101000, 0b1010000, 0b11000, 0, 0, 0, 0]
    assert not gain_above(0b111, nbr, 0, 1, 1, 0) and len(cuts) == 1
    assert not gain_above(0b111, nbr, 0, 4, 3, 0) and len(cuts) == 2
    # with 5 covered, 0 sees only 3 and the fill strands 2's unit again;
    # {0}, {0, 2} and the whole mask only tie 1, as the cut shows
    assert not gain_above(0b111, nbr, 0b100000, 1, 1, 0) and len(cuts) == 3
    # 0 and 1 share their two neighbours, so {0, 1} has ratio 1 while each
    # single vertex has 2 or 4 and the whole mask 10/4: the greedy fill
    # strands 1's flow, and only the cut sees that {0, 1} beats 3/2; at 1
    # and 1/2 the greedy fill places it all
    nbr = [0b11 << 5, 0b11 << 5, 0, 0b1111 << 7, 0b1111 << 11]
    assert gain_above(0b11011, nbr, 0, 3, 2, 0) and len(cuts) == 4
    assert not gain_above(0b11011, nbr, 0, 1, 1, 0) and len(cuts) == 4
    assert not gain_above(0b11011, nbr, 0, 1, 2, 0) and len(cuts) == 4


def _cut_exhaustive(svars, nbr, p, q):
    """The S-vertices of every maximizer of p*|S| - q*|N(S)| over subsets
    S of svars (the empty set included), in svars order: the maximal
    min-cut source side, since maximizers are closed under union."""
    values = {}
    for sub in range(1 << len(svars)):
        picked = [v for i, v in enumerate(svars) if (sub >> i) & 1]
        nbrs = 0
        for v in picked:
            nbrs |= nbr[v]
        values[sub] = p * len(picked) - q * nbrs.bit_count()
    top = max(values.values())
    union = 0
    for sub, value in values.items():
        if value == top:
            union |= sub
    return [v for i, v in enumerate(svars) if (union >> i) & 1]


def test_ratio_cut_vs_exhaustive():
    # graphs (so the sides of the double cover overlap, as gain_above
    # builds them) and arbitrary neighbour masks, up to 10 vertices; the
    # ground may hold vertices no S-vertex sees, which never take flow;
    # prices tie a subset's ratio (q > 1 included), or are random
    rng = random.Random(31)
    for case in range(1500):
        n = rng.randint(1, 10)
        if case % 2:
            nbr = list(random_graph(n, rng.random(), rng).adj)
        else:
            nbr = [rng.getrandbits(n) for _ in range(n)]
        svars = [v for v in range(n) if rng.random() < 0.6]
        ground = rng.getrandbits(n) if case % 3 == 0 else 0
        for v in svars:
            ground |= nbr[v]
        prices = {(rng.randint(0, 12), rng.randint(1, 5))}
        if svars:
            picked = rng.sample(svars, rng.randint(1, len(svars)))
            nbrs = 0
            for v in picked:
                nbrs |= nbr[v]
            tie = Fraction(nbrs.bit_count(), len(picked))
            k = rng.randint(1, 3)
            prices.add((tie.numerator * k, tie.denominator * k))
            prices.add((tie.numerator, tie.denominator))
        for p, q in prices:
            got = flow._ratio_cut(list(svars), nbr, ground, p, q)
            assert got == _cut_exhaustive(svars, nbr, p, q), (svars, nbr, ground, p, q)


def test_ratio_cut_checks_catch_a_corrupted_flow(monkeypatch):
    class Masks(list):
        """Neighbour masks that count their reads and, past read number
        `after` or up to read number `until`, also show the ground vertices
        in `extra`."""

        def __init__(self, masks, after=None, extra=0, until=0):
            super().__init__(masks)
            self.reads, self.after, self.extra, self.until = 0, after, extra, until

        def __getitem__(self, v):
            self.reads += 1
            mask = super().__getitem__(v)
            if self.after is not None and self.reads > self.after or self.reads <= self.until:
                mask |= self.extra
            return mask

    # S-vertex 1 (ratio 1 at price 1) is the source side; S-vertex 0 sees
    # ground vertices 2 and 3, and 3 keeps its residual to t.  The last
    # read, the final check's of vertex 1, also shows an arc 1 -> 3 across
    # the cut
    svars, masks, ground = [0, 1], [0b1100, 0b10000, 0, 0, 0], 0b11100
    counted = Masks(masks)
    assert flow._ratio_cut(svars, counted, ground, 1, 1) == [1]
    lying = Masks(masks, after=counted.reads - 1, extra=0b1000)
    with pytest.raises(VerificationError, match="unbounded arc crosses"):
        flow._ratio_cut(svars, lying, ground, 1, 1)

    # S-vertex 0 ties the price 1 through ground vertex 2, so its side is
    # [0]; the greedy start alone (one read for the order, one for the
    # arcs) is also shown an arc 0 -> 1, and its flow on that non-arc lets
    # 0 reach t: every other check passes the empty side
    assert flow._ratio_cut([0], [0b100, 0, 0], 0b110, 1, 1) == [0]
    lying = Masks([0b100, 0, 0], extra=0b10, until=2)
    with pytest.raises(VerificationError, match="non-arc"):
        flow._ratio_cut([0], lying, 0b110, 1, 1)

    # the greedy start is handed S-vertex 0 twice: its second pass's flow
    # overwrites the record of the first, so ground vertex 2 fills up with
    # flow the state does not hold, and the cut's capacity exceeds the value
    def twice(items, key=None):
        items = sorted(items, key=key)
        return items[:1] + items

    monkeypatch.setattr(flow, "sorted", twice, raising=False)
    with pytest.raises(VerificationError, match="ratio cut capacity"):
        flow._ratio_cut([0], [0b1100, 0, 0, 0], 0b1100, 1, 1)
    # at q = 2 both passes put their unit on ground vertex 1, and the state
    # records one: the cut's capacity matches that value, but the ground
    # holds 2 units where the S-vertex sent 1
    with pytest.raises(VerificationError, match="receives 2, not 1"):
        flow._ratio_cut([0], [0b110, 0, 0], 0b110, 1, 2)
