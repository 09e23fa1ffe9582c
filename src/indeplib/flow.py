"""Neighborhood-ratio cuts, and a general max-flow / min-cut.

_ratio_cut is the maximal minimum cut of one bipartite network shape: the
step of max_gain, which finds the largest subset of a mask, independent
or not, that gains most at one ratio, when its gain is above a threshold.
max_gain is the one flow question of the split and general engines in
capacity: each Dinkelbach step on an independent mask, and the general
engine's bound.  All capacities are integers and every cut decision is
exact.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import VerificationError
from .graph import neighborhood_mask, set_to_mask

# The Dinic max-flow below has no caller in the library: the ratio cut
# replaced it.  It stays because the benchmark's trace wrappers
# (perfbench/spans.py, checked by tests/test_perfbench_trace.py) bind
# flow.max_flow and flow._ratio_network by name, so its deletion needs a
# change to the benchmark.
INF = "inf"


class FlowNetwork:
    """Directed network with integer capacities; INF marks unbounded arcs.
    No arc may enter the source or leave the sink."""

    def __init__(self, num_nodes, source, sink):
        if not (0 <= source < num_nodes and 0 <= sink < num_nodes) or source == sink:
            raise ValueError("bad source/sink")
        self.num_nodes = num_nodes
        self.source = source
        self.sink = sink
        self.arcs = []  # (u, v, capacity or INF)

    def add_arc(self, u, v, capacity):
        if v == self.source or u == self.sink:
            raise ValueError("arc into source or out of sink")
        if capacity is not INF and capacity < 0:
            raise ValueError("negative capacity")
        self.arcs.append((u, v, capacity))


class CutResult(NamedTuple):
    value: int
    source_side: frozenset  # inclusion-wise MAXIMAL min-cut source side


def max_flow(net: FlowNetwork):
    """Exact max flow via Dinic; returns (value, CutResult).

    The returned source side is the complement of the nodes that reach the
    sink in the residual graph, i.e. the unique inclusion-wise maximal
    minimum cut.  Raises if every cut is infinite.
    """
    finite_total = sum(c for _, _, c in net.arcs if c is not INF)
    big = finite_total + 1

    n = net.num_nodes
    head = []
    nxt = []
    first = [-1] * n
    cap = []

    def add_edge(u, v, c):
        head.append(v)
        cap.append(c)
        nxt.append(first[u])
        first[u] = len(head) - 1

    inf_only = [[] for _ in range(n)]
    for u, v, c in net.arcs:
        add_edge(u, v, big if c is INF else c)
        add_edge(v, u, 0)
        if c is INF:
            inf_only[u].append(v)

    # unbounded iff the sink is reachable through INF arcs alone
    seen = {net.source}
    stack = [net.source]
    while stack:
        u = stack.pop()
        for v in inf_only[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if net.sink in seen:
        raise ValueError("no finite cut: sink reachable through unbounded arcs")

    s, t = net.source, net.sink
    flow = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for u in queue:
            e = first[u]
            while e != -1:
                v = head[e]
                if cap[e] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
                e = nxt[e]
        if level[t] < 0:
            break
        it = list(first)

        def dfs(u, pushed):
            if u == t:
                return pushed
            while it[u] != -1:
                e = it[u]
                v = head[e]
                if cap[e] > 0 and level[v] == level[u] + 1:
                    got = dfs(v, min(pushed, cap[e]))
                    if got:
                        cap[e] -= got
                        cap[e ^ 1] += got
                        return got
                it[u] = nxt[e]
            return 0

        while True:
            pushed = dfs(s, big)
            if not pushed:
                break
            flow += pushed

    # nodes that reach t in the residual graph (residual arc u->v iff the
    # stored arc e with head v, tail head[e^1], has cap[e] > 0)
    reach_t = {t}
    stack = [t]
    radj = [[] for _ in range(n)]
    for e in range(len(head)):
        if cap[e] > 0:
            u = head[e ^ 1]
            radj[head[e]].append(u)
    while stack:
        v = stack.pop()
        for u in radj[v]:
            if u not in reach_t:
                reach_t.add(u)
                stack.append(u)
    source_side = frozenset(v for v in range(n) if v not in reach_t)
    if s not in source_side or t in source_side:
        raise VerificationError("the residual cut does not separate source and sink")

    # cut value check: sum of original capacities crossing the cut
    crossing = 0
    for u, v, c in net.arcs:
        if u in source_side and v not in source_side:
            crossing += big if c is INF else c
    if crossing != flow:
        raise VerificationError(f"cut capacity {crossing} != flow value {flow}")
    return flow, CutResult(flow, source_side)


# ---------------------------------------------------------------------------
# neighborhood-ratio cuts


def _ratio_network(svars, ground, nbr, p, q):
    """s -> v capacity p for v in S, c -> t capacity q, v -> c unbounded."""
    sidx = {v: i + 1 for i, v in enumerate(svars)}
    cidx = {c: len(svars) + 1 + i for i, c in enumerate(ground)}
    t = len(svars) + len(ground) + 1
    net = FlowNetwork(t + 1, 0, t)
    for v in svars:
        net.add_arc(0, sidx[v], p)
        for c in nbr[v]:
            net.add_arc(sidx[v], cidx[c], INF)
    for c in ground:
        net.add_arc(cidx[c], t, q)
    return net, sidx, cidx


def _ratio_cut(svars, nbr, ground, p, q):
    """Maximal minimum cut of s -> v (capacity p) for v in S, v -> c
    (unbounded) for c in nbr[v] & ground, c -> t (capacity q) for c in the
    mask ground.  Only ground vertices are c-nodes, the ones with an arc to
    t: the bits of nbr[v] outside ground carry no arc.  Returns the
    S-vertices on the source side, as a list.

    Ground vertices are kept as one-bit masks.  The flow is held as the
    residual s -> v per S-vertex (rs), the residual c -> t per ground
    vertex (rt), the positive flow per arc, and two masks: fwd[v], the
    ground vertices v sends flow to, and back[c], the S-vertices sending
    flow to c (the residual back arcs c -> v).  rt and back are filled only
    where the flow goes: a ground vertex it has not reached reads as
    residual q with no back arcs.  The greedy start takes the S-vertices
    in svars order; max_gain sorts them fewer arcs first, which leaves
    fewer augmenting paths.  The maximal min-cut source side is unique, so
    the order does not change it.
    Raises VerificationError unless the cut is certified minimum: the flow
    runs on arcs only and the ground receives all of it, the cut's capacity
    equals the flow value and no unbounded arc crosses the cut.
    """
    rs = {}
    rt = {}
    back = {}
    fwd = {}
    flow = {}
    open_t = ground  # ground vertices with residual capacity to t
    open_s = 0  # S-vertices with residual capacity from s

    # greedy start along the direct paths s -> v -> c -> t
    for v in svars:
        r = p
        sent = 0
        m = nbr[v] & open_t
        while r and m:
            low = m & -m
            m ^= low
            left = rt.get(low, q)
            amt = left if left < r else r
            flow[v, low] = amt
            sent |= low
            back[low] = back.get(low, 0) | 1 << v
            rt[low] = left - amt
            if left == amt:
                open_t ^= low
            r -= amt
        rs[v] = r
        fwd[v] = sent
        if r:
            open_s |= 1 << v

    # shortest augmenting paths s -> v0 -> c0 -> v1 -> ... -> ck -> t, each
    # c(i-1) -> vi a back arc; the search runs layer by layer on masks and
    # the path is picked out of the layers afterwards
    while open_s and open_t:
        layers = []
        seen_s = front = open_s
        seen_c = hit = 0
        while front:
            reached = neighborhood_mask(nbr, front) & ground & ~seen_c
            if not reached:
                break
            seen_c |= reached
            layers.append((front, reached))
            hit = reached & open_t
            if hit:
                break
            front = 0
            m = reached
            while m:
                low = m & -m
                m ^= low
                front |= back.get(low, 0)
            front &= ~seen_s
            seen_s |= front
        if not hit:
            break
        end = c = hit & -hit
        amt = rt.get(c, q)
        path = []
        for i in range(len(layers) - 1, -1, -1):
            m = layers[i][0]
            while True:
                low = m & -m
                v = low.bit_length() - 1
                if nbr[v] & c:
                    break
                m ^= low
            path.append((v, c))
            if not i:
                if rs[v] < amt:
                    amt = rs[v]
                break
            m = layers[i - 1][1]
            while not back.get(m & -m, 0) & low:
                m &= m - 1
            c = m & -m
            if flow[v, c] < amt:
                amt = flow[v, c]
            path.append((v, c))
        rt[end] = rt.get(end, q) - amt
        if not rt[end]:
            open_t ^= end
        rs[v] -= amt
        if not rs[v]:
            open_s ^= 1 << v
        for j, (v, c) in enumerate(path):
            if j % 2:  # back arc c -> v: cancel flow on v -> c
                flow[v, c] -= amt
                if not flow[v, c]:
                    del flow[v, c]
                    fwd[v] ^= c
                    back[c] ^= 1 << v
            else:
                flow[v, c] = flow.get((v, c), 0) + amt
                fwd[v] |= c
                back[c] = back.get(c, 0) | 1 << v

    # the nodes that reach t in the residual graph: c with residual to t,
    # v with an arc into such a c, and c with a back arc to such a v
    reach_c = open_t
    rest = svars
    while True:
        kept = []
        grown = reach_c
        for v in rest:
            if nbr[v] & reach_c:
                grown |= fwd[v]
            else:
                kept.append(v)
        if len(kept) == len(rest):
            break
        rest = kept
        reach_c = grown

    # the flow runs on arcs only, and the ground receives what the
    # S-vertices send; the bounds 0 <= rs <= p and 0 <= rt <= q are not
    # checked, as scanning the residuals for them costs more than all the
    # other checks together
    for v in svars:
        if fwd[v] & ~nbr[v]:
            raise VerificationError(f"the ratio cut's flow leaves {v} on a non-arc")
    value = p * len(rs) - sum(rs.values())
    capacity = p * (len(svars) - len(rest)) + q * (ground & ~reach_c).bit_count()
    if capacity != value:
        raise VerificationError(f"ratio cut capacity {capacity} != flow value {value}")
    received = q * len(rt) - sum(rt.values())
    if received != value:
        raise VerificationError(f"the ratio cut's ground receives {received}, not {value}")
    if any(nbr[v] & reach_c for v in rest):
        raise VerificationError("an unbounded arc crosses the ratio cut")
    return rest


def max_gain(mask, nbr, covered, p, q, threshold):
    """(value, side mask) of the largest subset S of the vertex mask that
    maximizes p*|S| - q*|N(S) \\ covered|, N(S) the union of the neighbour
    masks nbr[v], if that value is above threshold; None otherwise.  S need
    not be independent, so N(S) may meet the mask; the empty set counts, so
    every negative threshold is beaten.  The general engine asks this of a
    node's candidates C, with covered = N(I) for its chosen set I, for its
    bound, and of an independent mask for each Dinkelbach step of a leaf,
    the split side and the greedy set.

    The flow runs on the bipartite double cover: the mask's vertices on
    the left and N(mask) \\ covered on the right, which _ratio_cut keeps
    apart (ints against one-bit masks) even where they overlap, with
    s -> v of capacity p and c -> t of capacity q.  The largest value is
    p*|mask| less the maximum flow (Gale's supply-demand theorem, 1957), so
    it is at most the supply that any feasible flow strands.  _ratio_cut's
    greedy start runs first, alone and on the sink residuals only, and
    stops once it has stranded more than the threshold: if it ends sooner,
    the answer is None.  Only then is the cut run, once; its maximal
    min-cut source side is the largest maximizer.
    """
    ground = neighborhood_mask(nbr, mask) & ~covered
    # both greedy fills take the S-vertices fewer arcs first, least on ties:
    # listed in increasing id, then a stable sort
    svars = []
    m = mask
    while m:
        low = m & -m
        svars.append(low.bit_length() - 1)
        m ^= low
    svars.sort(key=lambda v: (nbr[v] & ground).bit_count())
    # _ratio_cut's greedy start with only the sink residuals kept
    rt = {}
    open_t = ground
    stranded = 0
    for v in svars:
        r = p
        m = nbr[v] & open_t
        while r and m:
            low = m & -m
            m ^= low
            left = rt.get(low, q)
            if left > r:
                rt[low] = left - r
                r = 0
            else:
                r -= left
                open_t ^= low
        stranded += r
        if stranded > threshold:
            break
    if stranded <= threshold:
        return None
    side = set_to_mask(_ratio_cut(svars, nbr, ground, p, q))
    nbrs = neighborhood_mask(nbr, side) & ground
    value = p * side.bit_count() - q * nbrs.bit_count()
    return (value, side) if value > threshold else None
