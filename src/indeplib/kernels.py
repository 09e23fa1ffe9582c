"""Bitset kernels: branch-and-bound maximum independent set, maximal
independent set enumeration and Hopcroft-Karp bipartite matching.

Adjacency is a list of int masks (bit v of adj[u] set iff u~v), so any
graph size works, and each kernel takes the vertex masks it works on, so
a component or side of a graph needs no copy.  These are the hot inner
loops of the library.  Everything here is deterministic: given the same
adjacency, the same sets come out in the same order.
"""

from .graph import mask_to_set, neighborhood_mask

# Read by the benchmark to label its records; these kernels are the only ones.
HAVE_COMPILED = False


def max_independent_set(adj, mask):
    """Exact maximum independent set of the subgraph induced on the vertex
    mask: (size, vertex mask).

    Branch and bound on an explicit stack, so the depth of the search is
    not bounded by the interpreter's recursion limit.  Each node makes one
    pass over its candidate set p, in increasing id: a vertex of degree 0
    in G[p] is taken and the pass goes on; the first vertex of degree 1 is
    taken, its neighbour dropped, and the pass starts again; if no vertex
    of degree 1 is met, the pass has also found the lowest-id vertex of
    maximum degree.  A greedy clique cover of p bounds the node, which is
    dropped when it cannot beat the best set so far, and otherwise branches
    on that vertex: the in-branch (take it) is searched first, the
    out-branch waits on the stack.  The witness is the first optimum found
    under this fixed order, so it is reproducible, and it depends on the
    ids only through their order: the subgraph built on sorted(mask) gives
    the same witness, relabelled.
    """
    best_size = 0
    best_mask = 0
    stack = []  # out-branches (p, cur_mask, cur_size), searched last-in first
    p, cur_mask, cur_size = mask, 0, 0
    while True:
        while True:
            top = 1  # largest degree seen, and the lowest vertex bit with it
            branch = 0
            w = p
            while w:
                low = w & -w
                w ^= low
                nbrs = adj[low.bit_length() - 1] & p
                d = nbrs.bit_count()
                if d > 1:
                    if d > top:
                        top = d
                        branch = low
                elif d:
                    p &= ~(nbrs | low)
                    cur_mask |= low
                    cur_size += 1
                    break
                else:
                    p ^= low
                    cur_mask |= low
                    cur_size += 1
            else:
                break
        if p:
            # greedy clique cover of p, stopped once it cannot prune
            bound = cur_size
            rest = p
            while rest:
                low = rest & -rest
                rest ^= low
                cand = rest & adj[low.bit_length() - 1]
                while cand:
                    low = cand & -cand
                    rest ^= low
                    cand ^= low
                    cand &= adj[low.bit_length() - 1]
                bound += 1
                if bound > best_size:
                    break
            if bound > best_size:
                stack.append((p ^ branch, cur_mask, cur_size))
                p &= ~adj[branch.bit_length() - 1]
                p ^= branch
                cur_mask |= branch
                cur_size += 1
                continue
        elif cur_size > best_size:
            best_size = cur_size
            best_mask = cur_mask
        if not stack:
            return best_size, best_mask
        p, cur_mask, cur_size = stack.pop()


def maximal_independent_sets(adj, mask):
    """Yields every maximal independent set of the subgraph induced on the
    vertex mask exactly once, as masks.

    Pivoting Bron-Kerbosch on the complement (maximal independent sets of G
    are the maximal cliques of its complement).  Pivot: vertex of P∪X with
    the most non-neighbors in P, lowest id on ties; candidates are visited
    in increasing id, so the stream order is deterministic, and the
    subgraph built on sorted(mask) yields the same sets, relabelled, in the
    same order.
    """
    comp = {v: mask & ~adj[v] & ~(1 << v) for v in mask_to_set(mask)}

    # frame: [r, p, x, branch-candidates]
    stack = [[0, mask, 0, None]]
    while stack:
        frame = stack[-1]
        r, p, x, cand = frame
        if cand is None:
            if not p and not x:
                yield r
                stack.pop()
                continue
            pivot = -1
            pivot_deg = -1
            w = p | x
            while w:
                low = w & -w
                w ^= low
                u = low.bit_length() - 1
                d = (comp[u] & p).bit_count()
                if d > pivot_deg:
                    pivot_deg = d
                    pivot = u
            cand = p & ~comp[pivot]
            frame[3] = cand
        if not cand:
            stack.pop()
            continue
        bit = cand & -cand
        far = comp[bit.bit_length() - 1]
        frame[1] = p ^ bit
        frame[2] = x | bit
        frame[3] = cand ^ bit
        stack.append([r | bit, p & far, x & far, None])


def bipartite_matching(adj, left, right, warm=None):
    """Maximum matching of the bipartite graph between the vertex masks
    left and right (Hopcroft-Karp, iterative, on masks).

    adj[u] is a mask over right ids for left vertex u; left and right
    restrict the graph to a sub-instance without rebuilding it.  Returns
    the state (mate_left, mate_right, matched_left, matched_right): dicts
    left -> right and right -> left of the pairs, and the masks of the
    matched vertices on each side; the size is len(mate_right).

    warm is the state of an earlier call on the same adj.  Its pairs with a
    vertex outside the new masks are dropped and the rest are kept, so
    every free-vertex test is a mask operation and no pass runs over all
    vertex ids.  A greedy pass then matches free left vertices to free
    right neighbours, and each phase augments along a maximal set of
    vertex-disjoint shortest augmenting paths, found by one layered
    breadth-first search and one depth-first walk per free left vertex on
    an explicit stack; the phases stop when no augmenting path is left.
    """
    if warm is None:
        mate_l, mate_r, ml, mr = {}, {}, 0, 0
    else:
        mate_l, mate_r, ml, mr = warm
        mate_l, mate_r = dict(mate_l), dict(mate_r)
        gone = ml & ~left
        while gone:
            low = gone & -gone
            gone ^= low
            j = mate_l.pop(low.bit_length() - 1)
            del mate_r[j]
            mr ^= 1 << j
        ml &= left
        gone = mr & ~right
        while gone:
            low = gone & -gone
            gone ^= low
            u = mate_r.pop(low.bit_length() - 1)
            del mate_l[u]
            ml ^= 1 << u
        mr &= right

    # greedy start: each free left vertex takes its lowest free neighbour
    open_r = right & ~mr
    free = left & ~ml
    while free and open_r:
        low = free & -free
        free ^= low
        u = low.bit_length() - 1
        cand = adj[u] & open_r
        if cand:
            bit = cand & -cand
            j = bit.bit_length() - 1
            mate_l[u] = j
            mate_r[j] = u
            ml |= low
            mr |= bit
            open_r ^= bit

    while True:
        free = left & ~ml
        open_r = right & ~mr
        if not (free and open_r):
            break
        # layered search from the free left vertices; layers[k] holds the
        # right vertices at distance 2k+1, the last layer only free ones
        layers = []
        seen = 0
        front = free
        while front:
            reach = neighborhood_mask(adj, front) & right & ~seen
            if not reach:
                break
            if reach & open_r:
                layers.append(reach & open_r)
                break
            layers.append(reach)
            seen |= reach
            front = 0
            while reach:
                low = reach & -reach
                reach ^= low
                front |= 1 << mate_r[low.bit_length() - 1]
        if not layers or not layers[-1] & open_r:
            break
        last = len(layers) - 1
        avail = seen | layers[-1]
        # vertex-disjoint shortest augmenting paths: a right vertex is
        # tried at most once per phase, whether its path succeeds or not
        while free:
            low = free & -free
            free ^= low
            path_l = [low.bit_length() - 1]
            path_r = []
            while path_l:
                k = len(path_r)
                cand = adj[path_l[-1]] & layers[k] & avail
                if not cand:
                    path_l.pop()
                    if path_r:
                        path_r.pop()
                    continue
                bit = cand & -cand
                avail ^= bit
                j = bit.bit_length() - 1
                path_r.append(j)
                if k == last:
                    for u, j in zip(path_l, path_r):
                        mate_l[u] = j
                        mate_r[j] = u
                    ml |= low
                    mr |= bit
                    break
                path_l.append(mate_r[j])
    return mate_l, mate_r, ml, mr
