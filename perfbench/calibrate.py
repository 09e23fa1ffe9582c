"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared virtual machines whose speed drifts: the same
pure-Python work can take twice as long from one second to the next, and
25-40% longer for minutes at a time, which no amount of work in a run
averages out.  So each timed item (and each set-up) is followed by a few
runs of a fixed calibration step -- interpreter work of the kinds the
library does (bitset scans, list-based breadth-first search, dict updates,
Fraction arithmetic), none of it from the library -- and each wall time is
scaled by how long the step took around it:

    reference time = wall time * REF_STEP_S / (mean step time nearby)

A reference time is the wall time the item would have taken on a machine
that runs the step in exactly REF_STEP_S.  A change to the library moves
reference times as it moves wall times; a change in the machine's speed
moves the item and the step together and cancels out.  The step and
REF_STEP_S are part of the benchmark's definition: changing either changes
every reference time, so runs from before and after such a change are not
comparable.
"""

import time
from fractions import Fraction

# mean time of one step on the 2-vCPU Xeon VM the benchmark was written on
REF_STEP_S = 0.0025
# calibration time after each item, as a share of the item's wall time
SHARE = 0.1
# a timing is scaled by the steps within this many items (or set-ups) of it
WINDOW = 10

# a fixed pseudo-random graph on 64 vertices, as bitsets and as lists
_N = 64


def _graph():
    adj = [0] * _N
    x = 12345
    for u in range(_N):
        for v in range(u + 1, _N):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 7 == 0:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj, [[v for v in range(_N) if adj[u] >> v & 1] for u in range(_N)]


_ADJ, _LISTS = _graph()
_ALL = (1 << _N) - 1


def step():
    """A fixed amount of interpreter work: from every vertex a greedy
    independent set by bitset scan and a breadth-first search, then a sum
    of fractions."""
    total = 0
    for s in range(_N):
        chosen = 1 << s
        cand = _ALL & ~chosen & ~_ADJ[s]
        while cand:
            low = cand & -cand
            chosen |= low
            cand &= ~(low | _ADJ[low.bit_length() - 1])
        total += bin(chosen).count("1")
        dist = {s: 0}
        queue = [s]
        for u in queue:
            for w in _LISTS[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += len(queue)
    r = Fraction(0)
    for k in range(1, 40):
        r += Fraction(k, k + 3)
    return total + r.numerator % 7


def sample(seconds):
    """Run steps for at least ``seconds`` (at least one step); returns
    (steps, wall seconds)."""
    steps = 0
    t0 = time.perf_counter()
    elapsed = 0.0
    while steps == 0 or elapsed < seconds:
        step()
        steps += 1
        elapsed = time.perf_counter() - t0
    return steps, elapsed


def reference_times(times, samples):
    """Scale ``times[i]`` by the speed of the steps in ``samples`` within
    WINDOW places of ``i`` (``samples[i]`` was taken right after
    ``times[i]``)."""
    out = []
    for i, t in enumerate(times):
        near = samples[max(0, i - WINDOW) : i + WINDOW + 1]
        steps = sum(s for s, _ in near)
        seconds = sum(x for _, x in near)
        out.append(t * REF_STEP_S * steps / seconds)
    return out


def step_seconds(samples):
    """Mean wall time of one step over ``samples``."""
    return sum(x for _, x in samples) / sum(s for s, _ in samples)
