"""Interval and permutation models and their intersection graphs."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvalidModel
from .graph import Graph


class IntervalModel(NamedTuple("IntervalModel", [("intervals", tuple)])):
    """Closed intervals with integer endpoints; vertex i = intervals[i].
    Sharing an endpoint counts as intersecting.  Construction, _make and
    _replace all check the intervals."""

    __slots__ = ()

    def __new__(cls, intervals):
        ivs = tuple((int(l), int(r)) for l, r in intervals)
        for i, (l, r) in enumerate(ivs):
            if l > r:
                raise InvalidModel(f"interval {i} has left {l} > right {r}")
        return super().__new__(cls, ivs)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n(self):
        return len(self.intervals)


def realize_interval(model: IntervalModel) -> Graph:
    ivs = model.intervals
    edges = [
        (i, j)
        for i in range(len(ivs))
        for j in range(i + 1, len(ivs))
        if ivs[i][0] <= ivs[j][1] and ivs[j][0] <= ivs[i][1]
    ]
    return Graph(len(ivs), edges)


class PermutationModel(NamedTuple("PermutationModel", [("perm", tuple)])):
    """Vertex i is the segment from position i on the top line to position
    perm[i] on the bottom line (0-based internally); i ~ j iff the segments
    cross: (i - j) * (perm[i] - perm[j]) < 0.  Construction, _make and
    _replace all check the permutation."""

    __slots__ = ()

    def __new__(cls, perm):
        p = tuple(int(x) for x in perm)
        if sorted(p) != list(range(len(p))):
            raise InvalidModel(f"not a permutation of 0..{len(p) - 1}: {p}")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n(self):
        return len(self.perm)

    def left_of(self, y, x):
        """y lies to the left of x: disjoint, non-crossing, both endpoints
        smaller.  This is the chain order used by the capacity DP."""
        return y < x and self.perm[y] < self.perm[x]


def realize_permutation(model: PermutationModel) -> Graph:
    p = model.perm
    edges = [
        (i, j) for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    ]
    return Graph(len(p), edges)
