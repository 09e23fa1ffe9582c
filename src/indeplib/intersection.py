"""Interval and permutation models and their intersection graphs."""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .errors import InvalidModel
from .graph import Graph


class IntervalModel(NamedTuple("IntervalModel", [("intervals", tuple)])):
    """Closed intervals with integer endpoints; vertex i = intervals[i].
    Sharing an endpoint counts as intersecting.  Construction, _make and
    _replace all check the intervals, and a reversed one's error carries
    its index as value.  Ends must be integers (operator.index): int()
    would truncate 1.9 and parse "2"."""

    __slots__ = ()

    def __new__(cls, intervals):
        try:
            ivs = tuple((index(l), index(r)) for l, r in intervals)
        except TypeError as exc:
            raise InvalidModel(f"interval ends must be integers: {exc}") from None
        for i, (l, r) in enumerate(ivs):
            if l > r:
                raise InvalidModel(f"interval {i} has left {l} > right {r}", value=i)
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
    _replace all check the permutation, whose values must be integers."""

    __slots__ = ()

    def __new__(cls, perm):
        try:
            p = tuple(map(index, perm))
        except TypeError as exc:
            raise InvalidModel(f"permutation values must be integers: {exc}") from None
        seen = set()
        for x in p:
            if x in seen or not 0 <= x < len(p):
                why = "repeats" if x in seen else "is out of range"
                raise InvalidModel(f"not a permutation of 0..{len(p) - 1}: {x} {why}", value=x)
            seen.add(x)
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def n(self):
        return len(self.perm)


def realize_permutation(model: PermutationModel) -> Graph:
    p = model.perm
    edges = [
        (i, j) for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    ]
    return Graph(len(p), edges)
