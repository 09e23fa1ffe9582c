"""Text formats for graphs and structured models.

Edge list: header "p il <n> <m>", then m lines "e <u> <v>" (0-indexed);
"#" starts a comment; n above config.DEFAULT_POWER_LIMIT is refused before
anything is allocated.  Interval model: one "<id> <left> <right>" line per
vertex.  Permutation model: "<n>" then n integers, values 1..n.  Tree
decomposition (PACE-style): "s td <#bags> <width+1> <n>", bag lines
"b <i> <v...>" with 1-based bag ids, one line per bag, then one "<i> <j>"
line per tree edge; vertex ids stay 0-indexed to match the edge-list
format.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .config import DEFAULT_POWER_LIMIT
from .errors import InvalidModel, LimitExceeded, ParseError
from .graph import Graph

if TYPE_CHECKING:
    from .cotree import Cotree
    from .intersection import IntervalModel, PermutationModel


def _content_lines(text):
    """(line number, stripped content) for non-blank, non-comment lines."""
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((ln, line))
    return out


def _ints(parts, ln):
    try:
        return [int(p) for p in parts]
    except ValueError:
        pass
    for p in parts:  # name the first token that is not an integer
        try:
            int(p)
        except ValueError:
            raise ParseError(f"expected integers, got {p!r}", line=ln) from None


def parse_graph(text: str) -> Graph:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty graph file")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "il":
        raise ParseError(f"expected header 'p il <n> <m>', got {header!r}", line=ln)
    n, m = _ints(parts[2:], ln)
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", line=ln)
    if n > DEFAULT_POWER_LIMIT:
        raise LimitExceeded(
            f"graph file declares {n} vertices, limit is {DEFAULT_POWER_LIMIT}", required=n
        )
    edges = []
    for ln, line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            raise ParseError(f"expected edge line 'e <u> <v>', got {line!r}", line=ln)
        u, v = _ints(parts[1:], ln)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"edge ({u},{v}) out of range for n={n}", line=ln)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line=ln)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promises {m} edges, file has {len(edges)}")
    return Graph(n, edges)


def format_graph(g: Graph) -> str:
    edges = sorted(g.edges())
    lines = [f"p il {g.n} {len(edges)}"]
    lines.extend(f"e {u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_interval_model(text: str) -> IntervalModel:
    from .intersection import IntervalModel

    rows = {}
    for ln, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<id> <left> <right>', got {line!r}", line=ln)
        vid, left, right = _ints(parts, ln)
        if vid in rows:
            raise ParseError(f"duplicate interval id {vid}", line=ln)
        rows[vid] = (ln, left, right)
    if not rows:
        raise ParseError("empty interval file")
    # the ids are distinct, so they are 0..k-1 unless one lies outside
    k = len(rows)
    for vid, (ln, _, _) in rows.items():
        if not 0 <= vid < k:
            raise ParseError(f"interval ids must be 0..{k - 1}, got {vid}", line=ln)
    # the model checks the ends once; its error is restated with the
    # line of the interval it names
    try:
        return IntervalModel(tuple(rows[i][1:] for i in range(k)))
    except InvalidModel as exc:
        raise ParseError(str(exc), line=rows[exc.value][0]) from None


def parse_permutation_model(text: str) -> PermutationModel:
    from .intersection import PermutationModel

    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty permutation file")
    ln, first = lines[0]
    header = _ints(first.split(), ln)
    if len(header) != 1:
        raise ParseError(f"expected one vertex count '<n>', got {len(header)} values", line=ln)
    n = header[0]
    values = []
    for ln, line in lines[1:]:
        values.extend(_ints(line.split(), ln))
    if len(values) != n:
        raise ParseError(f"expected {n} permutation values, got {len(values)}")
    # the model checks the values once, 0-based; its error is restated
    # 1-based, as the file gives them
    try:
        return PermutationModel(tuple(v - 1 for v in values))
    except InvalidModel as exc:
        v = exc.value + 1
        why = "is out of range" if not 1 <= v <= n else "repeats"
        raise ParseError(f"values must be a permutation of 1..{n}: {v} {why}") from None


def parse_tree_decomposition(text: str):
    """Returns (bags, tree_edges, n) with 0-based bag indices."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty tree decomposition file")
    ln, header = lines[0]
    parts = header.split()
    if len(parts) != 5 or parts[0] != "s" or parts[1] != "td":
        raise ParseError(f"expected header 's td <#bags> <width+1> <n>', got {header!r}", line=ln)
    nbags, wplus, n = _ints(parts[2:], ln)
    if nbags > len(lines) - 1:
        raise ParseError(f"header declares {nbags} bags, {len(lines) - 1} lines follow", line=ln)
    bags = [None] * nbags
    tree_edges = []
    for ln, line in lines[1:]:
        parts = line.split()
        if parts[0] == "b":
            vals = _ints(parts[1:], ln)
            if not vals:
                raise ParseError("bag line without an id", line=ln)
            bid, verts = vals[0], vals[1:]
            if not 1 <= bid <= nbags:
                raise ParseError(f"bag id {bid} out of range 1..{nbags}", line=ln)
            if bags[bid - 1] is not None:
                raise ParseError(f"duplicate bag id {bid}", line=ln)
            if any(not 0 <= v < n for v in verts):
                raise ParseError(f"bag {bid} has a vertex outside 0..{n - 1}", line=ln)
            if len(verts) > wplus:
                raise ParseError(f"bag {bid} exceeds the declared width", line=ln)
            bags[bid - 1] = set(verts)
        else:
            if len(parts) != 2:
                raise ParseError(f"expected tree edge '<i> <j>', got {line!r}", line=ln)
            a, b = _ints(parts, ln)
            if not (1 <= a <= nbags and 1 <= b <= nbags):
                raise ParseError(f"tree edge ({a},{b}) out of range", line=ln)
            tree_edges.append((a - 1, b - 1))
    if None in bags:
        raise ParseError(f"missing the bag line for id {bags.index(None) + 1}")
    return bags, tree_edges, n


def parse_cotree_file(text: str) -> Cotree:
    from .cotree import parse_cotree

    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty cotree file")
    return parse_cotree(" ".join(line for _, line in lines))


def read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
