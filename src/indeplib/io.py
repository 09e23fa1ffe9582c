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

from .config import DEFAULT_POWER_LIMIT
from .cotree import Cotree, parse_cotree
from .errors import LimitExceeded, ParseError
from .graph import Graph
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
        raise ParseError(f"expected integers, got {parts!r}", line=ln) from None


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
    rows = {}
    for ln, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected '<id> <left> <right>', got {line!r}", line=ln)
        vid, left, right = _ints(parts, ln)
        if vid in rows:
            raise ParseError(f"duplicate interval id {vid}", line=ln)
        if left > right:
            raise ParseError(f"interval {vid} has left {left} > right {right}", line=ln)
        rows[vid] = (left, right)
    if not rows:
        raise ParseError("empty interval file")
    if sorted(rows) != list(range(len(rows))):
        raise ParseError(f"interval ids must be 0..{len(rows) - 1}, got {sorted(rows)}")
    return IntervalModel(tuple(rows[i] for i in range(len(rows))))


def parse_permutation_model(text: str) -> PermutationModel:
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty permutation file")
    ln, first = lines[0]
    (n,) = _ints(first.split(), ln)
    values = []
    for ln, line in lines[1:]:
        values.extend(_ints(line.split(), ln))
    if len(values) != n:
        raise ParseError(f"expected {n} permutation values, got {len(values)}")
    if sorted(values) != list(range(1, n + 1)):
        raise ParseError(f"values must be a permutation of 1..{n}, got {values}")
    return PermutationModel(tuple(v - 1 for v in values))


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
    missing = [i + 1 for i, b in enumerate(bags) if b is None]
    if missing:
        raise ParseError(f"missing bag lines for ids {missing}")
    return bags, tree_edges, n


def parse_cotree_file(text: str) -> Cotree:
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
