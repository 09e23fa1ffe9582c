"""Fuzzing the file paths: valid and mutated `p il` files through
`capacity`, `check` and `alpha`, and valid and mutated tree-decomposition
files through `capacity --td`, in-process; and the split product engine
against running every case cold.

Every file must end in an exit code of 0-3 with no traceback; a valid file
within the oracle limits must also pass `capacity` and every check of
`check`, and a valid decomposition file must be accepted.  Every accepted
decomposition must give the brute-force a.  Hypothesis runs a fixed
number of examples from a fixed seed and keeps no example database, so
each run sees the same files.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from _helpers import split_product_reference
from indeplib import cli
from indeplib.graph import Graph
from indeplib.io import format_graph
from indeplib.oracles import a_bruteforce
from indeplib.product_alpha import alpha_product_split
from indeplib.splitgraph import split_partition

HUGE = st.sampled_from([10**6 + 1, 2**31, 2**63, 10**20])


@st.composite
def graph_files(draw):
    """(file text, valid) for a small graph file, perhaps mutated."""
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = sorted({(min(e), max(e)) for e in draw(st.lists(pairs, max_size=14)) if e[0] != e[1]})
    header = ["p", "il", str(n), str(len(edges))]
    lines = [f"e {u} {v}" for u, v in edges]
    mutation = draw(
        st.sampled_from(
            [
                "none",
                "duplicate",
                "huge-id",
                "huge-count",
                "out-of-range",
                "truncate",
                "edge-count",
                "token",
            ]
        )
    )
    if mutation == "duplicate" and lines:
        lines.append(draw(st.sampled_from(lines)))
        header[3] = str(len(lines))
    elif mutation == "huge-id":
        lines.append(f"e 0 {draw(HUGE)}")
        header[3] = str(len(lines))
    elif mutation == "huge-count":
        header[draw(st.sampled_from([2, 3]))] = str(draw(HUGE))
    elif mutation == "out-of-range":
        lines.append(f"e {draw(st.integers(-3, -1))} {n}")
        header[3] = str(len(lines))
    elif mutation == "edge-count":
        header[3] = str(len(lines) + draw(st.sampled_from([-1, 1])))
    elif mutation == "token":
        # one token of the header or of an edge line becomes arbitrary text
        row = draw(st.integers(0, len(lines)))
        tokens = header if row == 0 else lines[row - 1].split()
        junk = st.text("0123456789-+_.xeilp \u0663", max_size=5)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
        if row:
            lines[row - 1] = " ".join(tokens)
    text = "\n".join([" ".join(header)] + lines) + "\n"
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return text, mutation == "none" or (mutation == "duplicate" and not lines)


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@seed(20260)
@settings(max_examples=120, deadline=None, database=None)
@given(case=graph_files())
def test_graph_files_end_in_an_exit_code(workdir, monkeypatch_module, case):
    text, valid = case
    path = workdir / "g.g"
    path.write_text(text)
    for argv in (("capacity", str(path)), ("check", str(path)), ("alpha", str(path), str(path))):
        code, out, err = run(*argv)
        assert code in (0, 1, 2, 3), (argv, text, code)
        assert "Traceback" not in out + err, (argv, text)
        if valid and argv[0] != "alpha":
            assert code == 0 and "FAIL" not in out, (argv, text, out, err)
        if code:
            assert err.startswith("error: "), (argv, text, err)


@st.composite
def td_files(draw):
    """(graph, decomposition file text, valid) for a graph of at most 8
    vertices: the bags of a random elimination order, perhaps mutated."""
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    g = Graph(n, {(min(e), max(e)) for e in draw(st.lists(pairs, max_size=14)) if e[0] != e[1]})
    # eliminating v makes its later neighbours a clique; its bag holds them
    order = draw(st.permutations(range(n)))
    rank = {v: i for i, v in enumerate(order)}
    nbrs = [{u for u in range(n) if g.adj[v] >> u & 1} for v in range(n)]
    bags = []
    for v in order:
        later = {u for u in nbrs[v] if rank[u] > rank[v]}
        for u in later:
            nbrs[u] |= later - {u}
        bags.append({v} | later)
    # bag i hangs from the bag of its earliest later vertex, else the last
    edges = [
        (i, min((rank[u] for u in bags[i] if rank[u] > i), default=n - 1)) for i in range(n - 1)
    ]
    width = max(map(len, bags))
    header = ["s", "td", str(n), str(width), str(n)]
    mutation = draw(
        st.sampled_from(
            [
                "none",
                "drop-vertex",
                "drop-edge",
                "extra-edge",
                "bag-range",
                "narrow",
                "vertex-count",
                "huge",
                "truncate",
                "token",
            ]
        )
    )
    if mutation == "drop-vertex":
        bag = bags[draw(st.integers(0, n - 1))]
        bag.discard(draw(st.sampled_from(sorted(bag))))
    elif mutation == "drop-edge" and edges:
        edges.pop(draw(st.integers(0, len(edges) - 1)))
    elif mutation == "extra-edge":
        edges.append((draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))))
    elif mutation == "bag-range":
        bags[draw(st.integers(0, n - 1))].add(draw(st.sampled_from([-1, n, n + 5])))
    elif mutation == "narrow":
        header[3] = str(width - 1)
    elif mutation == "vertex-count":
        header[4] = str(n + draw(st.sampled_from([-1, 1])))
    elif mutation == "huge":
        header[draw(st.sampled_from([2, 3, 4]))] = str(draw(HUGE))
    lines = [" ".join(header)]
    lines += [" ".join(map(str, ["b", i + 1, *sorted(bag)])) for i, bag in enumerate(bags)]
    lines += [f"{a + 1} {b + 1}" for a, b in edges]
    if mutation == "token":
        # one token of the file becomes arbitrary text
        row = draw(st.integers(0, len(lines) - 1))
        tokens = lines[row].split()
        junk = st.text("0123456789-+_.xbstd \u0663", max_size=5)
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(junk)
        lines[row] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    if mutation == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return g, text, mutation == "none" or (mutation == "drop-edge" and n == 1)


@seed(20262)
@settings(max_examples=100, deadline=None, database=None)
@given(case=td_files())
def test_td_files_end_in_an_exit_code(workdir, case):
    g, text, valid = case
    gpath, tdpath = workdir / "t.g", workdir / "t.td"
    gpath.write_text(format_graph(g))
    tdpath.write_text(text)
    code, out, err = run("--json", "capacity", "--td", str(tdpath), str(gpath))
    assert code in (0, 1, 2, 3), (text, code)
    assert "Traceback" not in out + err, text
    if code:
        assert err.startswith("error: "), (text, err)
    if valid:
        assert code == 0, (text, err)
    if code == 0:
        # a mutated file that still describes a decomposition answers too
        assert Fraction(json.loads(out)["a"]) == a_bruteforce(g)[0], (g.adj, text)


@pytest.fixture(scope="module")
def monkeypatch_module():
    # the oracle limit comes from the environment; fix it at the default
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("IL_ORACLE_LIMIT", raising=False)
        yield mp


@st.composite
def split_graphs(draw):
    """A split graph of at most 10 vertices: a clique on a drawn number of
    them, any edges from it to the rest, vertices in a drawn order."""
    n = draw(st.integers(1, 10))
    c = draw(st.integers(0, n))
    order = draw(st.permutations(range(n)))
    edges = [(u, v) for u in range(c) for v in range(u + 1, c)]
    cross = [(u, v) for u in range(c) for v in range(c, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(cross), max_size=len(cross)))
    edges += [e for e, k in zip(cross, keep) if k]
    return Graph(n, [(order[u], order[v]) for u, v in edges])


@seed(20261)
@settings(max_examples=80, deadline=None, database=None)
@given(g=split_graphs(), h=split_graphs())
def test_split_product_matches_cold_reference(g, h):
    p1, p2 = split_partition(g), split_partition(h)
    assert alpha_product_split(g, p1, h, p2) == split_product_reference(g, p1, h, p2)[:2]
