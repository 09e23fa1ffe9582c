"""CLI behavior: output formats, JSON lines, exit codes."""

import json
import os
import random
import subprocess
import sys
import textwrap
import time

import pytest

import indeplib
from _helpers import disjoint_union, is_cograph, is_splitgraph, random_graph, threshold_cotree_text
from indeplib import capacity, cli, cotree, graph, splitgraph
from indeplib.capacity import a_split
from indeplib.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, EXIT_VIOLATION, main
from indeplib.config import DEFAULT_POWER_LIMIT, DOMINATION_KMAX_LIMIT
from indeplib.cotree import parse_cotree, realize
from indeplib.errors import VerificationError
from indeplib.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from indeplib.io import format_graph, parse_graph
from indeplib.ratio import ratio_str
from indeplib.splitgraph import SplitPartition


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return {
        "p3": write("p3.g", format_graph(path_graph(3))),
        "p4": write("p4.g", format_graph(path_graph(4))),
        "c5": write("c5.g", format_graph(cycle_graph(5))),
        "k3": write("k3.g", "p il 3 3\ne 0 1\ne 0 2\ne 1 2\n"),
        "star": write("star.g", format_graph(star_graph(3))),
        "bad": write("bad.g", "p il 2 1\ne 0 9\n"),
        "cotree": write("p3.ct", "(* (+ 0 1) 2)\n"),
        "ivs": write("p4.iv", "0 0 1\n1 1 2\n2 2 3\n3 3 4\n"),
        "perm": write("rev.pm", "4\n4 3 2 1\n"),
        "td": write("p4.td", "s td 3 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n1 2\n2 3\n"),
    }


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# product


def test_product(capsys, files):
    code, out, _ = run(capsys, "product", files["p3"], files["p3"])
    assert code == EXIT_OK
    g = parse_graph(out)
    assert g.n == 9 and g.edge_count() > 0


def test_product_power(capsys, files):
    code, out, _ = run(capsys, "product", "--power", "2", files["c5"])
    assert code == EXIT_OK and parse_graph(out).n == 25


def test_product_errors(capsys, files):
    code, _, err = run(capsys, "product", files["bad"], files["p3"])
    assert code == EXIT_INPUT and "error" in err
    code, _, err = run(capsys, "product", "--power", "2", files["p3"], files["p3"])
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# alpha


def test_product_power_checks_the_ceiling_before_the_power(capsys, files, monkeypatch, tmp_path):
    # |V|^k is compared with the ceiling one partial power at a time, so a
    # huge k neither formats a 477,000-digit count (exit 2) nor runs for
    # minutes; K1 is its own power, with no product built
    for k in (10**6, 10**8):
        start = time.perf_counter()
        code, _, err = run(capsys, "product", "--power", str(k), files["p3"])
        assert code == EXIT_LIMIT and time.perf_counter() - start < 1, (k, err)

    def refuse(*_):
        raise AssertionError("K1 needs no product")

    monkeypatch.setattr(graph, "categorical_product", refuse)
    k1 = tmp_path / "k1.g"
    k1.write_text(format_graph(Graph(1)))
    code, out, _ = run(capsys, "product", "--power", str(10**9), str(k1))
    assert code == EXIT_OK and parse_graph(out) == Graph(1)

def test_alpha_cograph_pair(capsys, files):
    code, out, _ = run(capsys, "alpha", files["p3"], files["p3"])
    assert code == EXIT_OK and out.strip() == "alpha=6 engine=cograph"
    code, out, _ = run(capsys, "alpha", files["k3"], files["k3"])
    assert code == EXIT_OK and out.startswith("alpha=3 ")


def test_alpha_oracle_and_witness(capsys, files):
    code, out, _ = run(capsys, "alpha", "--oracle", "--witness", files["p3"], files["p3"])
    assert code == EXIT_OK and "engine=oracle" in out and "witness=" in out
    wit = out.split("witness=")[1].split()[0].split(",")
    assert len(wit) == 6


def test_alpha_split_fallback(capsys, files):
    # P4 is not a cograph but is split: auto-dispatch lands on the split engine
    code, out, _ = run(capsys, "alpha", files["p4"], files["p4"])
    assert code == EXIT_OK and "engine=split" in out
    # C5 is neither: falls through to the oracle
    code, out, _ = run(capsys, "alpha", files["c5"], files["c5"])
    assert code == EXIT_OK and "engine=oracle" in out


def test_alpha_checks_the_cograph_witness(capsys, files, monkeypatch):
    # P3 x P3 ids are 3a + b; (0,0) ~ (1,1) is the pair 0, 4
    for answer in ((2, {0, 4}), (3, {0, 2}), (2, [0, 0])):
        monkeypatch.setattr(cli, "alpha_product_cographs", lambda tg, th, answer=answer: answer)
        code, out, err = run(capsys, "alpha", files["p3"], files["p3"])
        assert code == EXIT_VIOLATION and out == "" and "Traceback" not in err
        assert err.startswith("error: verification failed: cograph witness"), err


def test_alpha_checks_the_oracle_witness(capsys, files, monkeypatch):
    # C5 x C5 is one pair of components, so local ids are global: (0,0) ~ (1,1)
    monkeypatch.setattr(cli, "alpha_exact", lambda g, limit=None: (2, {0, 6}))
    code, out, err = run(capsys, "alpha", "--witness", files["c5"], files["c5"])
    assert code == EXIT_VIOLATION and out == ""
    assert err.startswith("error: verification failed: oracle witness"), err


def test_alpha_witness_check_survives_optimize(files):
    # an oracle witness with an adjacent pair must still exit 1 under python -O
    code = textwrap.dedent(
        """
        import sys
        from indeplib import cli

        if not sys.flags.optimize:
            sys.exit("not running under -O")
        cli.alpha_exact = lambda g, limit=None: (2, {0, 6})
        sys.exit(cli.main(["alpha", "--oracle", sys.argv[1], sys.argv[1]]))
        """
    )
    src = os.path.dirname(os.path.dirname(indeplib.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code, files["c5"]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == EXIT_VIOLATION, proc.stderr
    assert proc.stderr.startswith("error: verification failed: oracle witness"), proc.stderr


def test_alpha_forced_cotree_rejects_p4(capsys, files):
    code, _, err = run(capsys, "alpha", "--cotree", files["p4"], files["p4"])
    assert code == EXIT_INPUT and "error" in err


def test_alpha_deep_threshold_cograph(capsys, tmp_path):
    # a 1200-vertex threshold graph is recognized as a cograph 1199 deep
    (tmp_path / "t.g").write_text(format_graph(realize(parse_cotree(threshold_cotree_text(1200)))))
    (tmp_path / "k2.g").write_text(format_graph(complete_graph(2)))
    code, out, err = run(capsys, "alpha", str(tmp_path / "t.g"), str(tmp_path / "k2.g"))
    assert code == EXIT_OK, err
    assert out.startswith("alpha=1200 ") and "engine=cograph" in out


def test_alpha_oracle_limit_checked_before_product(capsys, tmp_path, monkeypatch):
    # neither factor is a cograph or split; the 10,000-vertex product is
    # refused before it is built
    def refuse(g, h):
        raise AssertionError("product built past the oracle limit")

    monkeypatch.setattr(cli, "categorical_product", refuse)
    rng = random.Random(2)
    for name in ("a.g", "b.g"):
        (tmp_path / name).write_text(format_graph(random_graph(100, 0.5, rng)))
    code, out, err = run(capsys, "alpha", str(tmp_path / "a.g"), str(tmp_path / "b.g"))
    assert code == EXIT_LIMIT and out == ""
    assert err == "error: alpha_exact limited to 40 vertices, got 10000\n"


def test_alpha_oracle_limit_is_per_component(capsys, tmp_path, monkeypatch):
    # (C5 + 40 isolated vertices) x C5 has 225 vertices, but a component of
    # a product lies inside the product of a component of each factor, so
    # its largest component has 25: alpha(C5 x C5) = 10, plus 200 isolated
    c5 = tmp_path / "c5.g"
    c5.write_text(format_graph(cycle_graph(5)))
    padded = tmp_path / "c5_40.g"
    padded.write_text(format_graph(disjoint_union(cycle_graph(5), Graph(40))))
    code, out, err = run(capsys, "alpha", "--witness", str(padded), str(c5))
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("alpha=210 engine=oracle witness=")

    def refuse(g, h):
        raise AssertionError("product built past a limit")

    monkeypatch.setattr(cli, "categorical_product", refuse)
    # C9 x C5: largest components 9 and 5 multiply past the oracle limit
    c9 = tmp_path / "c9.g"
    c9.write_text(format_graph(disjoint_union(cycle_graph(9), Graph(3))))
    code, out, err = run(capsys, "alpha", str(c9), str(c5))
    assert (code, out) == (EXIT_LIMIT, "")
    assert err == "error: alpha_exact limited to 40 vertices, got 45\n"
    # 2000 x 501 vertices pass the vertex ceiling, though every component
    # of the product has at most 25
    big = tmp_path / "big.g"
    big.write_text(format_graph(disjoint_union(cycle_graph(5), Graph(1995))))
    wide = tmp_path / "wide.g"
    wide.write_text(format_graph(disjoint_union(cycle_graph(5), Graph(496))))
    code, out, err = run(capsys, "alpha", str(big), str(wide))
    assert (code, out) == (EXIT_LIMIT, "")
    assert err == "error: product needs 1002000 vertices, limit is 1000000\n"


def test_product_and_alpha_refuse_factors_past_the_vertex_ceiling(capsys, tmp_path, monkeypatch):
    # two edgeless factors of 1,001 and 1,000 vertices: refused before any
    # recognition, engine or product build, in every alpha mode
    def refuse(*args, **kwargs):
        raise AssertionError("ran past the vertex ceiling")

    for name in ("cograph_recognize", "split_partition", "categorical_product"):
        monkeypatch.setattr(cli, name, refuse)
    a, b = tmp_path / "a.g", tmp_path / "b.g"
    a.write_text(format_graph(Graph(1001)))
    b.write_text(format_graph(Graph(1000)))
    for argv in (
        ("product", str(a), str(b)),
        ("alpha", str(a), str(b)),
        ("alpha", "--cotree", str(a), str(b)),
        ("alpha", "--split", str(a), str(b)),
        ("alpha", "--oracle", str(b), str(a)),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_LIMIT, ""), argv
        assert err == "error: product needs 1001000 vertices, limit is 1000000\n"


def test_alpha_oracle_never_builds_the_whole_product(capsys, tmp_path, monkeypatch):
    # 200 disjoint C5 squared: 10^6 product vertices, at the vertex ceiling,
    # whose bitset rows would take tens of GB.  Only C5 x C5 is built, and
    # solved once for all 40,000 equal pairs: alpha = 40,000 * 10
    built, solved = [], []
    product, alpha_exact = cli.categorical_product, cli.alpha_exact

    def small_product(g, h):
        built.append(g.n * h.n)
        return product(g, h)

    def counted_alpha(g, limit=None):
        solved.append(g.n)
        return alpha_exact(g, limit=limit)

    monkeypatch.setattr(cli, "categorical_product", small_product)
    monkeypatch.setattr(cli, "alpha_exact", counted_alpha)
    path = tmp_path / "c5x200.g"
    edges = [(5 * k + i, 5 * k + (i + 1) % 5) for k in range(200) for i in range(5)]
    path.write_text(format_graph(Graph(1000, edges)))
    code, out, err = run(capsys, "alpha", "--witness", str(path), str(path))
    assert (code, err) == (EXIT_OK, "")
    # each pair's witness is rows 0 and 2 of its C5 x C5
    witness = [a * 1000 + b for a in range(1000) if a % 5 in (0, 2) for b in range(1000)]
    assert out == "alpha=400000 engine=oracle witness=" + ",".join(map(str, witness)) + "\n"
    assert built == [25] and solved == [25]


def test_alpha_forced_split_reports_obstruction(capsys, files):
    code, out, err = run(capsys, "alpha", "--split", files["c5"], files["p3"])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: graph is not a splitgraph: induced C5 on vertices [0, 1, 2, 3, 4]\n"


def test_alpha_skips_split_obstruction_without_split_flag(capsys, tmp_path, monkeypatch):
    # a C5 on vertices 35-39 of 40 fails the split degree test; without
    # --split its 2K2/C4/C5 witness is never reported, so it is not searched.
    # The product's largest component is C5 x C5, within the oracle limit,
    # so alpha_exact answers alpha(C5 x C5) = 10 plus 1575 isolated vertices
    def refuse(g):
        raise AssertionError("obstruction searched without --split")

    monkeypatch.setattr(splitgraph, "_find_obstruction", refuse)
    path = tmp_path / "a.g"
    path.write_text(format_graph(Graph(40, [(35 + i, 35 + (i + 1) % 5) for i in range(5)])))
    code, out, err = run(capsys, "alpha", str(path), str(path))
    assert (code, out, err) == (EXIT_OK, "alpha=1585 engine=oracle\n", "")


def test_alpha_skips_p4_search_without_cotree_flag(capsys, tmp_path, monkeypatch):
    # K96 plus a P4 96-97-98-99 whose middle vertices see the whole clique:
    # a split graph, not a cograph, whose P4 a full scan of the 4-subsets
    # finds last; without --cotree the P4 is never reported, so not searched
    def refuse(g, vertices=None):
        raise AssertionError("P4 searched without --cotree")

    monkeypatch.setattr(cotree, "find_p4", refuse)
    edges = [(u, v) for v in range(96) for u in range(v)]
    edges += [(u, v) for u in (97, 98) for v in range(96)]
    edges += [(96, 97), (97, 98), (98, 99)]
    (tmp_path / "late_p4.g").write_text(format_graph(Graph(100, edges)))
    (tmp_path / "k2.g").write_text(format_graph(complete_graph(2)))
    code, out, err = run(capsys, "alpha", str(tmp_path / "late_p4.g"), str(tmp_path / "k2.g"))
    assert code == EXIT_OK and err == ""
    assert out == "alpha=100 engine=split\n"


P4_0123 = "graph contains an induced P4 on vertices [0, 1, 2, 3]"
# (flags, first file, second file, exit code, stdout, stderr)
ALPHA_PINNED = [
    ("", "p3", "p3", 0, "alpha=6 engine=cograph\n", ""),
    ("", "p3", "k3", 0, "alpha=6 engine=cograph\n", ""),
    ("", "p4", "p4", 0, "alpha=8 engine=split\n", ""),
    ("", "p4", "star", 0, "alpha=12 engine=split\n", ""),
    ("", "c5", "p3", 0, "alpha=10 engine=oracle\n", ""),
    ("", "k3", "bad", 2, "", "error: line 2: edge (0,9) out of range for n=2\n"),
    ("", "star", "c5", 0, "alpha=15 engine=oracle\n", ""),
    ("--witness", "p3", "p3", 0, "alpha=6 engine=cograph witness=0,1,2,6,7,8\n", ""),
    ("--witness", "p4", "p4", 0, "alpha=8 engine=split witness=0,1,2,3,12,13,14,15\n", ""),
    ("--witness", "p4", "star", 0,
     "alpha=12 engine=split witness=1,2,3,5,6,7,9,10,11,13,14,15\n", ""),
    ("--witness", "c5", "p3", 0, "alpha=10 engine=oracle witness=0,2,3,5,6,8,9,11,12,14\n", ""),
    ("--cotree", "p3", "k3", 0, "alpha=6 engine=cograph\n", ""),
    ("--cotree", "p4", "star", 2, "", f"error: {P4_0123}\n"),
    ("--cotree", "c5", "p3", 2, "", f"error: {P4_0123}\n"),
    ("--cotree", "star", "c5", 2, "", f"error: {P4_0123}\n"),
    ("--cotree", "k3", "bad", 2, "", "error: line 2: edge (0,9) out of range for n=2\n"),
    ("--split", "p3", "k3", 0, "alpha=6 engine=split\n", ""),
    ("--split", "p4", "star", 0, "alpha=12 engine=split\n", ""),
    ("--split", "star", "c5", 2, "",
     "error: graph is not a splitgraph: induced C5 on vertices [0, 1, 2, 3, 4]\n"),
]


@pytest.mark.parametrize(
    "flags,first,second,code,out,err",
    ALPHA_PINNED,
    ids=[f"{row[0] or 'auto'}-{row[1]}-{row[2]}" for row in ALPHA_PINNED],
)
def test_alpha_output_pinned(capsys, files, flags, first, second, code, out, err):
    argv = ["alpha", *flags.split(), files[first], files[second]]
    assert run(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize(
    "flags", [("--cotree", "--split"), ("--cotree", "--oracle"), ("--split", "--oracle")]
)
def test_alpha_rejects_conflicting_engine_flags(capsys, files, flags):
    # each flag names the one engine to run, so two of them are an input
    # error; --split used to override --cotree, and --oracle both
    with pytest.raises(SystemExit) as exit_info:
        main(["alpha", *flags, files["p3"], files["p3"]])
    assert exit_info.value.code == EXIT_INPUT
    assert "not allowed with argument" in capsys.readouterr().err


def test_alpha_json(capsys, files):
    code, out, _ = run(capsys, "--json", "alpha", files["p3"], files["p3"])
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["command"] == "alpha" and rec["alpha"] == 6
    assert rec["engine"] == "cograph" and rec["a"] is None


# ---------------------------------------------------------------------------
# capacity


def test_capacity_human(capsys, files):
    code, out, _ = run(capsys, "capacity", files["c5"])
    assert code == EXIT_OK
    assert out.strip() == "a=2/5 (~0.400000) theta=2/5 (~0.400000) engine=general fpm=true"


def test_capacity_json_golden(capsys, files):
    code, out, _ = run(capsys, "--json", "capacity", files["c5"])
    assert code == EXIT_OK
    rec = json.loads(out)
    want = {
        "a": "2/5",
        "a_star": "2/5",
        "alpha": None,
        "command": "capacity",
        "engine": "general",
        "fpm": True,
        "witness": None,
    }
    for key, value in want.items():
        assert rec[key] == value
    assert rec["input"].endswith("c5.g")


def test_capacity_certificates(capsys, files):
    code, out, _ = run(capsys, "capacity", "--cotree", files["cotree"])
    assert code == EXIT_OK and "engine=cograph" in out
    code, out, _ = run(capsys, "capacity", "--interval", files["ivs"])
    assert code == EXIT_OK and "a=1/2" in out and "engine=interval" in out
    code, out, _ = run(capsys, "capacity", "--permutation", files["perm"])
    assert code == EXIT_OK and "a=1/4" in out and "engine=permutation" in out
    code, out, _ = run(capsys, "capacity", "--split", files["star"])
    assert code == EXIT_OK and "a=3/4" in out and "theta=1/1" in out and "fpm=false" in out
    code, out, _ = run(capsys, "capacity", "--td", files["td"], files["p4"])
    assert code == EXIT_OK and "a=1/2" in out and "engine=treewidth" in out


@pytest.mark.parametrize(
    "flags",
    [
        ("--cotree", "--interval"),
        ("--interval", "--permutation"),
        ("--split", "--td", "p4.td"),
        ("--permutation", "--split"),
        ("--td", "p4.td", "--cotree"),
    ],
)
def test_capacity_rejects_conflicting_engine_flags(capsys, files, flags):
    # each flag names the input's class, so two of them are an input error;
    # the cotree engine used to run whatever else was given
    flags = [files["td"] if f == "p4.td" else f for f in flags]
    with pytest.raises(SystemExit) as exit_info:
        main(["capacity", *flags, files["p4"]])
    assert exit_info.value.code == EXIT_INPUT
    assert "not allowed with argument" in capsys.readouterr().err


def test_capacity_witness_flag(capsys, files):
    code, out, _ = run(capsys, "capacity", "--witness", files["c5"])
    assert code == EXIT_OK and "witness=" in out


def test_capacity_td_size_mismatch(capsys, files):
    code, _, err = run(capsys, "capacity", "--td", files["td"], files["p3"])
    assert code == EXIT_INPUT and "error" in err


def test_capacity_oracle_limit_env(capsys, files, monkeypatch):
    monkeypatch.setenv("IL_ORACLE_LIMIT", "3")
    code, _, err = run(capsys, "capacity", files["c5"])
    assert code == EXIT_LIMIT and "error" in err


def test_bad_oracle_limit_env_is_refused(capsys, files, monkeypatch):
    # only a positive integer is a limit; anything else exits 2 naming the
    # variable, in every command that reads it, before any search
    for value in ("abc", "0", "-1"):
        monkeypatch.setenv("IL_ORACLE_LIMIT", value)
        for command in ("capacity", "check"):
            code, out, err = run(capsys, command, files["p3"])
            assert (code, out) == (EXIT_INPUT, ""), (value, command)
            assert err == f"error: IL_ORACLE_LIMIT must be a positive integer, got {value!r}\n"
        code, out, err = run(capsys, "alpha", "--oracle", files["p3"], files["p3"])
        assert (code, out) == (EXIT_INPUT, "")
        assert "IL_ORACLE_LIMIT" in err


def test_capacity_verification_failure_exits_1(capsys, files, monkeypatch):
    # a wrong neighbourhood count makes the witness miss its ratio in _finish
    monkeypatch.setattr(capacity, "_witness_counts", lambda g, mask, what: (mask.bit_count(), g.n))
    code, out, err = run(capsys, "capacity", files["c5"])
    assert code == EXIT_VIOLATION
    assert out == "" and "verification failed" in err and "Traceback" not in err


def test_capacity_profile_verification_failure_exits_1(capsys, files, monkeypatch):
    # a cograph step that overstates its value fails the loop's check
    step = capacity.cograph_profile

    def misreporting(t, gain, pen):
        value, mask = step(t, gain, pen)
        return value + 1, mask

    monkeypatch.setattr(capacity, "cograph_profile", misreporting)
    code, out, err = run(capsys, "capacity", "--cotree", files["cotree"])
    assert code == EXIT_VIOLATION and out == "" and "Traceback" not in err
    assert err.startswith("error: verification failed: Dinkelbach step reported")


def test_capacity_deep_threshold_cotree(capsys, tmp_path):
    # 1200 leaves nested 1199 deep
    n = 1200
    text = threshold_cotree_text(n)
    path = tmp_path / "threshold.ct"
    path.write_text(text + "\n")
    code, out, err = run(capsys, "--json", "capacity", "--cotree", str(path))
    assert code == EXIT_OK, err
    # a threshold graph is split: each odd vertex is joined to everything
    # before it (a clique), each even one is added isolated (independent)
    g = realize(parse_cotree(text))
    part = SplitPartition(frozenset(range(1, n, 2)), frozenset(range(0, n, 2)))
    rec = json.loads(out)
    assert rec["engine"] == "cograph"
    assert rec["a"] == ratio_str(a_split(g, part).a)


def test_capacity_td_bad_tree_edge_line(capsys, files, tmp_path):
    path = tmp_path / "bad.td"
    path.write_text("s td 3 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n1 2 3\n2 3\n")
    code, out, err = run(capsys, "capacity", "--td", str(path), files["p4"])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: line 5: expected tree edge '<i> <j>', got '1 2 3'\n"


@pytest.mark.parametrize(
    "command,header,code,err",
    [
        ("capacity", "p il 10000000000000000000 0", EXIT_LIMIT,
         "error: graph file declares 10000000000000000000 vertices, limit is 1000000\n"),
        ("capacity", "p il 1000000000 0", EXIT_LIMIT,
         "error: graph file declares 1000000000 vertices, limit is 1000000\n"),
        ("alpha", "p il 1000000000 0", EXIT_LIMIT,
         "error: graph file declares 1000000000 vertices, limit is 1000000\n"),
        ("check", "p il 10000000000000000000 0", EXIT_LIMIT,
         "error: graph file declares 10000000000000000000 vertices, limit is 1000000\n"),
    ],
    ids=["capacity-1e19", "capacity-1e9", "alpha-1e9", "check-1e19"],
)
def test_declared_vertex_count_checked_at_parse(capsys, tmp_path, command, header, code, err):
    # the header alone is refused, before a vertex is allocated
    path = tmp_path / "huge.g"
    path.write_text(header + "\n")
    files = [str(path)] * (2 if command == "alpha" else 1)
    assert run(capsys, command, *files) == (code, "", err)


def test_declared_bag_count_checked_at_parse(capsys, files, tmp_path):
    # every bag needs its own line, so a header promising more is refused
    path = tmp_path / "huge.td"
    path.write_text("s td 10000000000000000000 2 1\n")
    (tmp_path / "k1.g").write_text("p il 1 0\n")
    code, out, err = run(capsys, "capacity", "--td", str(path), str(tmp_path / "k1.g"))
    assert code == EXIT_INPUT and out == ""
    assert err == "error: line 1: header declares 10000000000000000000 bags, 0 lines follow\n"
    path.write_text("s td 4 2 4\nb 1 0 1\nb 2 1 2\nb 3 2 3\n")
    code, out, err = run(capsys, "capacity", "--td", str(path), files["p4"])
    assert code == EXIT_INPUT and "declares 4 bags, 3 lines follow" in err


def test_permutation_header_with_two_values_is_a_parse_error(capsys, tmp_path):
    # the header is one vertex count; "3 1" used to fail unpacking it
    path = tmp_path / "p.pm"
    path.write_text("# two values\n3 1\n1 2 3\n")
    code, out, err = run(capsys, "capacity", "--permutation", str(path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: line 2: expected one vertex count '<n>', got 2 values\n"


@pytest.mark.parametrize(
    "flag,text,err",
    [
        ("--interval", "".join(f"{v + 1} {v} {v}\n" for v in range(100_000)),
         "error: line 100000: interval ids must be 0..99999, got 100000\n"),
        ("--permutation", "100000\n" + " ".join(map(str, range(2, 100_001))) + " 100001\n",
         "error: values must be a permutation of 1..100000: 100001 is out of range\n"),
        ("--permutation", "100000\n" + " ".join(map(str, range(1, 100_000))) + " 7\n",
         "error: values must be a permutation of 1..100000: 7 repeats\n"),
        ("--permutation", "100000\n" + " ".join(map(str, range(1, 100_000))) + " x\n",
         "error: line 2: expected integers, got 'x'\n"),
    ],
    ids=["interval-id", "permutation-range", "permutation-repeat", "permutation-token"],
)
def test_a_bad_value_in_a_large_model_file_gives_a_short_message(capsys, tmp_path, flag, text, err):
    # the message names the first offending id or value, not every value
    # of the file
    path = tmp_path / "big.model"
    path.write_text(text)
    assert run(capsys, "capacity", flag, str(path)) == (EXIT_INPUT, "", err)


@pytest.mark.parametrize(
    "bags,tree,err",
    [
        ("b 1 0 1\nb 2 2 3\n", "", "tree: 0 edges for 2 bags: not a tree"),
        ("b 1 0 1\nb 2 1 2\n", "1 2\n", "vertex-coverage: vertex 3 appears in no bag"),
        ("b 1 0 1\nb 2 1 2\nb 3 3\n", "1 2\n2 3\n", "edge-coverage: edge (2,3) is in no bag"),
        ("b 1 0 1\nb 2 1 2\nb 3 2 3\nb 4 0\n", "1 2\n2 3\n3 4\n",
         "subtree-connectivity: vertex 0 is forgotten twice"),
    ],
    ids=["tree", "vertex-coverage", "edge-coverage", "subtree-connectivity"],
)
def test_capacity_td_first_failure(capsys, files, tmp_path, bags, tree, err):
    # P4 with a decomposition that breaks the named axiom, and a later one
    # too where it can
    path = tmp_path / "bad.td"
    path.write_text(f"s td {bags.count('b ')} 2 4\n{bags}{tree}")
    assert run(capsys, "capacity", "--td", str(path), files["p4"]) == (
        EXIT_INPUT, "", f"error: {err}\n"
    )


def test_capacity_td_long_path(capsys, tmp_path):
    # a 1199-bag path decomposition of P1200 is nicified without recursion
    n = 1200
    td = [f"s td {n - 1} 2 {n}"]
    td += [f"b {i + 1} {i} {i + 1}" for i in range(n - 1)]
    td += [f"{i + 1} {i + 2}" for i in range(n - 2)]
    (tmp_path / "p.td").write_text("\n".join(td) + "\n")
    (tmp_path / "p.g").write_text(format_graph(path_graph(n)))
    code, out, err = run(capsys, "capacity", "--td", str(tmp_path / "p.td"), str(tmp_path / "p.g"))
    assert code == EXIT_OK, err
    assert out.startswith("a=1/2 ") and "engine=treewidth" in out


# ---------------------------------------------------------------------------
# domination


def test_domination_bipartite_csv(capsys):
    code, out, _ = run(capsys, "domination", "--bipartite", "1", "2", "--kmax", "3")
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "k,r_i"
    assert lines[1] == "1,1/3" and lines[3] == "3,7/27"
    assert lines[-1] == "I=0/1"


def test_domination_multipartite(capsys):
    code, out, _ = run(capsys, "domination", "--multipartite", "3", "3")
    assert code == EXIT_OK and out.strip().splitlines()[-1] == "I=1/2"


def test_domination_json(capsys):
    code, out, _ = run(capsys, "--json", "domination", "--bipartite", "2", "2", "--kmax", "2")
    assert code == EXIT_OK
    recs = [json.loads(line) for line in out.strip().splitlines()]
    assert len(recs) == 3
    assert all(r["command"] == "domination" and r["a"] == "1/2" for r in recs)


def test_domination_kmax_ceiling(capsys, monkeypatch):
    # one past the ceiling exits 3 before any row is computed; the rows at
    # the ceiling itself take about a second, so they are not run here
    from indeplib import domination

    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(domination, "ri_complete_bipartite_power", no_rows)
    kmax = str(DOMINATION_KMAX_LIMIT + 1)
    code, out, err = run(capsys, "domination", "--bipartite", "2", "3", "--kmax", kmax)
    assert (code, out) == (EXIT_LIMIT, "")
    assert err == f"error: domination --kmax limited to {DOMINATION_KMAX_LIMIT}, got {kmax}\n"


def test_domination_side_ceiling(capsys, monkeypatch):
    # K(M, N) has M + N vertices, held to the ceiling graph files obey;
    # sides past it exit 3 before any row is computed
    from indeplib import domination

    at = str(DEFAULT_POWER_LIMIT - 3)
    assert run(capsys, "domination", "--bipartite", at, "3", "--kmax", "1")[0] == EXIT_OK

    def no_rows(*args):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(domination, "ri_complete_bipartite_power", no_rows)
    m = 10**100
    code, out, err = run(capsys, "domination", "--bipartite", str(m), "3")
    assert (code, out) == (EXIT_LIMIT, "")
    limit = DEFAULT_POWER_LIMIT
    assert err == f"error: domination --bipartite needs {m + 3} vertices, limit is {limit}\n"


def test_domination_argument_errors(capsys):
    code, _, err = run(capsys, "domination", "--bipartite", "1", "2", "--multipartite", "3")
    assert code == EXIT_INPUT
    code, _, err = run(capsys, "domination")
    assert code == EXIT_INPUT


def test_domination_kmax_below_one_is_refused(capsys):
    # no row for k = 1..kmax would leave a table with no rows
    for kmax in ("0", "-3"):
        code, out, err = run(capsys, "domination", "--bipartite", "2", "3", "--kmax", kmax)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == f"error: domination --kmax must be at least 1, got {kmax}\n"


def test_domination_kmax_needs_bipartite(capsys):
    # --multipartite prints no rows, so a --kmax with it is refused, not
    # ignored, whatever its value
    for kmax in ("0", "10", "99999"):
        code, out, err = run(capsys, "domination", "--multipartite", "2", "2", "--kmax", kmax)
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: domination --kmax needs --bipartite\n"
    assert run(capsys, "domination", "--multipartite", "2", "2")[:2] == (EXIT_OK, "k,r_i\nI=1/2\n")
    # without --kmax, --bipartite prints k = 1..10
    code, out, _ = run(capsys, "domination", "--bipartite", "1", "2")
    assert code == EXIT_OK and out.splitlines()[-2].startswith("10,")


# ---------------------------------------------------------------------------
# check


def test_check_all_ok(capsys, files):
    code, out, _ = run(capsys, "check", files["c5"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert all(": ok" in line for line in lines)
    assert any(line.startswith("engines agree") for line in lines)


def test_check_skips_recognition_witnesses(capsys, tmp_path, monkeypatch):
    # check only asks whether each class engine applies, so a failed
    # recognition must not search for its P4 or 2K2/C4/C5: the output with
    # both searches disabled is the output with them enabled
    late_p4 = [(u, v) for v in range(36) for u in range(v)]
    late_p4 += [(u, v) for u in (37, 38) for v in range(36)]
    late_p4 += [(36, 37), (37, 38), (38, 39)]
    graphs = {
        "late_p4": Graph(40, late_p4),
        "c5_isolated": Graph(40, [(35 + i, 35 + (i + 1) % 5) for i in range(5)]),
        "c5": cycle_graph(5),
        "p4": path_graph(4),
        "k3": complete_graph(3),
    }
    paths = {}
    for name, g in graphs.items():
        paths[name] = tmp_path / f"{name}.g"
        paths[name].write_text(format_graph(g))
    expected = {name: run(capsys, "check", str(p)) for name, p in paths.items()}

    def refuse(*args, **kwargs):
        raise AssertionError("recognition witness searched")

    monkeypatch.setattr(cotree, "find_p4", refuse)
    monkeypatch.setattr(splitgraph, "_find_obstruction", refuse)
    for name, p in paths.items():
        assert run(capsys, "check", str(p)) == expected[name], name
    assert not is_cograph(graphs["late_p4"])
    assert not is_splitgraph(graphs["c5_isolated"])
    assert is_splitgraph(graphs["late_p4"]) and is_cograph(graphs["k3"])


def test_split_recognition_disagreement_exits_1(capsys, files, monkeypatch):
    # a degree test that rejects a graph with no obstruction found is a
    # failed self-check, not an input error
    monkeypatch.setattr(splitgraph, "_find_obstruction", lambda g: None)
    with pytest.raises(VerificationError, match="no 2K2/C4/C5"):
        splitgraph.split_partition(cycle_graph(4))
    code, out, err = run(capsys, "capacity", "--split", files["c5"])
    assert code == EXIT_VIOLATION and out == ""
    assert err == "error: verification failed: degree test rejected a graph with no 2K2/C4/C5\n"


def test_check_limit_is_per_component(capsys, tmp_path):
    # C30 + C30 has 60 vertices in components of 30, which the general
    # engine's limit of 40 admits, so every check runs, as capacity does
    path = tmp_path / "c30c30.g"
    path.write_text(format_graph(disjoint_union(cycle_graph(30), cycle_graph(30))))
    assert run(capsys, "check", str(path)) == (
        EXIT_OK,
        "engines agree: ok (general=1/2)\n"
        "a*=1 iff no fractional perfect matching: ok\n"
        "toth a*(G^2)=a*(G): skipped (size)\n"
        "witness achieves a: ok\n",
        "",
    )
    assert run(capsys, "capacity", str(path))[:2] == (
        EXIT_OK,
        "a=1/2 (~0.500000) theta=1/2 (~0.500000) engine=general fpm=true\n",
    )
    # one component over the limit skips them all, naming its size
    path = tmp_path / "c41.g"
    path.write_text(format_graph(cycle_graph(41)))
    assert run(capsys, "check", str(path)) == (
        EXIT_OK,
        "all checks skipped: 41 vertices exceeds limit 40\n",
        "",
    )


def test_memory_error_exits_3(capsys, files, monkeypatch):
    # a patched library name on the cli module is the one the command runs
    def exhaust(g, limit=None):
        raise MemoryError

    monkeypatch.setattr(cli, "alpha_exact", exhaust)
    code, out, err = run(capsys, "alpha", files["c5"], files["p3"])
    assert (code, out, err) == (EXIT_LIMIT, "", "error: out of memory\n")
