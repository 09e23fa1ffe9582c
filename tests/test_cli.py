"""CLI behavior: output formats, JSON lines, exit codes."""

import json
import random

import pytest

from _helpers import random_graph, threshold_cotree_text
from indeplib import capacity, cli, splitgraph
from indeplib.capacity import a_split
from indeplib.cli import EXIT_INPUT, EXIT_LIMIT, EXIT_OK, EXIT_VIOLATION, main
from indeplib.cotree import parse_cotree, realize
from indeplib.graph import Graph, complete_graph, cycle_graph, path_graph, star_graph
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


def test_alpha_forced_split_reports_obstruction(capsys, files):
    code, out, err = run(capsys, "alpha", "--split", files["c5"], files["p3"])
    assert code == EXIT_INPUT and out == ""
    assert err == "error: graph is not a splitgraph: induced C5 on vertices [0, 1, 2, 3, 4]\n"


def test_alpha_skips_split_obstruction_without_split_flag(capsys, tmp_path, monkeypatch):
    # a C5 on vertices 35-39 of 40 fails the split degree test; without
    # --split its 2K2/C4/C5 witness is never reported, so it is not searched
    def refuse(g):
        raise AssertionError("obstruction searched without --split")

    monkeypatch.setattr(splitgraph, "_find_obstruction", refuse)
    path = tmp_path / "a.g"
    path.write_text(format_graph(Graph(40, [(35 + i, 35 + (i + 1) % 5) for i in range(5)])))
    code, out, err = run(capsys, "alpha", str(path), str(path))
    assert code == EXIT_LIMIT and out == ""
    assert err == "error: alpha_exact limited to 40 vertices, got 1600\n"


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


def test_domination_argument_errors(capsys):
    code, _, err = run(capsys, "domination", "--bipartite", "1", "2", "--multipartite", "3")
    assert code == EXIT_INPUT
    code, _, err = run(capsys, "domination")
    assert code == EXIT_INPUT


# ---------------------------------------------------------------------------
# check


def test_check_all_ok(capsys, files):
    code, out, _ = run(capsys, "check", files["c5"])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert all(": ok" in line for line in lines)
    assert any(line.startswith("engines agree") for line in lines)
