"""Start-up cost: the package and each command import only what they run.

Each command line run is a fresh interpreter, so the modules a command
imports are part of its time.  These tests run commands in child
interpreters and compare the modules loaded with those of a bare start.
"""

import json
import os
import subprocess
import sys

import pytest

import indeplib
from indeplib.graph import path_graph
from indeplib.io import format_graph

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints the modules that `import indeplib`, then `cli.main(argv)`, add to
# those of a bare start, as the last line of stdout.
CHILD = """
import json, sys
bare = set(sys.modules)
import indeplib
package = sorted(set(sys.modules) - bare)
from indeplib import cli
code = cli.main(sys.argv[1:])
print(json.dumps({"package": package, "command": sorted(set(sys.modules) - bare), "code": code}))
"""


def run_child(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("IL_ORACLE_LIMIT", None)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def library(modules):
    return {m.removeprefix("indeplib.") for m in modules if m.startswith("indeplib.")}


def test_package_names_resolve_on_access():
    listed = dir(indeplib)
    for name in indeplib.__all__:
        assert getattr(indeplib, name) is not None
        assert name in listed
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(indeplib, "no_such_name")


def test_capacity_and_domination_import_only_what_they_run(tmp_path):
    (tmp_path / "p5.g").write_text(format_graph(path_graph(5)))
    loaded = run_child("--json", "capacity", "p5.g", cwd=tmp_path)
    assert loaded["code"] == 0
    assert library(loaded["package"]) == set()
    ran = library(loaded["command"])
    assert {"cli", "io", "capacity", "flow", "kernels"} <= ran
    skipped = {"product_alpha", "oracles", "domination", "splitgraph", "treedecomp"}
    skipped |= {"intersection", "cotree"}
    assert not ran & skipped
    assert "dataclasses" not in loaded["command"]

    loaded = run_child("--json", "domination", "--multipartite", "2", "3", cwd=tmp_path)
    assert loaded["code"] == 0
    ran = library(loaded["command"])
    assert "domination" in ran
    assert not ran & {"capacity", "flow", "product_alpha", "cotree", "io"}


def test_tree_decomposition_capacity_skips_dataclasses(tmp_path):
    # NiceNode is a NamedTuple, so `capacity --td` needs no dataclasses
    (tmp_path / "p3.g").write_text(format_graph(path_graph(3)))
    (tmp_path / "p3.td").write_text("s td 2 2 3\nb 1 0 1\nb 2 1 2\n1 2\n")
    loaded = run_child("--json", "capacity", "--td", "p3.td", "p3.g", cwd=tmp_path)
    assert loaded["code"] == 0
    assert "treedecomp" in library(loaded["command"])
    assert "dataclasses" not in loaded["command"]


def test_certificate_models_skip_dataclasses(tmp_path):
    # IntervalModel, PermutationModel and SplitPartition are NamedTuples, so
    # the commands that build them need no dataclasses (nor inspect)
    (tmp_path / "p3.iv").write_text("0 0 1\n1 1 2\n2 2 3\n")
    (tmp_path / "p3.pm").write_text("3\n2 1 3\n")
    (tmp_path / "p4.g").write_text(format_graph(path_graph(4)))
    runs = [
        (("capacity", "--interval", "p3.iv"), "intersection"),
        (("capacity", "--permutation", "p3.pm"), "intersection"),
        (("capacity", "--split", "p4.g"), "splitgraph"),
        (("check", "p4.g"), "splitgraph"),
        # P4 is split but not a cograph, so alpha takes the split path
        (("alpha", "p4.g", "p4.g"), "product_alpha"),
    ]
    for argv, module in runs:
        loaded = run_child("--json", *argv, cwd=tmp_path)
        assert loaded["code"] == 0, argv
        assert module in library(loaded["command"]), argv
        assert not {"dataclasses", "inspect"} & set(loaded["command"]), argv
