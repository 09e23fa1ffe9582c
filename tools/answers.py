"""Print the answers and witnesses of the benchmark's pools, one JSON line
per item, so two source trees can be compared with diff.

The pools are those of perfbench/workloads.py at seeds 0-3, made and run
as the benchmark makes and runs them; indeplib is imported from SRC.  A
line holds the workload, the seed, the item's index and kind, and:

- capacity items: a, a*, the sorted witness, the engine and has_fpm;
- product pairs: alpha, the sorted witness and the engine;
- K4 items: alpha, the sorted product set and the sorted extracted set;
- cli items: the exit code and the standard output of the command.

The cli workload's files are written into a temporary directory with
Cli.prepare, and each item's argv runs in-process through indeplib.cli.main
there, as Cli.reference runs it, rather than in a child process.

Usage: python3 tools/answers.py SRC [WORKLOAD ...]
(default: every workload, in perfbench/workloads.py order)
"""

import contextlib
import enum
import io
import json
import os
import random
import sys
import tempfile
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from workloads import WORKLOADS, load_lib, rstr  # noqa: E402

SEEDS = range(4)


def _plain(value):
    """value with Fractions as "p/q" strings and sets as sorted lists."""
    if isinstance(value, Fraction):
        return rstr(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _run_cli(lib, workdir, argv):
    """(exit code, standard output) of indeplib.cli.main(argv) run in workdir."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def _results(lib, wl, pool):
    """The result of each pool item, in pool order."""
    if wl.name != "cli":
        for item in pool:
            yield wl.run(lib, item)
        return
    with tempfile.TemporaryDirectory() as workdir:
        wl.prepare(lib, pool, workdir)
        for item in pool:
            yield _run_cli(lib, workdir, item.data[0])


def answers(src, names):
    sys.path.insert(0, os.path.abspath(src))
    lib = load_lib(src)
    for name in names:
        wl = WORKLOADS[name]()
        for seed in SEEDS:
            pool = wl.pool(lib, random.Random(f"{name}:{seed}"), False)
            for item, result in zip(pool, _results(lib, wl, pool)):
                line = [name, seed, item.index, item.kind, [_plain(x) for x in result]]
                yield json.dumps(line)


def main(argv):
    if not argv or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    names = argv[1:] or list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            print(f"no such workload here: {name}", file=sys.stderr)
            return 2
    for line in answers(argv[0], names):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
