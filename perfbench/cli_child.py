"""Run one indeplib command with the benchmark's timing wrappers installed.

usage: python3 perfbench/cli_child.py SPANS_OUT ARG...

Runs ``indeplib.cli.main(ARG...)`` inside a ``cli.main`` span, writes
{"spans": [[name, start_ns, end_ns, parent], ...], "counts": {...}} to
SPANS_OUT and exits with the command's exit code.  The traced run of the ``cli`` workload
starts this in place of ``python -m indeplib.cli``.
"""

import json
import sys

import spans
from workloads import SRC, load_lib


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    lib = load_lib(SRC)
    tracer = spans.Tracer()
    spans.install(tracer, lib)
    root = tracer.begin(tracer.name_id("cli.main"))
    try:
        code = lib.cli.main(argv)
    finally:
        tracer.finish(root)
    sys.stdout.flush()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": [span[:4] for span in tracer.spans()], "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
