"""Command line front end.

Subcommands: product, alpha, capacity, domination, check.  Exit codes:
0 ok, 1 property violation, 2 input error, 3 resource limit (including
running out of memory).  With --json each result is one JSON object per
line with the fixed field set {command, input, engine, a, a_star, alpha,
witness, fpm}; rationals are serialized as "p/q" strings.

Start-up is most of a short command's time, so this module imports only
what parsing the arguments and reporting errors need, and each command
imports the modules it runs.  The library functions the commands call by
name are attributes of this module, resolved on first use; the commands
call them through the module, so a name rebound here (a test's
monkeypatch, the benchmark's tracer) is the one that runs.
"""

import argparse
import json
import sys

from . import _lazy_getattr
from .config import DEFAULT_POWER_LIMIT, DOMINATION_KMAX_LIMIT, check_oracle_limit, oracle_limit
from .errors import (
    IndeplibError,
    LimitExceeded,
    NotACograph,
    NotASplitgraph,
    ParseError,
    VerificationError,
)
from .ratio import ratio_decimal, ratio_str

__getattr__ = _lazy_getattr(
    globals(),
    {
        "a_bruteforce": "oracles",
        "alpha_exact": "oracles",
        "alpha_product_cographs": "product_alpha",
        "alpha_product_split": "product_alpha",
        "categorical_product": "graph",
        "cograph_recognize": "cotree",
        "is_product_independent": "graph",
        "split_partition": "splitgraph",
        "validate_and_nicify": "treedecomp",
    },
)
# this module as an object, whose attribute reads reach __getattr__
_lazy = sys.modules[__name__]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def _emit(args, human, record):
    if args.json:
        full = {
            "command": None,
            "input": None,
            "engine": None,
            "a": None,
            "a_star": None,
            "alpha": None,
            "witness": None,
            "fpm": None,
        }
        full.update(record)
        print(json.dumps(full, sort_keys=True))
    else:
        print(human)


def _load_graph(path):
    from . import io as gio

    return gio.parse_graph(gio.read_text(path))


def _load_factors(files):
    """The two factor graphs of G x H, refused before anything is built or
    solved when |V(G)|*|V(H)| passes the vertex ceiling."""
    g, h = _load_graph(files[0]), _load_graph(files[1])
    size = g.n * h.n
    if size > DEFAULT_POWER_LIMIT:
        raise LimitExceeded(
            f"product needs {size} vertices, limit is {DEFAULT_POWER_LIMIT}", required=size
        )
    return g, h


def cmd_product(args):
    from . import io as gio
    from .graph import graph_power

    if args.power is not None:
        if len(args.files) != 1:
            raise ParseError("--power takes exactly one graph file")
        g = _load_graph(args.files[0])
        result = graph_power(g, args.power)
    else:
        if len(args.files) != 2:
            raise ParseError("product takes two graph files (or one with --power)")
        result = _lazy.categorical_product(*_load_factors(args.files))
    sys.stdout.write(gio.format_graph(result))
    return EXIT_OK


def cmd_alpha(args):
    """alpha(G x H) from the first engine that takes both factors: cograph,
    split, then the explicit product, one pair of factor components at a
    time (_alpha_by_components); its witness is checked before printing.
    A G x H past the vertex ceiling is refused before any engine runs."""
    g, h = _load_factors(args.files)
    inputs = f"{args.files[0]} x {args.files[1]}"
    engine = None
    if not args.oracle and not args.split:
        # only --cotree reports the P4, so only then is it searched for
        try:
            tg = _lazy.cograph_recognize(g, witness=args.cotree)
            th = _lazy.cograph_recognize(h, witness=args.cotree)
            value, witness = _lazy.alpha_product_cographs(tg, th)
            engine = "cograph"
        except NotACograph:
            if args.cotree:
                raise
    if engine is None and not args.oracle:
        # only --split reports the obstruction, so only then is it searched for
        try:
            pg = _lazy.split_partition(g, obstruction=args.split)
            ph = _lazy.split_partition(h, obstruction=args.split)
            value, witness = _lazy.alpha_product_split(g, pg, h, ph)
            engine = "split"
        except NotASplitgraph:
            if args.split:
                raise
    if engine is None:
        value, witness = _alpha_by_components(g, h)
        engine = "oracle"
    witness = sorted(witness)  # the row check rejects repeats, so len counts distinct ids
    if len(witness) != value or not _lazy.is_product_independent(g, h, witness):
        raise VerificationError(f"{engine} witness is not an independent set of size {value}")
    human = f"alpha={value} engine={engine}"
    if args.witness:
        human += " witness=" + ",".join(str(v) for v in witness)
    _emit(
        args,
        human,
        {
            "command": "alpha",
            "input": inputs,
            "engine": engine,
            "alpha": value,
            "witness": witness if args.witness else None,
        },
    )
    return EXIT_OK


def _alpha_by_components(g, h):
    """alpha(G x H) by alpha_exact, without building G x H.

    G x H is the disjoint union of the products Gi x Hj of a component of G
    and one of H, so its alpha is their sum.  Gi x Hj keeps the order of
    its vertices (a, b), so alpha_exact's witness on it, mapped back to
    a*|V(H)| + b, is the one it gives on G x H.  Equal pairs are solved
    once.  Refused before any search when the largest Gi x Hj passes the
    oracle limit; cmd_alpha has already refused a G x H past the vertex
    ceiling.
    """
    from .graph import components, mask_to_set

    if not g.n or not h.n:
        raise ValueError("empty graph")
    parts = []
    for f in (g, h):
        verts = [sorted(mask_to_set(c)) for c in components(f.adj, (1 << f.n) - 1)]
        parts.append([(vs, f.subgraph(vs)) for vs in verts])
    size = max(len(vs) for vs, _ in parts[0]) * max(len(vs) for vs, _ in parts[1])
    check_oracle_limit("alpha_exact", size)
    solved = {}
    total = 0
    witness = []
    for gv, gi in parts[0]:
        for hv, hj in parts[1]:
            if (gi, hj) not in solved:
                solved[gi, hj] = _lazy.alpha_exact(_lazy.categorical_product(gi, hj))
            value, local = solved[gi, hj]
            total += value
            k = len(hv)
            witness += [gv[x // k] * h.n + hv[x % k] for x in local]
    return total, witness


def _capacity_result(args):
    from . import capacity as cap
    from . import io as gio

    if args.cotree:
        t = gio.parse_cotree_file(gio.read_text(args.file))
        return cap.tensor_capacity(cotree=t)
    if args.interval:
        model = gio.parse_interval_model(gio.read_text(args.file))
        return cap.tensor_capacity(interval=model)
    if args.permutation:
        model = gio.parse_permutation_model(gio.read_text(args.file))
        return cap.tensor_capacity(permutation=model)
    g = _load_graph(args.file)
    if args.td:
        bags, tree_edges, n = gio.parse_tree_decomposition(gio.read_text(args.td))
        if n != g.n:
            raise ParseError(f"decomposition declares {n} vertices, graph has {g.n}")
        nice = _lazy.validate_and_nicify(g, bags, tree_edges)
        return cap.tensor_capacity(g, decomposition=nice)
    if args.split:
        return cap.tensor_capacity(g, split=_lazy.split_partition(g))
    return cap.tensor_capacity(g)


def cmd_capacity(args):
    res = _capacity_result(args)
    human = (
        f"a={ratio_str(res.a)} (~{ratio_decimal(res.a)})"
        f" theta={ratio_str(res.a_star)} (~{ratio_decimal(res.a_star)})"
        f" engine={res.engine.value} fpm={'true' if res.has_fpm else 'false'}"
    )
    witness = sorted(res.witness)
    if args.witness:
        human += " witness=" + ",".join(str(v) for v in witness)
    _emit(
        args,
        human,
        {
            "command": "capacity",
            "input": args.file,
            "engine": res.engine.value,
            "a": ratio_str(res.a),
            "a_star": ratio_str(res.a_star),
            "witness": witness if args.witness else None,
            "fpm": res.has_fpm,
        },
    )
    return EXIT_OK


def cmd_domination(args):
    from .domination import (
        ri_complete_bipartite_power,
        ultimate_independent_domination_multipartite,
    )

    if args.bipartite:
        kmax = 10 if args.kmax is None else args.kmax
        if kmax < 1:
            raise ValueError(f"domination --kmax must be at least 1, got {kmax}")
        if kmax > DOMINATION_KMAX_LIMIT:
            msg = f"domination --kmax limited to {DOMINATION_KMAX_LIMIT}, got {kmax}"
            raise LimitExceeded(msg, required=kmax)
        m, n = args.bipartite
        if m + n > DEFAULT_POWER_LIMIT:  # K(m, n) has m + n vertices
            msg = f"domination --bipartite needs {m + n} vertices, limit is {DEFAULT_POWER_LIMIT}"
            raise LimitExceeded(msg, required=m + n)
        label = f"bipartite {m} {n}"
        rows = [(k, ri_complete_bipartite_power(m, n, k)) for k in range(1, kmax + 1)]
        limit = ultimate_independent_domination_multipartite([m, n])
    else:
        if args.kmax is not None:
            raise ValueError("domination --kmax needs --bipartite")
        sizes = args.multipartite
        label = "multipartite " + " ".join(str(s) for s in sizes)
        rows = []
        limit = ultimate_independent_domination_multipartite(sizes)
    if args.json:
        for k, r in rows:
            _emit(args, "", {"command": "domination", "input": f"{label} k={k}", "a": ratio_str(r)})
        _emit(args, "", {"command": "domination", "input": f"{label} limit", "a": ratio_str(limit)})
    else:
        print("k,r_i")
        for k, r in rows:
            print(f"{k},{ratio_str(r)}")
        print(f"I={ratio_str(limit)}")
    return EXIT_OK


def cmd_check(args):
    """Cross-check the engines and invariants on one graph.  The general
    engine's limit bounds each connected component, so the checks are
    skipped only when a component is over it, and the message gives that
    component's vertex count."""
    from fractions import Fraction

    from . import capacity as cap
    from .graph import graph_power, neighborhood

    g = _load_graph(args.file)
    failures = 0

    def report(name, ok, detail=""):
        nonlocal failures
        status = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"{name}: {status}{suffix}")
        if not ok:
            failures += 1

    try:
        base = cap.tensor_capacity(g)
    except LimitExceeded as exc:
        print(f"all checks skipped: {exc.required} vertices exceeds limit {oracle_limit()}")
        return EXIT_OK
    values = {"general": base.a}
    if g.n <= 20:
        values["brute"] = _lazy.a_bruteforce(g)[0]
    # a failed recognition only skips its engine, so no witness is searched for
    try:
        values["cograph"] = cap.a_cograph(_lazy.cograph_recognize(g, witness=False)).a
    except NotACograph:
        pass
    try:
        values["split"] = cap.a_split(g, _lazy.split_partition(g, obstruction=False)).a
    except NotASplitgraph:
        pass
    agree = len(set(values.values())) == 1
    report(
        "engines agree",
        agree,
        " vs ".join(f"{k}={ratio_str(v)}" for k, v in sorted(values.items())),
    )
    fpm = cap.has_fractional_perfect_matching(g)
    report("a*=1 iff no fractional perfect matching", (base.a_star == 1) == (not fpm))
    if g.n <= 5:
        squared = cap.tensor_capacity(graph_power(g, 2))
        report("toth a*(G^2)=a*(G)", squared.a_star == base.a_star)
    else:
        print("toth a*(G^2)=a*(G): skipped (size)")
    wit = base.witness
    ok = (
        bool(wit)
        and g.is_independent(wit)
        and base.a == Fraction(len(wit), len(wit) + len(neighborhood(g, wit)))
    )
    report("witness achieves a", ok)
    return EXIT_VIOLATION if failures else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="indeplib",
        description="Independent sets of tensor products and the tensor capacity.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable JSON-lines output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("product", help="write the categorical product (or power) as an edge list")
    p.add_argument("files", nargs="+")
    p.add_argument("--power", type=int, default=None, help="compute G^k of a single graph")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("alpha", help="alpha(G x H) via class engines or the explicit oracle")
    p.add_argument("files", nargs=2)
    eng = p.add_mutually_exclusive_group()
    eng.add_argument("--cotree", action="store_true", help="require the cograph engine")
    eng.add_argument("--split", action="store_true", help="require the splitgraph engine")
    eng.add_argument("--oracle", action="store_true", help="force explicit product + exact search")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("capacity", help="a(G) and theta = a*(G)")
    p.add_argument("file")
    eng = p.add_mutually_exclusive_group()
    eng.add_argument("--cotree", action="store_true", help="input file is a cotree expression")
    eng.add_argument("--interval", action="store_true", help="input file is an interval model")
    eng.add_argument("--permutation", action="store_true", help="input file is a permutation model")
    eng.add_argument("--td", default=None, help="tree decomposition file for the input graph")
    eng.add_argument("--split", action="store_true", help="use the splitgraph engine")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("domination", help="independent domination ratios of powers")
    p.add_argument("--bipartite", nargs=2, type=int, metavar=("M", "N"))
    p.add_argument("--multipartite", nargs="+", type=int, metavar="SIZE")
    p.add_argument("--kmax", type=int, help="largest power k, with --bipartite (default 10)")
    p.set_defaults(func=cmd_domination)

    p = sub.add_parser("check", help="run the invariant suite on one graph")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "domination" and bool(args.bipartite) == bool(args.multipartite):
        print("domination needs exactly one of --bipartite or --multipartite", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_LIMIT
    except VerificationError as exc:
        print(f"error: verification failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (IndeplibError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
