"""Fixed-seed benchmark for indeplib.

usage:
  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --smoke
  python3 perfbench/run.py --write-expected

Workloads (see BENCHMARK.json for why each was chosen): capacity_general,
capacity_classes, alpha_products, cli.  Each is a closed loop: one client,
one process, no threads; the next item starts when the previous one is
done (the cli workload runs one child process at a time).  The program
receives only the inputs generated from the seed and runs with whichever
kernel backend it picks for itself.

A run sets up eleven times (fresh import of indeplib from ``src/``, input
generation, file writing, one warm-up item) and reports the median as
``setup_s``.  It then times items for ``--seconds`` seconds, checking every
result outside the timed region.  Every timing is followed by a short
calibration sample and reported in reference time: wall time scaled to a
machine of fixed speed (see ``calibrate.py``), because the shared machines
the benchmark runs on change speed by tens of percent for minutes at a
time.  Wall-clock figures are printed and recorded beside them.  It prints
each metric with its unit and sample count, writes the full record (run
metadata included) under ``perfbench/out/``, and prints as its last line a
JSON object with the keys correct, attempted, failed and metrics.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run spends half its time untraced and half with timing wrappers on the
library's layers, and the metrics are per layer (per traced item) plus the
tracing overhead.

The exit code is 1 if any output was wrong, 2 if the library is missing.
``--smoke`` runs every workload once over tiny inputs, traced and not, and
shows that a corrupted result is counted as failed.  ``--write-expected``
records the exact answers at the default seed in ``expected_seed0.json``;
every run at that seed is compared against them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import spans
from workloads import HERE, ROOT, SRC, WORKLOADS, Wrong, child_env, load_lib

OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected_seed0.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 11
IMPORT_REPEATS = 5

# every time here is reference time (see calibrate.py)
END_TO_END_UNITS = {
    "items_per_ref_s": "1/s",
    "item_ref_ms_p50": "ms",
    "item_ref_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# the same figures in wall time, printed and recorded but not declared
WALL_UNITS = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "calib_step_ms": "ms",
}

# per-layer metrics: name -> (span name, what); "calls" and "self_s" are
# per traced item
LAYER_SPANS = {
    "kernels.maximal_independent_sets.self_s": ("kernels.maximal_independent_sets", "self"),
    "kernels.bipartite_matching.calls": ("kernels.bipartite_matching", "calls"),
    "kernels.bipartite_matching.self_s": ("kernels.bipartite_matching", "self"),
    "kernels.max_independent_set.calls": ("kernels.max_independent_set", "calls"),
    "kernels.max_independent_set.self_s": ("kernels.max_independent_set", "self"),
    "flow.min_ratio_subset.calls": ("flow.min_ratio_subset", "calls"),
    "flow.min_ratio_subset.self_s": ("flow.min_ratio_subset", "self"),
    "flow.max_flow.calls": ("flow.max_flow", "calls"),
    "flow.max_flow.self_s": ("flow.max_flow", "self"),
    "flow._ratio_network.self_s": ("flow._ratio_network", "self"),
    "capacity.tensor_capacity.self_s": ("capacity.tensor_capacity", "self"),
    "capacity.a_general_exact.self_s": ("capacity.a_general_exact", "self"),
    "capacity.a_interval.self_s": ("capacity.a_interval", "self"),
    "capacity.a_permutation.self_s": ("capacity.a_permutation", "self"),
    "capacity.a_treewidth.self_s": ("capacity.a_treewidth", "self"),
    "capacity.a_cograph.self_s": ("capacity.a_cograph", "self"),
    "capacity.a_split.self_s": ("capacity.a_split", "self"),
    "capacity._chain_dp.self_s": ("capacity._chain_dp", "self"),
    "capacity.treewidth_profile.self_s": ("capacity.treewidth_profile", "self"),
    "capacity.cograph_profile.self_s": ("capacity.cograph_profile", "self"),
    "capacity.verify.self_s": ("capacity.verify", "self"),
    "capacity.has_fractional_perfect_matching.calls": (
        "capacity.has_fractional_perfect_matching",
        "calls",
    ),
    "capacity.has_fractional_perfect_matching.self_s": (
        "capacity.has_fractional_perfect_matching",
        "self",
    ),
    "product_alpha.alpha_product_split.self_s": ("product_alpha.alpha_product_split", "self"),
    "product_alpha._SplitProductMIS.__init__.self_s": (
        "product_alpha._SplitProductMIS.__init__",
        "self",
    ),
    "product_alpha.alpha_product_cographs.self_s": (
        "product_alpha.alpha_product_cographs",
        "self",
    ),
    "product_alpha.extract_is_from_k4_product.self_s": (
        "product_alpha.extract_is_from_k4_product",
        "self",
    ),
    "graph.categorical_product.calls": ("graph.categorical_product", "calls"),
    "graph.categorical_product.self_s": ("graph.categorical_product", "self"),
    "oracles.alpha_exact.self_s": ("oracles.alpha_exact", "self"),
    "oracles.a_bruteforce.self_s": ("oracles.a_bruteforce", "self"),
    "cotree.cograph_recognize.calls": ("cotree.cograph_recognize", "calls"),
    "cotree.cograph_recognize.self_s": ("cotree.cograph_recognize", "self"),
    "cotree.find_p4.self_s": ("cotree.find_p4", "self"),
    "cotree.realize.self_s": ("cotree.realize", "self"),
    "splitgraph.split_partition.calls": ("splitgraph.split_partition", "calls"),
    "splitgraph.split_partition.self_s": ("splitgraph.split_partition", "self"),
    "splitgraph._find_obstruction.self_s": ("splitgraph._find_obstruction", "self"),
    "treedecomp.validate_and_nicify.self_s": ("treedecomp.validate_and_nicify", "self"),
    "intersection.realize_interval.self_s": ("intersection.realize_interval", "self"),
    "intersection.realize_permutation.self_s": ("intersection.realize_permutation", "self"),
    "io.parse.self_s": ("io.parse", "self"),
    "cli.main.self_s": ("cli.main", "self"),
    "bench.item.self_s": (spans.ITEM, "self"),
}
LAYER_COUNTS = {
    "kernels.maximal_independent_sets.sets": "kernels.maximal_independent_sets.sets",
    "graph.categorical_product.vertices": "graph.categorical_product.vertices",
    "treedecomp.nice_nodes.count": "treedecomp.nice_nodes.count",
}


def layer_unit(name):
    if name.endswith(".self_s"):
        return "s/item"
    if name.endswith(".calls"):
        return "calls/item"
    return "count/item"


# ---------------------------------------------------------------------------
# run metadata


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library sources, which identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    base = os.path.join(SRC, "indeplib")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def metadata(lib, workload, seed, trace):
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": "compiled" if lib.kernels.HAVE_COMPILED else "pure",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "source_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up and the timed loop


class State:
    """Per-run record of verified answers, keyed by pool index."""

    def __init__(self, expected):
        self.expected = expected
        self.verified = {}


def set_up(wl, seed, tiny):
    t0 = time.perf_counter()
    lib = load_lib(SRC)
    pool = wl.pool(lib, random.Random(f"{wl.name}:{seed}"), tiny)
    wl.prepare(lib, pool, os.path.join(OUT, "files", wl.name))
    wl.run(lib, wl.warm_up_item(lib, pool))
    return time.perf_counter() - t0, lib, pool


def verify(wl, lib, item, result, state):
    """None if the result is right, else why not."""
    first = item.index not in state.verified
    try:
        wl.check(lib, item, result, first)
        answer = wl.answer(item, result)
        if first:
            if state.expected is not None and answer != state.expected[item.index]:
                raise Wrong(f"expected {state.expected[item.index]}, got {answer}")
            state.verified[item.index] = answer
        elif answer != state.verified[item.index]:
            raise Wrong(f"answer changed on a repeat: {answer}")
    except Wrong as exc:
        return str(exc)
    except Exception as exc:  # a check that crashes is a failed item, not a crashed run
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def measure(wl, lib, pool, state, seconds=None, items=None, tracer=None, corrupt=False):
    """Closed loop over the pool, cycling it; stops after ``seconds`` of
    wall time or after ``items`` items.  Returns latencies, the calibration
    sample taken after each item, failures and the (kind, pool index) of
    each item."""
    latencies, samples, failures, kinds = [], [], [], []
    deadline = time.perf_counter() + (seconds or 0)
    i = 0
    while (i < items) if items is not None else (time.perf_counter() < deadline):
        item = pool[i % len(pool)]
        span = tracer.begin_item(i) if tracer else None
        t0 = time.perf_counter()
        try:
            result, error = wl.run(lib, item, tracer), None
        except Exception as exc:  # an item that raises is a failed item
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer:
            tracer.finish(span)
        samples.append(calibrate.sample(calibrate.SHARE * (t1 - t0)))
        latencies.append(t1 - t0)
        kinds.append((item.kind, item.index))
        if error is None:
            if corrupt:
                result = wl.corrupt(item, result)
            error = verify(wl, lib, item, result, state)
        if error is not None:
            failures.append(
                {"item": i, "pool_index": item.index, "kind": item.kind, "error": error}
            )
        i += 1
    return latencies, samples, failures, kinds


# ---------------------------------------------------------------------------
# metrics


def timing_figures(latencies, setup_times):
    """Throughput, median and 90th percentile of the item times and the
    median set-up time, with sample counts."""
    ms = [x * 1000 for x in latencies]
    n = len(ms)
    p90 = statistics.quantiles(ms, n=10)[8] if n >= 2 else ms[0]
    return {
        "items_per_s": (n / sum(latencies), f"{n} items"),
        "item_ms_p50": (statistics.median(ms), f"{n} items"),
        "item_ms_p90": (p90, f"{n} items, {sum(x > p90 for x in ms)} above"),
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups"),
    }


def end_to_end(latencies, samples, setup_times, setup_samples, peak_rss_mb):
    """The declared metrics, in reference time, and the same figures in
    wall time."""
    wall = timing_figures(latencies, setup_times)
    ref = timing_figures(
        calibrate.reference_times(latencies, samples),
        calibrate.reference_times(setup_times, setup_samples),
    )
    metrics = {
        "items_per_ref_s": ref["items_per_s"],
        "item_ref_ms_p50": ref["item_ms_p50"],
        "item_ref_ms_p90": ref["item_ms_p90"],
        "setup_s": ref["setup_s"],
        "peak_rss_mb": (peak_rss_mb, "1 reading"),
    }
    wall["calib_step_ms"] = (calibrate.step_seconds(samples) * 1000, f"{len(samples)} samples")
    return metrics, wall


def import_seconds():
    """Median wall time of a child that only imports indeplib.cli."""
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import indeplib.cli"],
            cwd=ROOT,
            env=child_env(),
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(tracer, traced, untraced, import_s):
    agg = tracer.aggregate()
    n = len(traced)
    out = {}
    for name, (span, what) in LAYER_SPANS.items():
        calls, _, self_s = agg.get(span, (0, 0.0, 0.0))
        out[name] = (calls if what == "calls" else self_s) / n
    for name, counter in LAYER_COUNTS.items():
        out[name] = tracer.counts[counter] / n
    ratio_calls = agg.get("flow.min_ratio_subset", (0,))[0]
    flows = agg.get("flow.max_flow", (0,))[0]
    out["flow.flows_per_set"] = flows / ratio_calls if ratio_calls else 0.0
    flow_self = sum(v[2] for k, v in agg.items() if k.startswith("flow."))
    out["flow.self_frac"] = flow_self / sum(traced)
    for span in ("cotree.cograph_recognize", "splitgraph.split_partition"):
        calls = agg.get(span, (0,))[0]
        out[span + ".recognized_frac"] = tracer.counts[span + ".ok"] / calls if calls else 0.0
    out["cli.import_s"] = import_s
    # overhead on the common prefix of the two passes (same items, same order)
    k = min(len(traced), len(untraced))
    ips_traced = k / sum(traced[:k])
    ips_untraced = k / sum(untraced[:k])
    out["trace.items_per_s_untraced"] = ips_untraced
    out["trace.items_per_s_traced"] = ips_traced
    out["trace.overhead_frac"] = ips_untraced / ips_traced - 1
    units = {name: layer_unit(name) for name in out}
    units.update(
        {
            "flow.flows_per_set": "ratio",
            "flow.self_frac": "fraction",
            "cotree.cograph_recognize.recognized_frac": "fraction",
            "splitgraph.split_partition.recognized_frac": "fraction",
            "cli.import_s": "s",
            "trace.items_per_s_untraced": "1/s",
            "trace.items_per_s_traced": "1/s",
            "trace.overhead_frac": "fraction",
        }
    )
    return out, units, agg


def module_shares(agg, traced):
    """Share of traced item time spent in each module's own code."""
    total = sum(traced)
    shares = {}
    for name, (_, _, self_s) in agg.items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + self_s / total
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def placements(workload, agg, shares):
    """The layer placements the workloads were designed for, as measured."""
    spans_in = {m: sum(v[0] for k, v in agg.items() if k.startswith(m + ".")) for m in shares}
    out = []
    if workload == "capacity_general":
        top = max((m for m in shares if m != "bench"), key=shares.get, default=None)
        out.append(("flow self time dominates", top == "flow", f"largest own-code share: {top}"))
        n = spans_in.get("product_alpha", 0)
        out.append(("no product_alpha spans", n == 0, f"{n} spans"))
    if workload == "alpha_products":
        n = spans_in.get("flow", 0)
        out.append(("no flow spans", n == 0, f"{n} spans"))
    return out


# ---------------------------------------------------------------------------
# entry points


def print_metrics(metrics, units, counts=None):
    for name, value in metrics.items():
        note = f"  ({counts[name]})" if counts and name in counts else ""
        print(f"  {name:<50} {value:>14.6g} {units[name]}{note}")


def write_record(name, record):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return path


def load_expected(name, seed):
    if seed != DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)[name]


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]()
    setup_times, setup_samples = [], []
    for _ in range(SETUP_REPEATS):
        lib = pool = None  # every set-up starts without the previous inputs
        elapsed, lib, pool = set_up(wl, seed, tiny=False)
        setup_samples.append(calibrate.sample(calibrate.SHARE * elapsed))
        setup_times.append(elapsed)
    meta = metadata(lib, name, seed, trace)
    state = State(load_expected(name, seed))
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    record = {"meta": meta, "pool_size": len(pool), "setup_s_each": setup_times}
    if not trace:
        latencies, samples, failures, kinds = measure(wl, lib, pool, state, seconds=seconds)
        who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        rss = resource.getrusage(who).ru_maxrss / 1024
        e2e, wall = end_to_end(latencies, samples, setup_times, setup_samples, rss)
        metrics = {k: v for k, (v, _) in e2e.items()}
        counts = {k: c for k, (_, c) in e2e.items()}
        counts["peak_rss_mb"] = "children, max" if name == "cli" else "this process"
        units = dict(END_TO_END_UNITS)
        record["wall"] = {k: v for k, (v, _) in wall.items()}
        attempted = len(latencies)
    else:
        untraced, _, failures, _ = measure(wl, lib, pool, state, seconds=seconds / 2)
        tracer = spans.Tracer()
        spans.install(tracer, lib)
        latencies, _, traced_failures, kinds = measure(
            wl, lib, pool, state, seconds=seconds / 2, tracer=tracer
        )
        failures += traced_failures
        import_s = import_seconds() if name == "cli" else 0.0
        metrics, units, agg = per_layer(tracer, latencies, untraced, import_s)
        counts = None
        shares = module_shares(agg, latencies)
        checks = placements(name, agg, shares)
        record["module_self_share"] = shares
        record["placements"] = [{"claim": c, "holds": ok, "detail": d} for c, ok, d in checks]
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        spans_path = os.path.join(OUT, "spans", f"{name}-seed{seed}.jsonl")
        tracer.write(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
        attempted = len(untraced) + len(latencies)
    failed = len(failures)
    print(f"workload {name}: {attempted} items, {failed} failed")
    print_metrics(metrics, units, counts)
    if not trace:
        print("  the same in wall time (not declared):")
        print_metrics(record["wall"], WALL_UNITS, {k: c for k, (_, c) in wall.items()})
    frac = failed / attempted
    print(f"  {'failed_frac':<50} {frac:>14.6g} fraction  ({failed}/{attempted} items)")
    if trace:
        print("  own-code share of traced item time by module:")
        for module, share in shares.items():
            print(f"    {module:<20} {share:7.1%}")
        for claim, ok, detail in checks:
            print(f"  placement: {claim}: {'confirmed' if ok else 'NOT MET'} ({detail})")
    for f in failures[:10]:
        where = f"{f['item']} ({f['kind']}, pool {f['pool_index']})"
        print(f"  FAILED item {where}: {f['error']}", file=sys.stderr)
    record.update(
        metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        samples=counts,
        attempted=attempted,
        failed=failed,
        failed_frac=frac,
        failures=failures[:50],
        items=[[kind, index, round(t * 1000, 3)] for (kind, index), t in zip(kinds, latencies)],
    )
    path = write_record(f"{name}-seed{seed}-trace{int(trace)}", record)
    print(f"record: {os.path.relpath(path, ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def smoke():
    """Every workload on tiny inputs: untraced, traced, then with each
    result corrupted, which the checks must catch every time.  Also checks
    that the metrics reported are the ones BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        key: {m["name"]: m["unit"] for m in bench[key]} for key in ("end_to_end", "per_layer")
    }
    ok = True
    for name, cls in WORKLOADS.items():
        wl = cls()
        _, lib, pool = set_up(wl, DEFAULT_SEED, tiny=True)
        state = State(None)
        lat, _, fails, _ = measure(wl, lib, pool, state, items=len(pool))
        tracer = spans.Tracer()
        spans.install(tracer, lib)
        lat_t, _, fails_t, _ = measure(wl, lib, pool, state, items=len(pool), tracer=tracer)
        _, layer_units, _ = per_layer(tracer, lat_t, lat, 0.0)
        if layer_units != declared["per_layer"] or END_TO_END_UNITS != declared["end_to_end"]:
            print(f"{name}: metric names or units differ from BENCHMARK.json", file=sys.stderr)
            ok = False
        lib = load_lib(SRC)  # drop the wrappers
        _, _, bad, _ = measure(wl, lib, pool, State(None), items=len(pool), corrupt=True)
        caught = {f["item"] for f in bad}
        good = not fails and not fails_t and len(caught) == len(pool) and len(tracer.start) > 0
        ok &= good
        print(
            f"{name}: {len(pool)} items, {len(fails) + len(fails_t)} failed clean"
            f" (untraced and traced), {len(caught)}/{len(pool)} corrupted results"
            f" counted as failed, {len(tracer.start)} spans: {'ok' if good else 'FAILED'}"
        )
        for f in (fails + fails_t)[:5]:
            print(f"  {f}", file=sys.stderr)
    return 0 if ok else 1


def write_expected():
    """Record the witness-free answers for every pool item at the default
    seed, after checking each one."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls()
        _, lib, pool = set_up(wl, DEFAULT_SEED, tiny=False)
        state = State(None)
        _, _, fails, _ = measure(wl, lib, pool, state, items=len(pool))
        if fails:
            print(f"{name}: {len(fails)} items failed; nothing written", file=sys.stderr)
            return 1
        out[name] = [state.verified[i] for i in range(len(pool))]
        print(f"{name}: {len(pool)} answers")
    lines = []
    for name, answers in sorted(out.items()):
        rows = ",\n".join("  " + json.dumps(answer) for answer in answers)
        lines.append(f' "{name}": [\n{rows}\n ]')
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")  # one answer per line
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--smoke", action="store_true", help="tiny inputs, traced, corrupted")
    mode.add_argument(
        "--write-expected", action="store_true", help=f"rewrite {os.path.basename(EXPECTED)}"
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "indeplib", "__init__.py")):
        print(f"error: no indeplib sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.write_expected:
        return write_expected()
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
