"""Compare two sets of benchmark records, metric by metric.

usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by run.py (copies of
``perfbench/out/results/*.json``), for instance ten seeds of the parent
commit and ten of a change.  Records are grouped by workload and by
traced/untraced; for each metric the script prints both medians, the
change, the base's own spread (quartile distance over median) and, for the
end-to-end metrics, whether the change is worse than BENCHMARK.json's bound.

Runs whose kernel backends differ (compiled against pure) are not
comparable: the script refuses them and exits 2.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        meta = record["meta"]
        groups.setdefault((meta["workload"], bool(meta["trace"])), []).append(record)
    return groups


def spread(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    records = [r for group in (*base.values(), *new.values()) for r in group]
    backends = {r["meta"]["backend"] for r in records}
    if len(backends) > 1:
        print(f"refusing to compare runs of kernel backends {sorted(backends)}", file=sys.stderr)
        return 2
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, traced = key
        print(f"{workload} ({'traced' if traced else 'untraced'}): "
              f"{len(base[key])} base runs, {len(new[key])} new runs")
        for name in base[key][0]["metrics"]:
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            change = (mn - mb) / mb if mb else float("nan")
            spec = declared.get(name, {})
            verdict = ""
            if "bound" in spec:
                loss = change if spec["better"] == "lower" else -change
                verdict = "WORSE than bound" if loss > spec["bound"] else "within bound"
                worse += loss > spec["bound"]
            print(f"  {name:<50} {mb:12.6g} -> {mn:12.6g} {change:+8.1%}"
                  f"  base spread {spread(b):6.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
