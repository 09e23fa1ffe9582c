"""Span recorder and the timing wrappers installed on indeplib's layers.

Wrappers are installed by replacing module and class attributes where the
calling module looks them up (``capacity.min_ratio_subset``,
``flow.max_flow``, ``product_alpha.bipartite_matching`` ...), so nothing
under ``src/`` changes.  A span is (name, start, end, parent, item id);
spans live in flat arrays while the run lasts and are written out at the
end.  A span's self time is its duration minus the durations of its child
spans (children nest inside their parent, one thread).
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter

ITEM = "bench.item"


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.item = array("q")
        self.counts = Counter()
        self._stack = []
        self._item_id = -1

    def name_id(self, name):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def begin(self, idx):
        i = len(self.start)
        self.name.append(idx)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item_id)
        self._stack.append(i)
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def begin_item(self, item_id):
        self._item_id = item_id
        return self.begin(self.name_id(ITEM))

    def add_child(self, spans, counts):
        """Graft spans and counters recorded by a child process under the
        open span.

        ``spans`` is a list of (name, start, end, parent) with parent
        indices local to the list; perf_counter_ns is system-wide on Linux,
        so the times need no shift."""
        self.counts.update(counts)
        parent = self._stack[-1] if self._stack else -1
        base = len(self.start)
        for name, start, end, par in spans:
            self.name.append(self.name_id(name))
            self.start.append(start)
            self.end.append(end)
            self.parent.append(parent if par < 0 else base + par)
            self.item.append(self._item_id)

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, count=None, ok=False):
        """Time every call of fn as a span.  ``count`` is a pair (counter
        name, function of the result giving the amount to add); with ``ok``
        the counter ``<name>.ok`` counts normal returns."""
        idx = self.name_id(name)
        counts = self.counts
        count_name, count_fn = count if count else (None, None)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            i = self.begin(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if count_fn is not None:
                counts[count_name] += count_fn(result)
            if ok:
                counts[name + ".ok"] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_iter(self, name, fn, count_name):
        """Time the call of an iterator factory and every ``next()`` on its
        result under one span name; count the items yielded."""
        idx = self.name_id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            if not self._stack:
                yield from fn(*args, **kwargs)
                return
            i = self.begin(idx)
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self.finish(i)
            while True:
                i = self.begin(idx)
                try:
                    value = next(it)
                except StopIteration:
                    return
                finally:
                    self.finish(i)
                counts[count_name] += 1
                yield value

        traced.__wrapped__ = fn
        return traced

    # -- aggregation and output --------------------------------------------

    def aggregate(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = Counter()
        total = Counter()
        selfs = Counter()
        for i in range(n):
            name = self.names[self.name[i]]
            dur = end[i] - start[i]
            calls[name] += 1
            total[name] += dur
            selfs[name] += dur - child[i]
        return {
            name: (calls[name], total[name] / 1e9, selfs[name] / 1e9) for name in calls
        }

    def spans(self):
        for i in range(len(self.start)):
            yield (
                self.names[self.name[i]],
                self.start[i],
                self.end[i],
                self.parent[i],
                self.item[i],
            )

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start_ns", "end_ns", "parent", "item"]}\n')
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# entry points per layer, as the calling modules bind them


def install(tracer, lib):
    """Install timing wrappers on the modules in ``lib`` (a namespace of
    freshly imported indeplib modules)."""
    cap, flow, kern = lib.capacity, lib.flow, lib.kernels
    pa, graph, oracles = lib.product_alpha, lib.graph, lib.oracles
    cli = lib.cli
    nv = ("graph.categorical_product.vertices", lambda g: g.n)
    nn = ("treedecomp.nice_nodes.count", lambda d: len(d.nodes))
    w = tracer.wrap
    patches = [
        # kernels, bound as ``kernels.<fn>`` by oracles and flow, and by name
        # in capacity and product_alpha
        (kern, "maximal_independent_sets",
         tracer.wrap_iter("kernels.maximal_independent_sets", kern.maximal_independent_sets,
                          "kernels.maximal_independent_sets.sets")),
        (kern, "max_independent_set", w("kernels.max_independent_set", kern.max_independent_set)),
        (kern, "bipartite_matching", w("kernels.bipartite_matching", kern.bipartite_matching)),
        (cap, "bipartite_matching", w("kernels.bipartite_matching", cap.bipartite_matching)),
        (pa, "bipartite_matching", w("kernels.bipartite_matching", pa.bipartite_matching)),
        # flow
        (cap, "min_ratio_subset", w("flow.min_ratio_subset", cap.min_ratio_subset)),
        (flow, "max_flow", w("flow.max_flow", flow.max_flow)),
        (flow, "_ratio_network", w("flow._ratio_network", flow._ratio_network)),
        # capacity engines, DPs and verification
        (cap, "tensor_capacity", w("capacity.tensor_capacity", cap.tensor_capacity)),
        (cap, "a_general_exact", w("capacity.a_general_exact", cap.a_general_exact)),
        (cap, "a_interval", w("capacity.a_interval", cap.a_interval)),
        (cap, "a_permutation", w("capacity.a_permutation", cap.a_permutation)),
        (cap, "a_treewidth", w("capacity.a_treewidth", cap.a_treewidth)),
        (cap, "a_cograph", w("capacity.a_cograph", cap.a_cograph)),
        (cap, "a_split", w("capacity.a_split", cap.a_split)),
        (cap, "_chain_dp", w("capacity._chain_dp", cap._chain_dp)),
        (cap, "treewidth_profile", w("capacity.treewidth_profile", cap.treewidth_profile)),
        (cap, "cograph_profile", w("capacity.cograph_profile", cap.cograph_profile)),
        (cap, "_finish", w("capacity.verify", cap._finish)),
        (cap.NeighborhoodProfile, "verify", w("capacity.verify", cap.NeighborhoodProfile.verify)),
        (cap, "has_fractional_perfect_matching",
         w("capacity.has_fractional_perfect_matching", cap.has_fractional_perfect_matching)),
        (cap, "realize", w("cotree.realize", cap.realize)),
        (cap, "realize_interval", w("intersection.realize_interval", cap.realize_interval)),
        (cap, "realize_permutation",
         w("intersection.realize_permutation", cap.realize_permutation)),
        # products
        (pa, "alpha_product_split", w("product_alpha.alpha_product_split", pa.alpha_product_split)),
        (pa._SplitProductMIS, "__init__",
         w("product_alpha._SplitProductMIS.__init__", pa._SplitProductMIS.__init__)),
        (pa, "alpha_product_cographs",
         w("product_alpha.alpha_product_cographs", pa.alpha_product_cographs)),
        (pa, "extract_is_from_k4_product",
         w("product_alpha.extract_is_from_k4_product", pa.extract_is_from_k4_product)),
        (pa, "categorical_product",
         w("graph.categorical_product", pa.categorical_product, count=nv)),
        (graph, "categorical_product",
         w("graph.categorical_product", graph.categorical_product, count=nv)),
        (oracles, "alpha_exact", w("oracles.alpha_exact", oracles.alpha_exact)),
        # recognition
        (lib.cotree, "cograph_recognize",
         w("cotree.cograph_recognize", lib.cotree.cograph_recognize, ok=True)),
        (lib.cotree, "find_p4", w("cotree.find_p4", lib.cotree.find_p4)),
        (lib.splitgraph, "split_partition",
         w("splitgraph.split_partition", lib.splitgraph.split_partition, ok=True)),
        (lib.splitgraph, "_find_obstruction",
         w("splitgraph._find_obstruction", lib.splitgraph._find_obstruction)),
        # tree decompositions
        (lib.treedecomp, "validate_and_nicify",
         w("treedecomp.validate_and_nicify", lib.treedecomp.validate_and_nicify, count=nn)),
        # command line front end: its own bindings of the names above
        (cli, "cograph_recognize",
         w("cotree.cograph_recognize", cli.cograph_recognize, ok=True)),
        (cli, "split_partition",
         w("splitgraph.split_partition", cli.split_partition, ok=True)),
        (cli, "validate_and_nicify",
         w("treedecomp.validate_and_nicify", cli.validate_and_nicify, count=nn)),
        (cli, "alpha_product_split",
         w("product_alpha.alpha_product_split", cli.alpha_product_split)),
        (cli, "alpha_product_cographs",
         w("product_alpha.alpha_product_cographs", cli.alpha_product_cographs)),
        (cli, "categorical_product",
         w("graph.categorical_product", cli.categorical_product, count=nv)),
        (cli, "alpha_exact", w("oracles.alpha_exact", cli.alpha_exact)),
        (cli, "a_bruteforce", w("oracles.a_bruteforce", cli.a_bruteforce)),
    ]
    for fn_name in (
        "parse_graph",
        "parse_interval_model",
        "parse_permutation_model",
        "parse_tree_decomposition",
        "parse_cotree_file",
        "read_text",
    ):
        patches.append((lib.io, fn_name, w("io.parse", getattr(lib.io, fn_name))))
    for owner, attr, wrapper in patches:
        setattr(owner, attr, wrapper)
