"""The benchmark's trace wrappers bind library names; a rename in ``src/``
that breaks ``perfbench/run.py --trace 1`` fails here."""

import os
import sys

import pytest

from indeplib.graph import Graph, cycle_graph, path_graph

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _indeplib_modules():
    return {k: v for k, v in sys.modules.items() if k == "indeplib" or k.startswith("indeplib.")}


def test_trace_wrappers_install_and_count():
    saved = _indeplib_modules()
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
        import workloads

        lib = workloads.load_lib(workloads.SRC)
        tracer = spans.Tracer()
        spans.install(tracer, lib)
        paw = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        part = lib.splitgraph.split_partition(paw)
        item = tracer.begin_item(0)
        lib.product_alpha.alpha_product_split(paw, part, paw, part)
        lib.capacity.tensor_capacity(paw, split=part)
        # failed recognitions reach their witness finders as module globals
        with pytest.raises(lib.errors.NotACograph):
            lib.cotree.cograph_recognize(path_graph(4))
        with pytest.raises(lib.errors.NotASplitgraph):
            lib.splitgraph.split_partition(cycle_graph(4))
        tracer.finish(item)
        calls = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        assert calls["product_alpha.alpha_product_split"] == 1
        assert calls["capacity.has_fractional_perfect_matching"] == 1
        assert calls["kernels.bipartite_matching"] >= 2
        assert calls["cotree.find_p4"] == 1
        assert calls["splitgraph._find_obstruction"] == 1
        # the cograph, chain and treewidth engines reach their steps as
        # module globals
        item = tracer.begin_item(1)
        # the cotree and the decomposition are of K2 + P3, whose start is
        # not optimal: the greedy start takes one end of the K2 and both
        # leaves of the P3 (ratio 3/5), and one improving step drops the K2
        # (a = 2/3)
        lib.capacity.a_cograph(lib.cotree.parse_cotree("(+ (* 0 1) (* (+ 2 3) 4))"))
        lib.capacity.a_interval(lib.intersection.IntervalModel(((0, 1), (1, 2), (2, 3))))
        lib.capacity.a_permutation(lib.intersection.PermutationModel((1, 0, 2)))
        k2p3 = Graph(5, [(0, 1), (2, 3), (3, 4)])
        nice = lib.treedecomp.validate_and_nicify(k2p3, [{0, 1}, {2, 3}, {3, 4}], [(0, 1), (1, 2)])
        lib.capacity.a_treewidth(k2p3, nice)
        tracer.finish(item)
        calls = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        assert calls["capacity._chain_dp"] >= 2
        assert calls["capacity.treewidth_profile"] == 2  # one improving step, one final
        assert calls["capacity.cograph_profile"] == 2  # one improving step, one final
        # the general engine reaches the ratio minimizer through the name the
        # tracer wraps, once on C5: for the greedy set, as its search solves
        # no set with it; the independent domination oracle reaches the
        # maximal-set enumeration, which counts C5's five sets
        item = tracer.begin_item(2)
        lib.capacity.tensor_capacity(cycle_graph(5))
        assert lib.oracles.independent_domination_exact(cycle_graph(5)) == 2
        tracer.finish(item)
        after = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        assert after["flow.min_ratio_subset"] - calls["flow.min_ratio_subset"] == 1
        assert after["kernels.maximal_independent_sets"] >= 1
        assert tracer.counts["kernels.maximal_independent_sets.sets"] == 5
        # a disconnected graph is one engine call with one witness check and
        # one matching test, however many components it has
        item = tracer.begin_item(3)
        lib.capacity.tensor_capacity(Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6)]))
        tracer.finish(item)
        last = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        for name in (
            "capacity.a_general_exact",
            "capacity.verify",
            "capacity.has_fractional_perfect_matching",
        ):
            assert last[name] - after[name] == 1, name
        # tensor_capacity hands each of these certificates to its public
        # engine, so each engine's span counts the call
        item = tracer.begin_item(4)
        lib.capacity.tensor_capacity(cotree=lib.cotree.parse_cotree("(* 0 (+ 1 2))"))
        lib.capacity.tensor_capacity(
            interval=lib.intersection.IntervalModel(((1, 2), (0, 1), (2, 3)))
        )
        lib.capacity.tensor_capacity(permutation=lib.intersection.PermutationModel((2, 0, 1)))
        tracer.finish(item)
        certified = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        for name in ("capacity.a_cograph", "capacity.a_interval", "capacity.a_permutation"):
            assert certified[name] - last[name] == 1, name
    finally:
        sys.path.remove(PERFBENCH)
        for name in _indeplib_modules():
            del sys.modules[name]
        sys.modules.update(saved)
