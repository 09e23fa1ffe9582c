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
        lib.capacity.a_cograph(lib.cotree.parse_cotree("(* (+ 0 1) 2)"))
        lib.capacity.a_interval(lib.intersection.IntervalModel(((0, 1), (1, 2), (2, 3))))
        lib.capacity.a_permutation(lib.intersection.PermutationModel((1, 0, 2)))
        p5 = path_graph(5)
        nice = lib.treedecomp.validate_and_nicify(
            p5, [{i, i + 1} for i in range(4)], [(i, i + 1) for i in range(3)]
        )
        lib.capacity.a_treewidth(p5, nice)
        tracer.finish(item)
        calls = {name: c for name, (c, _, _) in tracer.aggregate().items()}
        assert calls["capacity._chain_dp"] >= 2
        assert calls["capacity.treewidth_profile"] == 2  # P5: one improving step, one final
        assert calls["capacity.cograph_profile"] >= 2  # P3: {0} improves to {0, 1}
    finally:
        sys.path.remove(PERFBENCH)
        for name in _indeplib_modules():
            del sys.modules[name]
        sys.modules.update(saved)
