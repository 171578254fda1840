"""Pipeline trace: watch the controller orchestrate the two engines.

Runs one workload under a hardware probe and renders an ASCII Gantt
chart of the op slices on all six hardware units (``repro profile``
prints the same chart), then quantifies the inter-engine overlap the
GNNerator Controller delivers (Sec III-C): in a graph-first network the
Dense Engine starts consuming aggregated feature blocks long before the
Graph Engine has finished the layer; in GraphSAGE-Pool the order flips.

Run:  python examples/pipeline_trace.py [dataset] [network]
"""

import sys

from repro import GNNerator, build_network, load_dataset
from repro.obs import HwProbe
from repro.obs.hwtel import busy_intervals, overlap_cycles, render_gantt


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "cora"
    network = sys.argv[2] if len(sys.argv) > 2 else "gcn"

    graph = load_dataset(dataset)
    stats = {"cora": 7, "citeseer": 6, "pubmed": 3}
    model = build_network(network, graph.feature_dim,
                          stats.get(dataset, 4))

    accelerator = GNNerator()
    program = accelerator.compile(graph, model)
    probe = HwProbe()
    result = accelerator.simulate(program, probe=probe)
    ops = probe.ops

    print(f"{dataset} x {network}: {result.describe()}")
    print()
    print(render_gantt(ops))
    print()

    overlap = overlap_cycles(ops, "graph.compute", "dense.compute")
    graph_windows = busy_intervals(ops, "graph.compute")
    dense_windows = busy_intervals(ops, "dense.compute")
    graph_busy = sum(end - start for start, end in graph_windows)
    dense_busy = sum(end - start for start, end in dense_windows)
    print(f"graph.compute busy {graph_busy} cycles, dense.compute busy "
          f"{dense_busy} cycles, concurrent {overlap} cycles")
    if graph_windows and dense_windows:
        first_dense = dense_windows[0][0]
        last_graph = graph_windows[-1][1]
        if first_dense < last_graph:
            print(f"inter-stage pipelining: the Dense Engine started at "
                  f"cycle {first_dense}, {last_graph - first_dense} "
                  f"cycles before aggregation finished")
        else:
            print("engines ran back-to-back (no inter-stage overlap)")


if __name__ == "__main__":
    main()
