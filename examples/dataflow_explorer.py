"""Dataflow explorer: how B and the traversal order shape a workload.

Sweeps the feature-block size and both shard traversal orders for one
dataset/network pair, reporting the shard grid, DRAM traffic split by
purpose, and simulated latency — the raw material behind Fig 4 and
Table I. Useful for building intuition about *why* dimension blocking
wins: watch S collapse and the src-features column shrink as B drops.

Run:  python examples/dataflow_explorer.py [dataset] [network]
"""

import sys

from repro import GNNerator, gnnerator_config
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.dataflow.costs import traversal_cost
from repro.eval.harness import Harness
from repro.eval.report import format_table
from repro.config.workload import WorkloadSpec
from repro.graph.partition import plan_shards


def explore(dataset: str, network: str) -> None:
    harness = Harness()
    spec = WorkloadSpec(dataset=dataset, network=network)
    graph = harness.graph(dataset)
    model = harness.model(spec)
    config = gnnerator_config()

    print(f"=== {dataset} x {network} ===")
    rows = []
    for block in (32, 64, 128, 256, None):
        accelerator = GNNerator(config.with_feature_block(block))
        grid = plan_shards(graph, config.graph,
                           block=block or graph.feature_dim)
        result = accelerator.run(graph, model, feature_block=block)
        traffic = result.dram_bytes_by_purpose
        rows.append({
            "B": str(block or f"D={graph.feature_dim}"),
            "S": str(grid.grid_side),
            "cycles": str(result.cycles),
            "src-feat MB":
                f"{traffic.get('src-features', 0) / 1e6:.1f}",
            "agg-wb MB":
                f"{traffic.get('agg-writeback', 0) / 1e6:.1f}",
            "dense-in MB": f"{traffic.get('input', 0) / 1e6:.1f}",
            "total MB": f"{result.total_dram_bytes / 1e6:.1f}",
        })
    print(format_table(rows, title="Feature-block sweep "
                                   "(dst-stationary)"))
    print()

    rows = []
    for order in (DST_STATIONARY, SRC_STATIONARY):
        grid = plan_shards(graph, config.graph, block=graph.feature_dim)
        analytic = traversal_cost(order, grid.grid_side,
                                  grid.interval_size)
        accelerator = GNNerator(config.with_feature_block(None))
        result = accelerator.run(graph, model, traversal=order,
                                 feature_block=None)
        rows.append({
            "order": order,
            "analytic reads (rows)": str(analytic.read_rows),
            "analytic writes (rows)": str(analytic.write_rows),
            "cycles": str(result.cycles),
            "DRAM MB": f"{result.total_dram_bytes / 1e6:.1f}",
        })
    print(format_table(rows, title="Traversal order (unblocked, "
                                   "Table I in action)"))


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "citeseer"
    network = sys.argv[2] if len(sys.argv) > 2 else "gcn"
    explore(dataset, network)


if __name__ == "__main__":
    main()
