"""EDA scenario: congestion prediction on a circuit netlist.

The paper's introduction motivates GNNs with electronic design
automation (Circuit-GNN, ICML 2019). This example builds a synthetic
standard-cell netlist — rows of cells with local routing plus a clock
tree and a few high-fanout control nets, the structure that makes
congestion prediction graph-shaped — attaches per-cell physical
features, and evaluates a GraphSAGE congestion predictor on GNNerator.

High-fanout nets are exactly the load-imbalance case the Graph Engine's
destination-hashed GPE distribution has to absorb; the example reports
the achieved GPE utilisation alongside latency.

Run:  python examples/eda_netlist_congestion.py
"""

import numpy as np

from repro import GNNerator, GpuModel, build_network
from repro.engines.graph.gpe import gpe_utilization, max_gpe_edges
from repro.graph.graph import Graph


def build_netlist(rows: int = 64, cols: int = 64, seed: int = 7) -> Graph:
    """A placed standard-cell grid with local nets, a clock tree, and
    high-fanout control signals (messages flow driver -> sink)."""
    rng = np.random.default_rng(seed)
    num_cells = rows * cols
    edges = []

    def cell(r, c):
        return r * cols + c

    # Local routing: each cell drives 1-3 near neighbours.
    for r in range(rows):
        for c in range(cols):
            for _ in range(int(rng.integers(1, 4))):
                dr, dc = rng.integers(-2, 3, size=2)
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols and (dr, dc) != (0, 0):
                    edges.append((cell(r, c), cell(rr, cc)))

    # Clock tree: a 4-ary tree from cell 0 over a sample of sinks.
    sinks = rng.choice(num_cells, size=num_cells // 4, replace=False)
    frontier = [0]
    for sink in sinks:
        driver = frontier[int(rng.integers(0, len(frontier)))]
        edges.append((int(driver), int(sink)))
        if len(frontier) < 64:
            frontier.append(int(sink))

    # High-fanout control nets (reset, enable): classic congestion
    # hot-spots and the GPE load-imbalance stress case.
    for _ in range(4):
        driver = int(rng.integers(0, num_cells))
        fanout = rng.choice(num_cells, size=300, replace=False)
        edges.extend((driver, int(s)) for s in fanout if s != driver)

    unique = sorted(set(edges))
    src, dst = zip(*unique)
    graph = Graph(num_cells, np.array(src), np.array(dst),
                  name="netlist-64x64")
    # Congestion influence propagates both driver->sink and sink->driver;
    # symmetrising also turns high-fanout drivers into hub destinations,
    # the Graph Engine's load-imbalance stress case.
    graph = graph.with_reverse_edges()

    # Per-cell features: position, size, pin counts, cell-type one-hot.
    xy = np.stack(np.meshgrid(np.arange(rows), np.arange(cols),
                              indexing="ij"), axis=-1)
    position = (xy.reshape(num_cells, 2) / max(rows, cols))
    pins = rng.poisson(4.0, size=(num_cells, 2))
    celltype = np.eye(12, dtype=np.float32)[
        rng.integers(0, 12, size=num_cells)]
    graph.features = np.concatenate(
        [position, pins, celltype], axis=1).astype(np.float32)
    return graph


def main() -> None:
    graph = build_netlist()
    print(f"netlist: {graph.num_nodes} cells, {graph.num_edges} "
          f"driver->sink arcs, {graph.feature_dim} features/cell")
    degrees = graph.in_degrees()
    print(f"max fanin {degrees.max()}, mean {degrees.mean():.1f} "
          f"(high-fanout control nets create hub destinations)")

    # Congestion predictor: 2-hop GraphSAGE, 3 congestion classes.
    model = build_network("graphsage", graph.feature_dim, num_classes=3,
                          hidden_dim=32)

    accelerator = GNNerator()
    program = accelerator.compile(graph, model)
    result = accelerator.simulate(program)
    print(f"GNNerator: {result.describe()}")

    # How badly do the control-net hubs skew GPE load?
    grid = program.grids[(0, 0)]
    shard = max(grid.nonempty_shards(), key=lambda s: s.num_edges)
    util = gpe_utilization(shard, accelerator.config.graph.num_gpes)
    worst = max_gpe_edges(shard, accelerator.config.graph.num_gpes)
    print(f"busiest shard: {shard.num_edges} edges, worst GPE carries "
          f"{worst} ({util:.0%} of ideal balance)")

    gpu = GpuModel().run(graph, model)
    print(f"RTX 2080 Ti model: {gpu.describe()} -> "
          f"{gpu.seconds / result.seconds:.1f}x speedup on GNNerator")


if __name__ == "__main__":
    main()
