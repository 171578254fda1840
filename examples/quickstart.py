"""Quickstart: simulate a GCN forward pass on GNNerator.

Loads the Cora benchmark graph, builds the Table III GCN, compiles it
with the feature dimension-blocking dataflow, checks the compiled
program computes exactly what the numpy reference computes, and then
reports simulated latency against the GPU and HyGCN baselines.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    GNNerator,
    GpuModel,
    HyGCNModel,
    build_network,
    init_parameters,
    load_dataset,
    reference_forward,
    run_functional,
)


def main() -> None:
    # 1. A benchmark graph (synthesised to Cora's published statistics;
    #    drop real Planetoid files in ./data to use them instead).
    graph = load_dataset("cora")
    print(f"graph: {graph.name}, {graph.num_nodes} nodes, "
          f"{graph.num_edges} edges, {graph.feature_dim}-dim features")

    # 2. A 2-layer GCN (Table III: one hidden layer of dimension 16).
    model = build_network("gcn", graph.feature_dim, num_classes=7)
    params = init_parameters(model, seed=0)

    # 3. Compile for the accelerator and verify functional correctness:
    #    the sharded, dimension-blocked program must match plain numpy.
    accelerator = GNNerator()
    program = accelerator.compile(graph, model)
    print(f"compiled: {program.describe()}")

    expected = reference_forward(model, graph, params)
    actual = run_functional(program, graph, params)
    np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-3)
    print("functional check: compiled execution matches the reference")

    # 4. Timing simulation on the Table IV platform.
    result = accelerator.simulate(program)
    print(f"GNNerator: {result.describe()}")

    # 5. Baselines.
    gpu = GpuModel().run(graph, model)
    hygcn = HyGCNModel().run(graph, model)
    print(f"RTX 2080 Ti model: {gpu.describe()}")
    print(f"HyGCN model:       {hygcn.describe()}")
    print(f"speedup vs GPU:   {gpu.seconds / result.seconds:.1f}x")
    print(f"speedup vs HyGCN: {hygcn.seconds / result.seconds:.1f}x")


if __name__ == "__main__":
    main()
