"""Microbenchmarks of the framework itself (compiler and simulator
throughput) — useful when optimising the reproduction, and a guard
against order-of-magnitude regressions in the toolchain.
"""

from repro.accelerator import GNNerator
from repro.compiler.lowering import compile_workload
from repro.compiler.runtime import run_functional
from repro.config.platforms import gnnerator_config
from repro.graph.datasets import load_dataset
from repro.graph.partition import plan_shards
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.zoo import build_network


def test_compile_throughput(benchmark):
    """Compiling cora-gcn (blocked): the full lowering pipeline."""
    graph = load_dataset("cora")
    model = build_network("gcn", graph.feature_dim, 7)
    config = gnnerator_config()
    program = benchmark(compile_workload, graph, model, config)
    assert program.num_operations > 0


def test_simulation_throughput(benchmark):
    """DES replay of a precompiled cora-gcn program."""
    graph = load_dataset("cora")
    model = build_network("gcn", graph.feature_dim, 7)
    accelerator = GNNerator(gnnerator_config())
    program = accelerator.compile(graph, model)
    result = benchmark(accelerator.simulate, program)
    assert result.cycles > 0


def test_sharding_throughput(benchmark):
    """Scattering pubmed's 88k edges into the 2-D grid."""
    graph = load_dataset("pubmed")
    config = gnnerator_config()
    grid = benchmark(plan_shards, graph, config.graph, 64)
    assert grid.num_edges == graph.num_edges


def test_reference_forward_throughput(benchmark):
    """numpy reference forward on cora (the functional ground truth)."""
    graph = load_dataset("cora")
    model = build_network("gcn", graph.feature_dim, 7)
    params = init_parameters(model)
    out = benchmark(reference_forward, model, graph, params)
    assert out.shape == (graph.num_nodes, 7)


def test_functional_runtime_throughput(benchmark):
    """Interpreting the compiled cora-gcn program functionally."""
    graph = load_dataset("cora")
    model = build_network("gcn", graph.feature_dim, 7)
    config = gnnerator_config()
    params = init_parameters(model)
    program = compile_workload(graph, model, config)
    out = benchmark(run_functional, program, graph, params)
    assert out.shape == (graph.num_nodes, 7)
