"""Exhaustive corner-regime sweep: degenerate graphs x every network x
both traversals x extreme block sizes x sparsity elimination.

Each configuration must compile, validate, match the reference
functionally, and simulate to completion — the robustness bar for a
toolchain someone else will point at their own graphs.
"""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import GNNerator
from repro.analysis.passes.validation import validate_program
from repro.compiler.runtime import run_functional
from repro.config.platforms import gnnerator_config
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.graph.generators import erdos_renyi, path_graph, star_graph
from repro.graph.graph import Graph
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.zoo import build_network


def _one_node() -> Graph:
    graph = Graph(1, [], [], name="one")
    graph.features = np.ones((1, 6), dtype=np.float32)
    return graph


def _no_edges() -> Graph:
    graph = Graph(12, [], [], name="noedges")
    rng = np.random.default_rng(0)
    graph.features = rng.standard_normal((12, 6)).astype(np.float32)
    return graph


GRAPHS = {
    "er": lambda: erdos_renyi(35, 150, feature_dim=11, seed=1),
    "star": lambda: star_graph(30, feature_dim=7, seed=2),
    "path": lambda: path_graph(8, feature_dim=5, seed=3),
    "one-node": _one_node,
    "no-edges": _no_edges,
}


@pytest.fixture(scope="module")
def graphs():
    return {name: build() for name, build in GRAPHS.items()}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("network", ["gcn", "graphsage",
                                     "graphsage-pool"])
@pytest.mark.parametrize("traversal", [DST_STATIONARY, SRC_STATIONARY])
def test_corner_configurations(graphs, graph_name, network, traversal):
    graph = graphs[graph_name]
    model = build_network(network, graph.feature_dim, 3, hidden_dim=8)
    params = init_parameters(model, seed=1)
    reference = reference_forward(model, graph, params)
    for block in (4, None, 1):
        for elimination in (False, True):
            config = dataclasses.replace(
                gnnerator_config(feature_block=block),
                sparsity_elimination=elimination)
            accelerator = GNNerator(config)
            program = accelerator.compile(graph, model, traversal=traversal,
                                          feature_block=block)
            validate_program(program)
            out = run_functional(program, graph, params)
            np.testing.assert_allclose(out, reference, rtol=2e-3,
                                       atol=1e-3)
            result = accelerator.simulate(program)
            assert result.cycles > 0
