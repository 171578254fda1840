"""Functional-equivalence tests: compiled programs vs the reference.

This is the repository's central invariant (DESIGN.md §5.3): sharded,
dimension-blocked, partial-sum-spilled execution must reproduce the
plain numpy reference to float tolerance for every network, traversal
order, and block size.
"""

import numpy as np
import pytest

from repro.analysis.passes.validation import validate_program
from repro.compiler.lowering import compile_workload
from repro.compiler.runtime import (
    FunctionalState,
    run_functional,
    run_functional_with_state,
)
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.graph.generators import erdos_renyi, star_graph
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
)
from repro.models.zoo import build_network
from tests.conftest import make_tiny_config

NETWORKS = ("gcn", "graphsage", "graphsage-pool")
TRAVERSALS = (DST_STATIONARY, SRC_STATIONARY)


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 400, feature_dim=20, seed=5)


def assert_equivalent(graph, model, config, traversal, block,
                      atol=2e-4):
    params = init_parameters(model, seed=2)
    expected = reference_forward(model, graph, params)
    program = compile_workload(graph, model, config, traversal=traversal,
                               feature_block=block)
    validate_program(program)
    actual = run_functional(program, graph, params)
    np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=atol)


class TestEquivalenceMatrix:
    @pytest.mark.parametrize("network", NETWORKS)
    @pytest.mark.parametrize("traversal", TRAVERSALS)
    @pytest.mark.parametrize("block", [8, 3, None])
    def test_tiny_buffers(self, graph, network, traversal, block):
        """Multi-shard grids, spills, evictions — the hard regime."""
        model = build_network(network, 20, 5)
        assert_equivalent(graph, model, make_tiny_config(block),
                          traversal, block)

    @pytest.mark.parametrize("network", NETWORKS)
    def test_full_size_buffers(self, graph, network, default_config):
        model = build_network(network, 20, 5)
        assert_equivalent(graph, model, default_config, DST_STATIONARY, 8)

    def test_three_layer_network(self, graph):
        model = build_network("gcn", 20, 5, num_hidden_layers=2)
        assert_equivalent(graph, model, make_tiny_config(8),
                          DST_STATIONARY, 8)

    def test_hub_graph(self):
        """Star graph: one destination receives every edge."""
        graph = star_graph(50, feature_dim=12, seed=3)
        model = build_network("graphsage", 12, 3)
        assert_equivalent(graph, model, make_tiny_config(4),
                          DST_STATIONARY, 4)

    def test_max_without_self_fixup(self, graph):
        """Non-self max aggregation exercises the -inf writeback fixup."""
        layer = GNNLayer(stages=(
            AggregateStage(dim=20, reduce="max", include_self=False),
            ExtractStage(in_dim=20, out_dim=4, activation="none"),
        ))
        model = GNNModel(name="maxns", layers=(layer,))
        assert_equivalent(graph, model, make_tiny_config(8),
                          DST_STATIONARY, 8)

    def test_block_of_one(self, graph):
        model = build_network("gcn", 20, 3)
        assert_equivalent(graph, model, make_tiny_config(1),
                          DST_STATIONARY, 1)


class TestFunctionalState:
    def test_arrays_initialised(self, graph, default_config):
        model = build_network("gcn", 20, 5)
        program = compile_workload(graph, model, default_config)
        state = FunctionalState(program, graph, init_parameters(model))
        assert np.array_equal(state.arrays["h.in"], graph.features)
        assert (state.arrays["l0s0.agg"] == 0).all()

    def test_graph_size_mismatch_rejected(self, graph, default_config):
        model = build_network("gcn", 20, 5)
        program = compile_workload(graph, model, default_config)
        other = erdos_renyi(10, 20, feature_dim=20, seed=1)
        from repro.compiler.ir import CompileError
        with pytest.raises(CompileError):
            FunctionalState(program, other, init_parameters(model))

    def test_with_state_exposes_intermediates(self, graph, default_config):
        model = build_network("gcn", 20, 5)
        params = init_parameters(model, seed=2)
        program = compile_workload(graph, model, default_config)
        state = run_functional_with_state(program, graph, params)
        first_layer = GNNModel(name="gcn-l0", layers=model.layers[:1])
        expected = reference_forward(first_layer, graph, params)
        np.testing.assert_allclose(state.arrays["l0s1.out"], expected,
                                   rtol=1e-3, atol=2e-4)
