"""Unit tests for the functional reference executor (ground truth)."""

import numpy as np
import pytest

from repro.graph.graph import Graph
from repro.models.layers import Parameters, init_parameters
from repro.models.reference import (
    aggregate_reference,
    reference_forward,
)
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
    ModelError,
)
from repro.models.zoo import build_network


def line_graph() -> Graph:
    # 0 -> 1 -> 2
    g = Graph(3, [0, 1], [1, 2])
    g.features = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
                          dtype=np.float32)
    return g


class TestAggregateReference:
    def test_plain_sum(self):
        g = line_graph()
        stage = AggregateStage(dim=2, reduce="sum", include_self=False)
        out = aggregate_reference(stage, g, g.features)
        assert out.tolist() == [[0, 0], [1, 2], [3, 4]]

    def test_sum_with_self(self):
        g = line_graph()
        stage = AggregateStage(dim=2, reduce="sum", include_self=True)
        out = aggregate_reference(stage, g, g.features)
        assert out.tolist() == [[1, 2], [4, 6], [8, 10]]

    def test_mean(self):
        g = line_graph()
        stage = AggregateStage(dim=2, normalization="mean")
        out = aggregate_reference(stage, g, g.features)
        # Node 1: (h0 + h1) / (indeg+1 = 2).
        assert out[1].tolist() == [2.0, 3.0]

    def test_sym_matches_dense_formula(self):
        g = line_graph()
        stage = AggregateStage(dim=2, normalization="sym")
        out = aggregate_reference(stage, g, g.features)
        adj = np.zeros((3, 3))
        for u, v in zip(g.src, g.dst):
            adj[v, u] = 1.0
        adj += np.eye(3)
        deg = adj.sum(axis=1)
        norm = adj / np.sqrt(np.outer(deg, deg))
        expected = norm @ g.features
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_max_with_self(self):
        g = line_graph()
        stage = AggregateStage(dim=2, reduce="max", include_self=True)
        out = aggregate_reference(stage, g, g.features)
        assert out.tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_max_without_self_isolated_zero(self):
        g = line_graph()
        stage = AggregateStage(dim=2, reduce="max", include_self=False)
        out = aggregate_reference(stage, g, g.features)
        assert out[0].tolist() == [0.0, 0.0]  # no in-edges
        assert out[1].tolist() == [1.0, 2.0]

    def test_max_without_self_keeps_negative_values(self):
        g = line_graph()
        g.features = -np.abs(g.features)
        stage = AggregateStage(dim=2, reduce="max", include_self=False)
        out = aggregate_reference(stage, g, g.features)
        assert out[1].tolist() == [-1.0, -2.0]  # not clamped to zero

    def test_shape_check(self):
        g = line_graph()
        stage = AggregateStage(dim=3)
        with pytest.raises(ModelError):
            aggregate_reference(stage, g, g.features)

    def test_shape_error_states_expected_and_got(self):
        """The message must carry both full shapes — a truncated
        "got ..." report turns a one-glance fix into a debug session."""
        g = line_graph()
        stage = AggregateStage(dim=5)
        with pytest.raises(ModelError) as excinfo:
            aggregate_reference(stage, g, g.features)
        message = str(excinfo.value)
        assert "(3, 5)" in message      # expected (num_nodes, stage dim)
        assert "(3, 2)" in message      # the full shape actually passed
        assert "expected" in message and "got" in message

    def test_empty_graph_sum(self):
        g = Graph(3, [], [])
        g.features = np.ones((3, 2), dtype=np.float32)
        stage = AggregateStage(dim=2, include_self=False)
        out = aggregate_reference(stage, g, g.features)
        assert (out == 0).all()


class TestReferenceForward:
    def test_identity_network_on_line(self):
        """GCN with identity weights reduces to pure normalisation."""
        g = line_graph()
        layer = GNNLayer(stages=(
            AggregateStage(dim=2, normalization="sym"),
            ExtractStage(in_dim=2, out_dim=2, activation="none",
                         bias=False),
        ))
        model = GNNModel(name="id", layers=(layer,))
        params = Parameters()
        params.set((0, 1), np.eye(2, dtype=np.float32), None)
        out = reference_forward(model, g, params)
        expected = aggregate_reference(layer.stages[0], g, g.features)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_concat_layer_uses_layer_input(self):
        g = line_graph()
        layer = GNNLayer(stages=(
            AggregateStage(dim=2, normalization="mean"),
            ExtractStage(in_dim=2, out_dim=1, activation="none",
                         bias=False, concat_self=True, self_dim=2),
        ))
        model = GNNModel(name="sage", layers=(layer,))
        params = Parameters()
        # Weight selects only the *self* half of the concat.
        w = np.array([[0.0], [0.0], [1.0], [0.0]], dtype=np.float32)
        params.set((0, 1), w, None)
        out = reference_forward(model, g, params)
        np.testing.assert_allclose(out[:, 0], g.features[:, 0], rtol=1e-6)

    @pytest.mark.parametrize("name", ["gcn", "graphsage", "graphsage-pool"])
    def test_output_shape(self, name, small_graph):
        model = build_network(name, small_graph.feature_dim, 6)
        params = init_parameters(model, seed=3)
        out = reference_forward(model, small_graph, params)
        assert out.shape == (small_graph.num_nodes, 6)
        assert np.isfinite(out).all()

    def test_input_dim_check(self, small_graph):
        model = build_network("gcn", 99, 4)
        with pytest.raises(ModelError):
            reference_forward(model, small_graph,
                              init_parameters(model))

    def test_input_dim_error_states_expected_and_got(self, small_graph):
        model = build_network("gcn", 99, 4)
        with pytest.raises(ModelError) as excinfo:
            reference_forward(model, small_graph, init_parameters(model))
        message = str(excinfo.value)
        assert f"({small_graph.num_nodes}, 99)" in message  # expected
        assert f"({small_graph.num_nodes}, " \
               f"{small_graph.feature_dim})" in message     # got, in full
        assert "expected" in message or "expects" in message
        assert "got" in message

    def test_explicit_features_override(self, small_graph):
        model = build_network("gcn", 8, 4)
        params = init_parameters(model)
        feats = np.random.default_rng(0).standard_normal(
            (small_graph.num_nodes, 8)).astype(np.float32)
        out = reference_forward(model, small_graph, params, features=feats)
        assert out.shape == (small_graph.num_nodes, 4)

    def test_deterministic(self, small_graph):
        model = build_network("graphsage", small_graph.feature_dim, 4)
        params = init_parameters(model, seed=11)
        a = reference_forward(model, small_graph, params)
        b = reference_forward(model, small_graph, params)
        assert np.array_equal(a, b)
