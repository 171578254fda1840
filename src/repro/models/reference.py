"""Functional reference executor: ground truth for every other path.

Runs a :class:`~repro.models.stages.GNNModel` over a graph with plain
numpy segment reductions — no sharding, no blocking, no hardware model. The compiled,
sharded, dimension-blocked runtime (:mod:`repro.compiler.runtime`) must
reproduce these outputs to float tolerance; that equivalence is the
central functional invariant of the repository.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.models.layers import Parameters, dense_forward
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNModel,
    ModelError,
)


def aggregate_reference(stage: AggregateStage, graph: Graph,
                        h: np.ndarray,
                        attention: tuple[np.ndarray, np.ndarray] | None
                        = None) -> np.ndarray:
    """Dense ``(N, dim)`` aggregation of ``h`` along the graph's edges.

    Attention stages additionally need the learned ``(a_src, a_dst)``
    vectors to compute their softmax coefficients from ``h``.
    """
    if h.shape != (graph.num_nodes, stage.dim):
        raise ModelError(
            f"aggregate stage expected features of shape "
            f"{(graph.num_nodes, stage.dim)} (nodes, dim), got "
            f"{tuple(h.shape)}")
    weights, self_weights = stage.compute_weights(graph, features=h,
                                                  attention=attention)
    if stage.reduce == "sum":
        return _weighted_sum(graph, h, weights, self_weights)
    return _segment_max(graph, h, weights, self_weights)


def _weighted_sum(graph: Graph, h: np.ndarray, weights: np.ndarray,
                  self_weights: np.ndarray | None) -> np.ndarray:
    out = np.zeros((graph.num_nodes, h.shape[1]), dtype=np.float64)
    if graph.num_edges:
        # Per-destination segment sums over the graph's cached
        # dst-segment view — one gather + one reduceat, float64
        # accumulation, no sparse-matrix construction per call.
        order, starts, segment_dst = graph.dst_segments
        values = (h.astype(np.float64)[graph.src[order]]
                  * weights.astype(np.float64)[order][:, None])
        out[segment_dst] = np.add.reduceat(values, starts, axis=0)
    if self_weights is not None:
        out += self_weights[:, None].astype(np.float64) * h
    return out.astype(np.float32)


def _segment_max(graph: Graph, h: np.ndarray, weights: np.ndarray,
                 self_weights: np.ndarray | None) -> np.ndarray:
    if self_weights is not None:
        out = h * self_weights[:, None]
    else:
        # Nodes with no in-edges keep a zero vector (matches DGL's
        # zero-initialised max pooling on isolated nodes).
        out = np.zeros_like(h)
    if graph.num_edges:
        order, starts, segment_dst = graph.dst_segments
        values = h[graph.src[order]] * weights[order][:, None]
        segment_max = np.maximum.reduceat(values, starts, axis=0)
        if self_weights is not None:
            out[segment_dst] = np.maximum(out[segment_dst], segment_max)
        else:
            out[segment_dst] = segment_max
    return out.astype(np.float32)


def reference_forward(model: GNNModel, graph: Graph, params: Parameters,
                      features: np.ndarray | None = None) -> np.ndarray:
    """Run the full model; returns the final ``(N, out_dim)`` features."""
    h = graph.features if features is None else np.asarray(
        features, dtype=np.float32)
    if h.shape[1] != model.in_dim:
        raise ModelError(
            f"model {model.name!r} expects features of shape "
            f"{(graph.num_nodes, model.in_dim)} (nodes, in_dim), got "
            f"{tuple(h.shape)}")
    for layer_index, layer in enumerate(model.layers):
        layer_input = h
        for stage_index, stage in enumerate(layer.stages):
            if isinstance(stage, AggregateStage):
                h = aggregate_reference(
                    stage, graph, h,
                    attention=(params.attention(layer_index, stage_index)
                               if stage.needs_features else None))
            elif isinstance(stage, ExtractStage):
                x = h
                if stage.concat_self:
                    x = np.concatenate([h, layer_input], axis=1)
                h = dense_forward(stage, x,
                                  params.weight(layer_index, stage_index),
                                  params.bias(layer_index, stage_index))
            else:  # pragma: no cover - the Stage union is closed
                raise ModelError(f"unknown stage kind {stage!r}")
    return h
