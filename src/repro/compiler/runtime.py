"""Functional runtime: interpret a compiled program over numpy state.

Walks ``program.order`` (emission order, dependency-correct by
construction) and applies the semantics of each compute operation; DMA,
credit and handoff operations are timing-only and skipped. The result
must match :func:`repro.models.reference.reference_forward` to float
tolerance — the repository's central correctness invariant, exercised by
the integration and property tests.

A program holds no values, so the caller supplies the parameters, and
each aggregate stage's Apply weights ``(edge_w, self_w)`` are computed
here on the stage's first op, from the stage's own input array. That
array is complete by then: the lowering emits every op of a stage's
producer before the stage's first op, so attention coefficients see
exactly the features the stage aggregates.
"""

from __future__ import annotations

import numpy as np

from repro.compiler.ir import (
    AccumWritebackOp,
    ActivationOp,
    CompileError,
    GemmOp,
    InitAccumulatorOp,
    SelfApplyOp,
    ShardAggregateOp,
)
from repro.compiler.program import Program
from repro.graph.graph import Graph
from repro.models.layers import Parameters, apply_activation
from repro.models.stages import AggregateStage


class FunctionalState:
    """Logical feature arrays (the simulated shared feature memory)."""

    def __init__(self, program: Program, graph: Graph,
                 params: Parameters) -> None:
        if graph.num_nodes != program.num_nodes:
            raise CompileError(
                "program was compiled for a different graph size")
        self.program = program
        self.graph = graph
        self.params = params
        self.arrays: dict[str, np.ndarray] = {}
        for name, dim in program.arrays.items():
            self.arrays[name] = np.zeros((graph.num_nodes, dim),
                                         dtype=np.float32)
        self.arrays[program.input_array][:] = graph.features
        #: Per-(layer, stage) Apply weights, computed on first use.
        self._weights: dict[tuple[int, int],
                            tuple[np.ndarray, np.ndarray | None]] = {}
        #: Per-(layer, stage, shard) edge-weight gathers, shared by every
        #: feature block that revisits the same shard.
        self._shard_weights: dict[tuple[int, ...], np.ndarray] = {}

    def view(self, name: str, rows: tuple[int, int],
             dims: tuple[int, int]) -> np.ndarray:
        return self.arrays[name][rows[0]:rows[1], dims[0]:dims[1]]

    def weights(self, layer: int, stage_index: int, src_array: str
                ) -> tuple[np.ndarray, np.ndarray | None]:
        """The stage's ``(edge_w, self_w)``, computed over ``src_array``
        (the stage's input, complete by its first op) on first use."""
        key = (layer, stage_index)
        pair = self._weights.get(key)
        if pair is None:
            stage = self.program.model.layers[layer].stages[stage_index]
            if not isinstance(stage, AggregateStage):
                raise CompileError(
                    f"aggregate op on l{layer}s{stage_index}, which is "
                    f"not an aggregate stage")
            pair = self._weights[key] = stage.compute_weights(
                self.graph, features=self.arrays[src_array],
                attention=(self.params.attention(layer, stage_index)
                           if stage.needs_features else None))
        return pair


def _exec_init(state: FunctionalState, op: InitAccumulatorOp) -> None:
    view = state.view(op.acc_array, op.rows, op.dims)
    view[:] = -np.inf if op.mode == "neginf" else 0.0


def _exec_self_apply(state: FunctionalState, op: SelfApplyOp) -> None:
    _, weights = state.weights(op.layer, op.stage, op.src_array)
    if weights is None:
        raise CompileError("SelfApplyOp without self weights")
    acc = state.view(op.acc_array, op.rows, op.dims)
    src = state.view(op.src_array, op.rows, op.dims)
    scaled = src * weights[op.rows[0]:op.rows[1], None]
    if op.reduce == "sum":
        acc += scaled
    else:
        np.maximum(acc, scaled, out=acc)


def _exec_aggregate(state: FunctionalState, op: ShardAggregateOp) -> None:
    grid = state.program.grids[(op.layer, op.stage)]
    shard = grid.shard(*op.shard)
    if shard.num_edges == 0:
        return
    key = (op.layer, op.stage) + op.shard
    edge_w = state._shard_weights.get(key)
    if edge_w is None:
        weights, _ = state.weights(op.layer, op.stage, op.src_array)
        edge_w = state._shard_weights[key] = weights[shard.edge_ids]
    src_vals = state.arrays[op.src_array][shard.src, op.dims[0]:op.dims[1]]
    values = src_vals * edge_w[:, None]
    acc = state.arrays[op.acc_array]
    # Shard edges are dst-sorted (see partition.py), so segment
    # reductions are contiguous — the same order the Reduce Unit sees.
    # The boundaries are precomputed once per shard and shared across
    # every feature block (and every compile reusing the grid).
    starts, segment_dst = shard.dst_segments
    if op.reduce == "sum":
        segments = np.add.reduceat(values, starts, axis=0)
        acc[segment_dst, op.dims[0]:op.dims[1]] += segments
    else:
        segments = np.maximum.reduceat(values, starts, axis=0)
        current = acc[segment_dst, op.dims[0]:op.dims[1]]
        acc[segment_dst, op.dims[0]:op.dims[1]] = np.maximum(
            current, segments)


def _exec_writeback(state: FunctionalState, op: AccumWritebackOp) -> None:
    if op.partial or not op.fixup_neginf:
        return
    view = state.view(op.acc_array, op.rows, op.dims)
    view[np.isneginf(view)] = 0.0


def _exec_gemm(state: FunctionalState, op: GemmOp) -> None:
    x = state.view(op.src_array, op.rows, op.src_dims)
    weight = state.params.weight(op.layer, op.stage)
    w = weight[op.weight_rows[0]:op.weight_rows[1], :]
    out = state.arrays[op.out_array][op.rows[0]:op.rows[1], :]
    product = x @ w
    if op.accumulate:
        out += product
    else:
        out[:] = product


def _exec_activation(state: FunctionalState, op: ActivationOp) -> None:
    out = state.arrays[op.out_array][op.rows[0]:op.rows[1], :]
    if op.has_bias:
        bias = state.params.bias(op.layer, op.stage)
        if bias is not None:
            out += bias
    out[:] = apply_activation(op.activation, out)


_HANDLERS = {
    InitAccumulatorOp: _exec_init,
    SelfApplyOp: _exec_self_apply,
    ShardAggregateOp: _exec_aggregate,
    AccumWritebackOp: _exec_writeback,
    GemmOp: _exec_gemm,
    ActivationOp: _exec_activation,
}


def run_functional(program: Program, graph: Graph,
                   params: Parameters) -> np.ndarray:
    """Execute the program's compute semantics; returns the output array."""
    state = run_functional_with_state(program, graph, params)
    if not program.output_array:
        raise CompileError("program has no output array")
    return state.arrays[program.output_array].copy()


def run_functional_with_state(program: Program, graph: Graph,
                              params: Parameters) -> FunctionalState:
    """As :func:`run_functional` but returns all intermediate arrays."""
    state = FunctionalState(program, graph, params)
    for op in program.order:
        handler = _HANDLERS.get(type(op))
        if handler is not None:
            handler(state, op)
    return state
