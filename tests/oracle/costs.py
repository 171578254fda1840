"""The cost pass as one walk over the compute ops: the array cost
pass's reference.

:func:`repro.compiler.lowering.fill_costs` times every compute op at
once over the cost inputs lowering records. This walk times each op
from the op itself, one at a time: the GPE formulas of
:mod:`repro.engines.graph.gpe` on each shard's GPE distribution counted
on its grid, and :mod:`repro.engines.dense.systolic`'s timing per GEMM.
The equivalence tests hold the arrays to it.
"""

from __future__ import annotations

from repro.compiler.ir import (
    ActivationOp,
    GemmOp,
    InitAccumulatorOp,
    SelfApplyOp,
    ShardAggregateOp,
)
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig
from repro.engines.dense.systolic import (
    GemmShape,
    activation_cycles,
    gemm_timing,
)
from repro.engines.graph.gpe import (
    interval_touch_cycles,
    max_gpe_edges,
    shard_compute_cycles,
)
from repro.models.stages import AggregateStage


def fill_costs_walk(program: Program,
                    config: GNNeratorConfig) -> dict[str, list[int]]:
    """``fill_costs(program, config)``, one op at a time."""
    graph_cfg, dense_cfg = config.graph, config.dense
    attention = {(li, si): stage.needs_features
                 for li, layer in enumerate(program.model.layers)
                 for si, stage in enumerate(layer.stages)
                 if isinstance(stage, AggregateStage)}
    graph_costs: list[int] = []
    for op in program.queues["graph.compute"]:
        if isinstance(op, ShardAggregateOp):
            grid = program.grids[(op.layer, op.stage)]
            graph_costs.append(shard_compute_cycles(
                max_gpe_edges(grid.shard(*op.shard), graph_cfg.num_gpes),
                op.dims[1] - op.dims[0], graph_cfg,
                attention=attention[(op.layer, op.stage)]))
        elif isinstance(op, (InitAccumulatorOp, SelfApplyOp)):
            graph_costs.append(interval_touch_cycles(
                op.rows[1] - op.rows[0], op.dims[1] - op.dims[0],
                graph_cfg))
    dense_costs: list[int] = []
    for op in program.queues["dense.compute"]:
        if isinstance(op, GemmOp):
            dense_costs.append(gemm_timing(
                GemmShape(op.m, op.k, op.n), dense_cfg).cycles)
        elif isinstance(op, ActivationOp):
            dense_costs.append(activation_cycles(
                op.rows[1] - op.rows[0], program.arrays[op.out_array],
                dense_cfg))
    return {"graph.compute": graph_costs, "dense.compute": dense_costs}
