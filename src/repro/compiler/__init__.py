"""Prototype compiler and runtime for the GNNerator accelerator."""

from repro.compiler.ir import (
    CHANNELS,
    COMPUTE_OPS,
    MEMORY_OPS,
    UNITS,
    AccumWritebackOp,
    AcquireOp,
    ActivationOp,
    CompileError,
    DmaOp,
    GemmOp,
    InitAccumulatorOp,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
    SelfApplyOp,
    ShardAggregateOp,
    op_bytes,
    op_cycles,
)
from repro.compiler.lowering import Coverage, ValueRef, compile_workload
from repro.compiler.program import Program
from repro.compiler.runtime import (
    FunctionalState,
    run_functional,
    run_functional_with_state,
)

__all__ = [
    "CHANNELS",
    "COMPUTE_OPS",
    "MEMORY_OPS",
    "UNITS",
    "AccumWritebackOp",
    "AcquireOp",
    "ActivationOp",
    "CompileError",
    "DmaOp",
    "GemmOp",
    "InitAccumulatorOp",
    "Operation",
    "PopOp",
    "PushOp",
    "ReleaseOp",
    "SelfApplyOp",
    "ShardAggregateOp",
    "op_bytes",
    "op_cycles",
    "Coverage",
    "ValueRef",
    "compile_workload",
    "Program",
    "FunctionalState",
    "run_functional",
    "run_functional_with_state",
]
