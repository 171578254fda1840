"""Prototype compiler and runtime for the GNNerator accelerator."""

from repro.compiler.ir import (
    CHANNELS,
    COMPUTE_OPS,
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
    "Coverage",
    "ValueRef",
    "compile_workload",
    "Program",
    "FunctionalState",
    "run_functional",
    "run_functional_with_state",
]
