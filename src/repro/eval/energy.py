"""Energy estimation (extension — the paper reports only area/perf).

A first-order event-energy model in the style of Horowitz (ISSCC 2014)
accounting at 1 GHz / ~15 nm-class constants:

* one fp32 MAC ≈ 4.6 pJ (add 0.9 + multiply 3.7);
* large-SRAM access ≈ 0.6 pJ/byte (each operand is read from and each
  result written to a scratchpad);
* DRAM access ≈ 20 pJ/byte;
* static/clock overhead folded into a per-cycle idle term.

The MAC and op-SRAM terms (and their per-op-kind breakdown) depend only
on the compiled program, so they are summed once per
:class:`~repro.compiler.program.Program` and memoized on it. Each
:func:`estimate_energy` call then adds only the two per-run terms,
read off the simulation result: DMA bytes (DRAM plus their SRAM
landing) and idle cycles.

Baselines are bounded with power envelopes instead (RTX 2080 Ti: 250 W
TDP; HyGCN: 6.7 W reported in its paper), which is how accelerator
papers usually compare — exact numbers are not the point, the orders of
magnitude are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerator import ExecutionResult
from repro.compiler.ir import (
    GemmOp,
    InitAccumulatorOp,
    SelfApplyOp,
    ShardAggregateOp,
)
from repro.compiler.program import Program
from repro.config.accelerator import ELEM_BYTES

MAC_PJ = 4.6
SRAM_PJ_PER_BYTE = 0.6
DRAM_PJ_PER_BYTE = 20.0
#: Leakage + clock distribution, charged per elapsed cycle.
IDLE_PJ_PER_CYCLE = 150.0

GPU_POWER_W = 250.0
HYGCN_POWER_W = 6.7


@dataclass
class EnergyReport:
    """Per-component energy of one accelerator run."""

    compute_pj: float = 0.0
    sram_pj: float = 0.0
    dram_pj: float = 0.0
    idle_pj: float = 0.0
    breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def total_pj(self) -> float:
        return self.compute_pj + self.sram_pj + self.dram_pj + self.idle_pj

    @property
    def total_joules(self) -> float:
        return self.total_pj * 1e-12

    def average_power_w(self, seconds: float) -> float:
        if seconds <= 0:
            return 0.0
        return self.total_joules / seconds

    def describe(self) -> str:
        total = max(self.total_pj, 1e-12)
        return (f"{self.total_joules * 1e6:.1f} uJ "
                f"(compute {self.compute_pj / total:.0%}, "
                f"sram {self.sram_pj / total:.0%}, "
                f"dram {self.dram_pj / total:.0%}, "
                f"idle {self.idle_pj / total:.0%})")


def _op_macs(op) -> int:
    """MAC-equivalent work of one compute operation."""
    if isinstance(op, GemmOp):
        return op.m * op.k * op.n
    if isinstance(op, ShardAggregateOp):
        return op.num_edges * (op.dims[1] - op.dims[0])
    if isinstance(op, (InitAccumulatorOp, SelfApplyOp)):
        rows = op.rows[1] - op.rows[0]
        return rows * (op.dims[1] - op.dims[0])
    return 0


def _op_sram_bytes(op) -> int:
    """Scratchpad bytes touched by one compute operation (operands in,
    result out, fp32)."""
    if isinstance(op, GemmOp):
        operands = op.m * op.k + op.k * op.n
        results = op.m * op.n
        return (operands + 2 * results) * ELEM_BYTES  # psum read+write
    if isinstance(op, ShardAggregateOp):
        width = op.dims[1] - op.dims[0]
        return op.num_edges * (2 * width * ELEM_BYTES + 8)  # feats + edge
    if isinstance(op, (InitAccumulatorOp, SelfApplyOp)):
        rows = op.rows[1] - op.rows[0]
        return 2 * rows * (op.dims[1] - op.dims[0]) * ELEM_BYTES
    return 0


def _program_terms(program: Program
                   ) -> tuple[float, float, tuple[tuple[str, float], ...]]:
    """The program-static terms: compute pJ, the ops' SRAM pJ and the
    per-kind ``(kind, pJ)`` pairs, summed in op order on the first call
    and memoized on the program (its ops never change once compiled).
    Threads racing on a fresh program compute equal tuples; either
    assignment is correct, so no lock."""
    terms = program._energy_terms
    if terms is None:
        compute_pj = sram_pj = 0.0
        breakdown: dict[str, float] = {}
        for op in program.order:
            macs = _op_macs(op)
            sram = _op_sram_bytes(op)
            if macs or sram:
                kind = type(op).__name__
                pj = macs * MAC_PJ + sram * SRAM_PJ_PER_BYTE
                compute_pj += macs * MAC_PJ
                sram_pj += sram * SRAM_PJ_PER_BYTE
                breakdown[kind] = breakdown.get(kind, 0.0) + pj
        terms = program._energy_terms = (compute_pj, sram_pj,
                                         tuple(breakdown.items()))
    return terms


def estimate_energy(program: Program,
                    result: ExecutionResult) -> EnergyReport:
    """Energy of one simulated GNNerator run."""
    compute_pj, sram_pj, breakdown = _program_terms(program)
    # DMA traffic touches DRAM once and a scratchpad once per byte.
    return EnergyReport(
        compute_pj=compute_pj,
        sram_pj=sram_pj + result.total_dram_bytes * SRAM_PJ_PER_BYTE,
        dram_pj=result.total_dram_bytes * DRAM_PJ_PER_BYTE,
        idle_pj=result.cycles * IDLE_PJ_PER_CYCLE,
        breakdown=dict(breakdown))


def gpu_energy_joules(seconds: float) -> float:
    """Envelope estimate: TDP x time."""
    return GPU_POWER_W * seconds


def hygcn_energy_joules(seconds: float) -> float:
    """Envelope estimate from HyGCN's reported 6.7 W."""
    return HYGCN_POWER_W * seconds
