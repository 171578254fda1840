"""Top-level GNNerator model (Fig 2): two engines, one controller, one
shared feature memory.

:meth:`GNNerator.simulate` is the main timing entry point: it replays a
compiled program's six unit queues (:mod:`repro.sim.coalesce`) and
returns an :class:`ExecutionResult` with end-to-end cycles, per-unit
busy time, and DRAM traffic — everything the evaluation harness needs
for Figs 3-5 and Tables I/V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.lowering import compile_workload
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig
from repro.config.workload import DST_STATIONARY
from repro.graph.graph import Graph
from repro.models.stages import GNNModel
from repro.obs.hwtel import HwProbe
from repro.obs.spans import span
from repro.sim.coalesce import op_slices, run_plan


@dataclass
class ExecutionResult:
    """Outcome of one timed run."""

    cycles: int
    frequency_ghz: float
    unit_busy_cycles: dict[str, int] = field(default_factory=dict)
    dram_bytes_by_unit: dict[str, int] = field(default_factory=dict)
    dram_bytes_by_purpose: dict[str, int] = field(default_factory=dict)
    dram_busy_cycles: int = 0
    num_operations: int = 0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.frequency_ghz * 1e9)

    @property
    def total_dram_bytes(self) -> int:
        return sum(self.dram_bytes_by_unit.values())

    def utilization(self, unit: str) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(self.unit_busy_cycles.get(unit, 0) / self.cycles, 1.0)

    @property
    def dram_utilization(self) -> float:
        if self.cycles <= 0:
            return 0.0
        return min(self.dram_busy_cycles / self.cycles, 1.0)

    def describe(self) -> str:
        busy = {unit: f"{self.utilization(unit):.0%}"
                for unit in sorted(self.unit_busy_cycles)}
        return (f"{self.cycles} cycles ({self.seconds * 1e6:.1f} us), "
                f"DRAM {self.total_dram_bytes / 1e6:.1f} MB "
                f"({self.dram_utilization:.0%} busy), unit busy {busy}")


class GNNerator:
    """The assembled accelerator: compile workloads and simulate them."""

    def __init__(self, config: GNNeratorConfig | None = None) -> None:
        self.config = config if config is not None else GNNeratorConfig()

    def compile(self, graph: Graph, model: GNNModel,
                traversal: str = DST_STATIONARY,
                feature_block: int | None | str = "config") -> Program:
        return compile_workload(graph, model, self.config,
                                traversal=traversal,
                                feature_block=feature_block)

    def simulate(self, program: Program,
                 probe: HwProbe | None = None) -> ExecutionResult:
        """Replay a compiled program; returns its timing.

        Every field of the result except the cycle count is a static
        function of the program (each operation executes exactly
        once), so only the replay of the precompiled action chains
        runs; the accounting comes off the cached
        :class:`~repro.sim.coalesce.CoalescedPlan`. Raises
        :class:`~repro.sim.coalesce.DeadlockError` when units remain
        blocked.

        ``probe`` (:class:`repro.obs.hwtel.HwProbe`) collects the raw
        hardware-telemetry streams — compute busy windows, DRAM bursts,
        port-queue depth — and, derived from them after the replay, the
        labelled per-op slices. Probing never changes cycle counts.
        """
        plan = program.coalesced_plan(self.config.dram)
        with span("simulate", graph=program.graph_name):
            cycles = run_plan(plan, probe)
        if probe is not None:
            probe.ops.extend(op_slices(program.queues, program.costs,
                                       probe, self.config.dram))
        return ExecutionResult(
            cycles=cycles,
            frequency_ghz=self.config.graph.frequency_ghz,
            unit_busy_cycles=dict(plan.unit_busy_cycles),
            dram_bytes_by_unit={
                unit: reads + writes
                for unit, (reads, writes, read_tx, write_tx)
                in plan.dram_traffic.items() if read_tx or write_tx},
            dram_bytes_by_purpose=program.dram_bytes_by_purpose(),
            dram_busy_cycles=plan.dram_busy_cycles,
            num_operations=program.num_operations,
        )

    def run(self, graph: Graph, model: GNNModel,
            traversal: str = DST_STATIONARY,
            feature_block: int | None | str = "config") -> ExecutionResult:
        """Compile + simulate in one call."""
        program = self.compile(graph, model, traversal=traversal,
                               feature_block=feature_block)
        return self.simulate(program)
