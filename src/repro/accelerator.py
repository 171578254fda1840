"""Top-level GNNerator model (Fig 2): two engines, one controller, one
shared feature memory.

:func:`simulate` is the main timing entry point: it compiles (or takes a
precompiled program), spawns the six unit processes on a fresh DES, runs
to completion and returns an :class:`ExecutionResult` with end-to-end
cycles, per-unit busy time, and DRAM traffic — everything the evaluation
harness needs for Figs 3-5 and Tables I/V.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.lowering import compile_workload
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig
from repro.config.workload import DST_STATIONARY
from repro.engines.controller import Controller
from repro.engines.dense.engine import DenseEngine
from repro.engines.executor import DeadlockError
from repro.engines.graph.engine import GraphEngine
from repro.graph.graph import Graph
from repro.models.stages import GNNModel
from repro.obs.spans import span
from repro.sim.coalesce import DeadlockSuspension, run_plan
from repro.sim.kernel import Environment, SimulationError
from repro.sim.memory import DramChannel
from repro.sim.trace import Tracer


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
                 tracer: Tracer | None = None,
                 coalesce: bool | None = None,
                 probe=None) -> ExecutionResult:
        """Replay a compiled program on the discrete-event machine.

        By default the coalesced kernel (:mod:`repro.sim.coalesce`)
        replays the program's precompiled action chains — identical
        cycle counts, an order of magnitude less host time on big
        programs. Pass a :class:`~repro.sim.trace.Tracer` to collect
        per-unit busy windows (see :func:`repro.sim.trace.render_gantt`)
        — tracing needs the per-operation event kernel, so it implies
        ``coalesce=False``; pass ``coalesce=False`` explicitly to force
        the process-based kernel (the two are locked cycle-identical by
        ``tests/test_coalesce.py``).

        ``probe`` (:class:`repro.obs.hwtel.HwProbe`) collects the raw
        hardware-telemetry stream — compute busy windows, DRAM bursts,
        port-queue depth — from *either* kernel; the two streams are
        identical for the same program (``tests/test_obs.py``), and
        probing never changes cycle counts.
        """
        if coalesce is None:
            coalesce = tracer is None
        if coalesce and tracer is not None:
            raise SimulationError(
                "tracing requires the per-operation kernel; pass "
                "coalesce=False (or omit it) when using a tracer")
        if coalesce:
            return self._simulate_coalesced(program, probe)
        with span("simulate", kernel="event",
                  graph=program.graph_name):
            env = Environment()
            controller = Controller(env)
            dram = DramChannel(env, self.config.dram, probe=probe)
            graph_engine = GraphEngine(env, self.config.graph,
                                       controller, dram)
            dense_engine = DenseEngine(env, self.config.dense,
                                       controller, dram)
            graph_engine.launch(program.queues, tracer, probe)
            dense_engine.launch(program.queues, tracer, probe)
            env.run()
        if not (graph_engine.finished() and dense_engine.finished()):
            stuck = [name for engine in (graph_engine, dense_engine)
                     for name, proc in engine.processes.items()
                     if not proc.triggered]
            raise DeadlockError(
                f"simulation deadlocked; unfinished units: {stuck}")
        busy = {}
        for engine in (graph_engine, dense_engine):
            for unit, tracker in engine.trackers.items():
                busy[unit] = tracker.busy_cycles
        return ExecutionResult(
            cycles=env.now,
            frequency_ghz=self.config.graph.frequency_ghz,
            unit_busy_cycles=busy,
            dram_bytes_by_unit={
                unit: counter.total_bytes
                for unit, counter in dram.counters.items()},
            dram_bytes_by_purpose=program.dram_bytes_by_purpose(),
            dram_busy_cycles=dram.busy_cycles,
            num_operations=program.num_operations,
        )

    def _simulate_coalesced(self, program: Program,
                            probe=None) -> ExecutionResult:
        """Replay the program's precompiled action chains.

        Every field of the result except the cycle count is a static
        function of the program (each operation executes exactly once),
        so only the chain replay runs; the accounting comes off the
        cached :class:`~repro.sim.coalesce.CoalescedPlan`.
        """
        plan = program.coalesced_plan(self.config.dram)
        try:
            with span("simulate", kernel="coalesced",
                      graph=program.graph_name):
                cycles = run_plan(plan, probe)
        except DeadlockSuspension as exc:
            raise DeadlockError(
                f"simulation deadlocked; unfinished units: "
                f"{exc.stuck}") from None
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
