"""The two engines as unit processes: three per engine, one per queue.

Graph Engine (Sec III-B):

* ``graph.fetch`` — Shard Edge Fetch + Shard Feature Fetch Units
  (lowered into one queue: they run in parallel in hardware and their
  DMA bursts are serialised only by the shared channel), prefetching
  shard ``k+1`` into the spare buffer halves while shard ``k``
  computes (credit-gated double buffering);
* ``graph.compute`` — the Shard Compute Unit's GPEs;
* ``graph.writeback`` — the Shard Writeback Unit, publishing finished
  (and spilled) accumulator intervals to the shared feature memory.

Dense Engine (Sec III-A):

* ``dense.fetch`` — fills the double-buffered input and weight
  scratchpads through the engine's *own* memory controller (the feature
  HyGCN's combination engine lacks, and the reason GNNerator's Dense
  Engine can act as a producer);
* ``dense.compute`` — the systolic array and the 1-D activation unit;
* ``dense.store`` — drains outputs and partial-sum spills.
"""

from __future__ import annotations

from repro.compiler.ir import Operation

from .controller import Controller
from .executor import unit_process
from .kernel import Environment, Process
from .memory import BusyTracker, DramChannel


class _Engine:
    """Spawns one engine's unit processes over compiled queues."""

    UNIT_NAMES: tuple[str, ...] = ()
    COMPUTE_UNIT = ""

    def __init__(self, env: Environment, config, controller: Controller,
                 dram: DramChannel) -> None:
        self.env = env
        self.config = config
        self.controller = controller
        self.dram = dram
        self.trackers = {unit: BusyTracker() for unit in self.UNIT_NAMES}
        self.processes: dict[str, Process] = {}

    def launch(self, queues: dict[str, list[Operation]],
               costs: dict[str, list[int]], probe=None) -> None:
        for unit in self.UNIT_NAMES:
            self.processes[unit] = self.env.process(
                unit_process(self.env, unit, queues.get(unit, []),
                             costs.get(unit, []), self.controller,
                             self.dram, self.trackers[unit], probe),
                name=unit)

    @property
    def compute_busy_cycles(self) -> int:
        return self.trackers[self.COMPUTE_UNIT].busy_cycles

    def finished(self) -> bool:
        return all(p.triggered for p in self.processes.values())


class GraphEngine(_Engine):
    UNIT_NAMES = ("graph.fetch", "graph.compute", "graph.writeback")
    COMPUTE_UNIT = "graph.compute"


class DenseEngine(_Engine):
    UNIT_NAMES = ("dense.fetch", "dense.compute", "dense.store")
    COMPUTE_UNIT = "dense.compute"
