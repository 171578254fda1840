"""The event-driven reference simulator: the replay's test oracle.

``repro.sim.coalesce`` is the simulator. This package keeps the
process-based discrete-event kernel it was derived from — six
generator processes (one per unit queue) over SimPy-style events, a
FIFO-arbitrated DRAM port, credit semaphores and handoff stores — so
the equivalence tests can hold the replay to it: same cycles, same
accounting, same four probe streams (DESIGN.md §5, §8).

:func:`simulate_event` is its one entry point. :mod:`.costs` keeps the
per-op cost walk that the array cost pass replaced, as that pass's
reference.
"""

from __future__ import annotations

from repro.accelerator import ExecutionResult
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig
from repro.sim.coalesce import DeadlockError

from .controller import Controller
from .engines import DenseEngine, GraphEngine
from .kernel import Environment
from .memory import DramChannel


def simulate_event(program: Program, config: GNNeratorConfig,
                   probe=None) -> ExecutionResult:
    """Run ``program`` on the process kernel; the replay's reference.

    ``probe`` (:class:`repro.obs.hwtel.HwProbe`) receives the same
    four streams ``GNNerator.simulate`` fills, recorded as they happen.
    """
    env = Environment()
    controller = Controller(env)
    dram = DramChannel(env, config.dram, probe=probe)
    engines = (GraphEngine(env, config.graph, controller, dram),
               DenseEngine(env, config.dense, controller, dram))
    for engine in engines:
        engine.launch(program.queues, program.costs, probe)
    env.run()
    stuck = [name for engine in engines
             for name, proc in engine.processes.items()
             if not proc.triggered]
    if stuck:
        raise DeadlockError(stuck, env.now)
    return ExecutionResult(
        cycles=env.now,
        frequency_ghz=config.graph.frequency_ghz,
        unit_busy_cycles={unit: tracker.busy_cycles
                          for engine in engines
                          for unit, tracker in engine.trackers.items()},
        dram_bytes_by_unit={unit: counter.total_bytes
                            for unit, counter in dram.counters.items()},
        dram_bytes_by_purpose=program.dram_bytes_by_purpose(),
        dram_busy_cycles=dram.busy_cycles,
        num_operations=program.num_operations,
    )
