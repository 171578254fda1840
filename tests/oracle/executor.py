"""Generic unit executor: replays one unit's operation queue on the DES.

Every hardware unit — fetch, compute, writeback/store, on either engine —
follows the same contract: take the next operation, stall on its wait
tokens (and credits/handoffs), perform it (a DRAM burst or a compute
occupancy), then signal its tokens. The per-op semantics differ only in
*where the time goes*, which is what this module encodes.

An optional :class:`~repro.obs.hwtel.HwProbe` records each compute
window in ``probe.busy`` and each operation that took time in
``probe.ops`` (its window after the stalls, i.e. actual execution) —
the streams the replay derives with ``op_slices``.
"""

from __future__ import annotations

from repro.compiler.ir import (
    COMPUTE_OPS,
    AccumWritebackOp,
    AcquireOp,
    DmaOp,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
)

from .controller import Controller
from .kernel import Environment
from .memory import BusyTracker, DramChannel


def execute_op(env: Environment, unit: str, op: Operation, cycles: int,
               controller: Controller, dram: DramChannel,
               tracker: BusyTracker, probe=None):
    """Generator performing one operation's timing behaviour;
    ``cycles`` is a compute op's cost-list entry (ignored otherwise).

    ``probe`` (:class:`repro.obs.hwtel.HwProbe`) records compute
    occupancy windows and op slices; DRAM bursts and requests are
    recorded by the channel itself (:class:`.memory.DramChannel`).
    Append-only — a probed run is cycle-identical to an unprobed one.
    """
    for token in op.wait:
        yield controller.wait(token)
    if isinstance(op, AcquireOp):
        yield controller.credit(op.channel).wait()
    elif isinstance(op, PopOp):
        yield controller.channel(op.channel).get()

    start = env.now
    if isinstance(op, ReleaseOp):
        controller.credit(op.channel).signal()
    elif isinstance(op, PushOp):
        yield controller.channel(op.channel).put(op.step)
    elif isinstance(op, DmaOp):
        yield from dram.transfer(unit, "read" if op.direction == "load"
                                 else "write", op.num_bytes)
    elif isinstance(op, AccumWritebackOp):
        yield from dram.transfer(unit, "write", op.num_bytes)
    elif isinstance(op, COMPUTE_OPS):
        if cycles:
            tracker.record(cycles)
            if probe is not None:
                probe.busy.append((unit, env.now, env.now + cycles))
            yield env.timeout(cycles)
    if probe is not None and env.now > start:
        probe.ops.append((unit, op.label or type(op).__name__, start,
                          env.now))
    for token in op.signal:
        controller.signal(token)


def unit_process(env: Environment, unit: str, ops: list[Operation],
                 costs: list[int], controller: Controller,
                 dram: DramChannel, tracker: BusyTracker, probe=None):
    """Process body running a whole unit queue to completion; ``costs``
    holds the unit's compute-op cycles in queue order."""
    cycles = iter(costs)
    for op in ops:
        yield from execute_op(
            env, unit, op, next(cycles) if isinstance(op, COMPUTE_OPS)
            else 0, controller, dram, tracker, probe)
