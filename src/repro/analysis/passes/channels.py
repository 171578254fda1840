"""Channel-protocol checking.

The double-buffer protocol (DESIGN.md §4, ir.py docstring) is rigid:
per channel, one producer unit alternates Acquire -> Push and one
consumer unit alternates Pop -> Release, with
:data:`~repro.compiler.ir.DOUBLE_BUFFER_CREDITS` credits in
flight at most. This pass proves the protocol holds on *every*
abstract interleaving by checking per-unit alternation (a unit's queue
is its serial order on any schedule), global pairing counts, and the
emission-order credit balance.
"""

from __future__ import annotations

from repro.analysis.report import PassResult
from repro.compiler.ir import (
    CHANNELS,
    DOUBLE_BUFFER_CREDITS,
    AcquireOp,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig


def check_channel_protocol(program: Program,
                           config: GNNeratorConfig) -> PassResult:
    result = PassResult("channel-protocol")
    counts = {channel: {"acquire": 0, "release": 0, "push": 0, "pop": 0}
              for channel in CHANNELS}
    producers: dict[str, set[str]] = {channel: set()
                                      for channel in CHANNELS}
    consumers: dict[str, set[str]] = {channel: set()
                                      for channel in CHANNELS}

    for unit, ops in program.queues.items():
        #: Buffer halves this unit holds per channel: acquired-not-yet-
        #: pushed on the producer side, popped-not-yet-released on the
        #: consumer side. The lowering's step pattern keeps both in
        #: {0, 1} — two unmatched holds on one unit can starve the
        #: whole channel.
        held_credit = {channel: 0 for channel in CHANNELS}
        held_descriptor = {channel: 0 for channel in CHANNELS}
        for index, op in enumerate(ops):
            where = f"{unit}[{index}]"
            if isinstance(op, AcquireOp):
                counts[op.channel]["acquire"] += 1
                producers[op.channel].add(unit)
                if held_credit[op.channel]:
                    result.fail(f"{where}: Acquire on {op.channel!r} "
                                f"while already holding an unpushed "
                                f"buffer")
                held_credit[op.channel] += 1
            elif isinstance(op, PushOp):
                counts[op.channel]["push"] += 1
                producers[op.channel].add(unit)
                if not held_credit[op.channel]:
                    result.fail(f"{where}: Push on {op.channel!r} "
                                f"without a preceding Acquire")
                else:
                    held_credit[op.channel] -= 1
            elif isinstance(op, PopOp):
                counts[op.channel]["pop"] += 1
                consumers[op.channel].add(unit)
                if held_descriptor[op.channel]:
                    result.fail(f"{where}: Pop on {op.channel!r} while "
                                f"already holding an unreleased buffer")
                held_descriptor[op.channel] += 1
            elif isinstance(op, ReleaseOp):
                counts[op.channel]["release"] += 1
                consumers[op.channel].add(unit)
                if not held_descriptor[op.channel]:
                    result.fail(f"{where}: Release on {op.channel!r} "
                                f"without a preceding Pop")
                else:
                    held_descriptor[op.channel] -= 1
        for channel in CHANNELS:
            if held_credit[channel]:
                result.fail(f"{unit}: ends holding "
                            f"{held_credit[channel]} unpushed "
                            f"buffer(s) on {channel!r}")
            if held_descriptor[channel]:
                result.fail(f"{unit}: ends holding "
                            f"{held_descriptor[channel]} unreleased "
                            f"buffer(s) on {channel!r}")

    for channel in CHANNELS:
        tally = counts[channel]
        if tally["acquire"] != tally["release"]:
            result.fail(f"channel {channel!r}: {tally['acquire']} "
                        f"Acquire vs {tally['release']} Release "
                        f"(credits leak)")
        if tally["push"] != tally["pop"]:
            result.fail(f"channel {channel!r}: {tally['push']} Push vs "
                        f"{tally['pop']} Pop (descriptors leak)")
        overlap = producers[channel] & consumers[channel]
        if overlap:
            result.fail(f"channel {channel!r}: unit(s) "
                        f"{sorted(overlap)} act as both producer and "
                        f"consumer")

    # Emission order is a dependency-correct serial schedule; on it the
    # in-flight credit count must stay within the channel's budget.
    balance = {channel: 0 for channel in CHANNELS}
    for position, op in enumerate(program.order):
        if isinstance(op, AcquireOp):
            balance[op.channel] += 1
            if balance[op.channel] > DOUBLE_BUFFER_CREDITS:
                result.fail(
                    f"order[{position}]: {balance[op.channel]} credits "
                    f"in flight on {op.channel!r} exceeds "
                    f"DOUBLE_BUFFER_CREDITS={DOUBLE_BUFFER_CREDITS}")
        elif isinstance(op, ReleaseOp):
            balance[op.channel] -= 1
            if balance[op.channel] < 0:
                result.fail(f"order[{position}]: Release on "
                            f"{op.channel!r} before any Acquire in "
                            f"emission order")

    result.counts = {
        f"{channel}_{kind}": counts[channel][kind]
        for channel in CHANNELS for kind in ("acquire", "push")
    }
    return result
