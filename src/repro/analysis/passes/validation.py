"""Static program validation: schedulability and token sanity.

The DES would simply deadlock on a mis-compiled token graph; this module
gives a *compile-time* answer instead, by running a Kahn-style abstract
scheduler over the unit queues: a unit's head operation may retire when
its wait tokens are signalled, its credit is available (Acquire), or its
channel has a pending descriptor (Pop). If no head can retire and work
remains, the program is unschedulable and the offending heads are
reported.

The body of the ``schedulability`` verifier pass
(:mod:`repro.analysis.passes.tokens`); tests and users call
:func:`validate_program` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import (
    CHANNELS,
    DOUBLE_BUFFER_CREDITS,
    AcquireOp,
    CompileError,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.compiler.program import Program


class ValidationError(CompileError):
    """Raised when a compiled program cannot be scheduled."""


@dataclass
class ValidationReport:
    """Outcome of abstract scheduling."""

    retired_ops: int = 0
    signalled_tokens: set[str] = field(default_factory=set)
    max_channel_depth: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def validate_program(program: Program, *,
                     raise_on_failure: bool = True) -> ValidationReport:
    """Abstractly schedule the program.

    With ``raise_on_failure`` (the default) a deadlock or a token waited
    on but never signalled raises :class:`ValidationError`; otherwise
    the problems are collected on ``report.failures`` and the report is
    returned with ``ok`` false.
    """
    report = ValidationReport()
    signalled: set[str] = set()
    all_signals: set[str] = set()
    for op in program.order:
        all_signals.update(op.signal)
    for op in program.order:
        for token in op.wait:
            if token not in all_signals:
                report.failures.append(
                    f"op {op.label or type(op).__name__!r} waits on "
                    f"{token!r}, which nothing signals")
                if raise_on_failure:
                    raise ValidationError(report.failures[-1])
    if report.failures:
        # Unsignalled waits guarantee the scheduler would stall on a
        # misleading head; report the root cause instead.
        return report

    heads = {unit: 0 for unit in program.queues}
    credits = {channel: DOUBLE_BUFFER_CREDITS for channel in CHANNELS}
    pending = {channel: 0 for channel in CHANNELS}
    report.max_channel_depth = {channel: 0 for channel in CHANNELS}

    def runnable(op: Operation) -> bool:
        if any(token not in signalled for token in op.wait):
            return False
        if isinstance(op, AcquireOp):
            return credits[op.channel] > 0
        if isinstance(op, PopOp):
            return pending[op.channel] > 0
        return True

    def retire(op: Operation) -> None:
        if isinstance(op, AcquireOp):
            credits[op.channel] -= 1
        elif isinstance(op, ReleaseOp):
            credits[op.channel] += 1
        elif isinstance(op, PushOp):
            pending[op.channel] += 1
            report.max_channel_depth[op.channel] = max(
                report.max_channel_depth[op.channel], pending[op.channel])
        elif isinstance(op, PopOp):
            pending[op.channel] -= 1
        signalled.update(op.signal)
        report.retired_ops += 1

    total = sum(len(ops) for ops in program.queues.values())
    while report.retired_ops < total:
        progressed = False
        for unit, ops in program.queues.items():
            while heads[unit] < len(ops) and runnable(ops[heads[unit]]):
                retire(ops[heads[unit]])
                heads[unit] += 1
                progressed = True
        if not progressed:
            stuck = {
                unit: repr(ops[heads[unit]])
                for unit, ops in program.queues.items()
                if heads[unit] < len(ops)
            }
            report.failures.append(
                f"program deadlocks; blocked unit heads: {stuck}")
            if raise_on_failure:
                raise ValidationError(report.failures[-1])
            report.signalled_tokens = signalled
            return report
    report.signalled_tokens = signalled
    return report
