"""Token liveness and abstract schedulability.

Tokens are one-shot: each may be signalled by exactly one op, and a
wait on a token nothing signals can never clear. ``token-liveness``
proves both properties structurally; ``schedulability`` then runs the
Kahn-style abstract scheduler from
:mod:`repro.analysis.passes.validation` to prove every wait is actually
*reachable* — signalled before (or concurrently with) the op that
blocks on it — and that no credit/descriptor cycle deadlocks the
units.
"""

from __future__ import annotations

from collections import defaultdict

from repro.analysis.passes.validation import validate_program
from repro.analysis.report import PassResult
from repro.compiler.ir import DOUBLE_BUFFER_CREDITS
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig


def check_token_liveness(program: Program,
                         config: GNNeratorConfig) -> PassResult:
    result = PassResult("token-liveness")
    signallers: dict[str, list[str]] = defaultdict(list)
    waiters: dict[str, list[str]] = defaultdict(list)
    for op in program.order:
        where = op.label or f"{op.unit}:{type(op).__name__}"
        for token in op.signal:
            signallers[token].append(where)
        for token in op.wait:
            waiters[token].append(where)

    for token, sites in sorted(waiters.items()):
        if token not in signallers:
            result.fail(f"token {token!r} is waited on by {sites[0]} "
                        f"but nothing signals it")
    for token, sites in sorted(signallers.items()):
        if len(sites) > 1:
            result.fail(f"token {token!r} signalled {len(sites)} times "
                        f"({sites[0]} and {sites[1]}{'...' if len(sites) > 2 else ''}); "
                        f"tokens are one-shot")

    # Signalled-but-never-waited tokens are legitimate (final-layer
    # cover tokens have no downstream consumer) — surface the count so
    # a sudden jump is visible, but do not fail on them.
    dead = sum(1 for token in signallers if token not in waiters)
    result.counts = {
        "tokens": len(signallers),
        "waited_tokens": len(waiters),
        "dead_signals": dead,
    }
    return result


def check_schedulability(program: Program,
                         config: GNNeratorConfig) -> PassResult:
    result = PassResult("schedulability")
    report = validate_program(program, raise_on_failure=False)
    result.failures.extend(report.failures)
    for channel, depth in sorted(report.max_channel_depth.items()):
        if depth > DOUBLE_BUFFER_CREDITS:
            result.fail(f"channel {channel!r} reaches queue depth "
                        f"{depth} > DOUBLE_BUFFER_CREDITS="
                        f"{DOUBLE_BUFFER_CREDITS}")
    result.counts = {"retired_ops": report.retired_ops}
    for channel, depth in sorted(report.max_channel_depth.items()):
        result.counts[f"{channel}_max_depth"] = depth
    return result
