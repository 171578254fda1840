"""Plan/program cross-agreement.

:func:`repro.sim.coalesce.retime` writes one design's cycles into the
chains :func:`repro.sim.coalesce.build_template` lowers the op queues
to; this pass *re-derives* them op by op from the queues and cost
lists with an independent decoder and checks the cached plan matches
action by action — token interning (first appearance in ``UNITS``
order must be bijective with the program's token set), channel
operands, compute (``NOP`` at zero), occupancy and latency arguments,
busy-cycle sums, and the ``seq_bits`` sizing of the scheduler's packed
heap entries. A stale or corrupted cached plan (e.g. a store entry
whose program was edited) cannot silently replay the wrong chains.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, cast

from repro.analysis.report import PassResult
from repro.compiler.ir import (
    CHANNELS,
    COMPUTE_OPS,
    UNITS,
    AccumWritebackOp,
    AcquireOp,
    DmaOp,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.compiler.program import Program
from repro.config.accelerator import GNNeratorConfig

if TYPE_CHECKING:
    from repro.sim.coalesce import CoalescedPlan


def _expected_actions(op: Operation, cycles: int,
                      channel_ids: dict[str, int],
                      bytes_per_cycle: float, latency: int
                      ) -> list[tuple[int, int]]:
    """The ``(kind, arg)`` sequence a re-timed plan holds for one op
    (``cycles``: its cost-list entry, if a compute op), excluding the
    token WAIT/SIGNAL bracketing (handled by the caller because token
    ids need the interning map)."""
    from repro.sim.coalesce import (
        CREDIT_SIGNAL,
        CREDIT_WAIT,
        DRAM_REL,
        DRAM_REQ,
        GET,
        NOP,
        PUT,
        TIMEOUT,
        _occupancy,
    )

    if isinstance(op, AcquireOp):
        return [(CREDIT_WAIT, channel_ids[op.channel])]
    if isinstance(op, PopOp):
        return [(GET, channel_ids[op.channel])]
    if isinstance(op, ReleaseOp):
        return [(CREDIT_SIGNAL, channel_ids[op.channel])]
    if isinstance(op, PushOp):
        return [(PUT, channel_ids[op.channel])]
    if isinstance(op, (DmaOp, AccumWritebackOp)):
        if not op.num_bytes:
            return []
        occ = _occupancy(op.num_bytes, bytes_per_cycle)
        return [(DRAM_REQ, 0), (TIMEOUT, occ), (DRAM_REL, latency)]
    if isinstance(op, COMPUTE_OPS):
        return [(TIMEOUT, cycles)] if cycles else [(NOP, 0)]
    return []


class _ChainDecoder:
    """Cursor over one unit's packed chain, failing onto a shared
    :class:`PassResult`. The token-interning map is shared across the
    decoders of all six units (build_template interns in UNITS
    order)."""

    def __init__(self, unit: str, chain: list[int],
                 token_ids: dict[str, int], result: PassResult) -> None:
        self.unit = unit
        self.chain = chain
        self.token_ids = token_ids
        self.result = result
        self.pc = 0
        self.checked = 0

    def take(self, want_kind: int, want_arg: int | None,
             what: str) -> bool:
        if self.pc >= len(self.chain):
            self.result.fail(f"{self.unit}: chain ends early; "
                             f"expected {what}")
            return False
        action = self.chain[self.pc]
        kind, arg = action & 15, action >> 4
        if kind != want_kind or (want_arg is not None
                                 and arg != want_arg):
            self.result.fail(f"{self.unit}: chain[{self.pc}] is "
                             f"(kind={kind}, arg={arg}), expected "
                             f"{what}")
            return False
        self.pc += 1
        self.checked += 1
        return True

    def take_token(self, want_kind: int, token: str,
                   what: str) -> bool:
        expected = self.token_ids.get(token)
        if expected is None:
            # First appearance anywhere (in UNITS order) interns the
            # next id; record it, then verify the plan agrees.
            expected = self.token_ids[token] = len(self.token_ids)
        return self.take(want_kind, expected,
                         f"{what} token {token!r} (id {expected})")


def check_plan_agreement(program: Program,
                         config: GNNeratorConfig) -> PassResult:
    from repro.sim.coalesce import DRAM_REL, END, SIGNAL, TIMEOUT, WAIT

    result = PassResult("plan-agreement")
    plan = cast("CoalescedPlan", program.coalesced_plan(config.dram))
    channel_ids = {channel: i for i, channel in enumerate(CHANNELS)}
    bpc = config.dram.bytes_per_cycle
    latency = config.dram.burst_latency_cycles
    token_ids: dict[str, int] = {}
    checked_actions = 0

    for unit_index, unit in enumerate(UNITS):
        ops = program.queues.get(unit, [])
        decoder = _ChainDecoder(unit, plan.unit_actions[unit_index],
                                token_ids, result)
        costs = program.costs.get(unit, [])
        if len(costs) != sum(isinstance(op, COMPUTE_OPS) for op in ops):
            result.fail(f"{unit}: cost list and compute ops disagree")
            continue
        cycles = iter(costs)
        mismatched = False
        for op_index, op in enumerate(ops):
            where = f"op {op_index} ({op.label or type(op).__name__})"
            expected = _expected_actions(
                op, next(cycles) if isinstance(op, COMPUTE_OPS) else 0,
                channel_ids, bpc, latency)
            ok = all(decoder.take_token(WAIT, token, f"{where}: WAIT")
                     for token in op.wait)
            ok = ok and all(
                decoder.take(kind, arg, f"{where}: (kind={kind}, "
                                        f"arg={arg})")
                for kind, arg in expected)
            ok = ok and all(
                decoder.take_token(SIGNAL, token, f"{where}: SIGNAL")
                for token in op.signal)
            if not ok:
                mismatched = True
                break
        checked_actions += decoder.checked
        if mismatched:
            continue
        if not decoder.take(END, None, "END sentinel"):
            continue
        if decoder.pc != len(decoder.chain):
            result.fail(f"{unit}: {len(decoder.chain) - decoder.pc} "
                        f"trailing action(s) after the END sentinel")
        # The compute slots just matched the cost list, so it sums the
        # unit's busy cycles (DRAM occupancy is the dma pass's).
        if sum(costs) != plan.unit_busy_cycles.get(unit, 0):
            result.fail(f"{unit}: plan says "
                        f"{plan.unit_busy_cycles.get(unit, 0)} busy "
                        f"cycles, decoder recomputes {sum(costs)}")

    if len(token_ids) != plan.num_tokens:
        result.fail(f"plan interned {plan.num_tokens} tokens, decoder "
                    f"found {len(token_ids)}")
    timed = sum(
        1 for chain in plan.unit_actions for action in chain
        if (action & 15) == TIMEOUT
        or ((action & 15) == DRAM_REL and action >> 4))
    seq_bits = max(timed, 1).bit_length() + 1
    if seq_bits != plan.seq_bits:
        result.fail(f"plan seq_bits {plan.seq_bits} != recomputed "
                    f"{seq_bits} for {timed} timed actions")

    result.counts = {
        "chain_actions": sum(len(c) for c in plan.unit_actions),
        "checked_actions": checked_actions,
        "interned_tokens": len(token_ids),
        "timed_actions": timed,
    }
    return result
