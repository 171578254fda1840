"""The simulator: a coalesced replay of the compiled unit queues.

The reference semantics is a process-based discrete-event kernel that
resumes a Python generator for every operation of every unit —
creating an ``Event``, bouncing through a zero-delay deque, and
re-entering ``execute_op`` several times per op. It lives on only as
the test oracle (``tests/oracle/``). All of that machinery computes
exactly one dynamic quantity: the end-to-end cycle count (every other
field of an ``ExecutionResult`` — busy cycles, DRAM bytes, op counts —
is a static function of the program, because every operation executes
exactly once). This module therefore splits simulation into:

* :func:`build_template` — a once-per-structure pass over the compiled
  queues that precomputes each unit's *serial action chain*: the exact
  sequence of kernel interactions ``execute_op`` would perform (token
  waits, credit acquires, buffer handoffs, DRAM bursts, compute
  occupancies) with every timed argument left as a slot, plus the
  static DRAM accounting;
* :func:`retime` — one design's plan: the slots written from the
  program's cost lists and a DramConfig, and the busy sums;
* :func:`run_plan` — a bespoke scheduler that replays the six chains,
  entering its event structures only at cross-unit synchronisation
  points: buffer handoffs (credits / handoff stores), DRAM-channel
  arbitration, controller tokens, and time advances;
* :func:`op_slices` — after a probed replay, labels the probe's raw
  windows with the operations that made them (the per-op timeline).

Order-equivalence argument (the §4 cycle-neutrality obligation)
---------------------------------------------------------------

Cycle counts out of :func:`run_plan` are identical to the process-based
kernel's (``tests/oracle/``) because the scheduler is an *operational
mirror* of it —
every kernel interaction the generators would perform appears in the
precompiled chains, in the same per-unit order — plus one provably
order-preserving reduction, applied in two places:

**Inline continuation on an empty ready set.** In the process kernel,
yielding an already-available event (a signalled token, a free credit,
a ready store slot, an idle DRAM port) still costs one trip through
the zero-delay deque, which matters only for *fairness*: it lets other
already-scheduled actions interleave first. The bespoke scheduler
performs that round trip **unless** the ready deque is empty and no
heap entry has matured (``heap[0].time > now``) — in which case the
trip would pop the very entry it just pushed, with nothing able to run
in between, so continuing inline is literally the same execution. The
same test gates running a freshly matured timer's unit directly
instead of parking it in the ready lane first. The reduction is a
runtime no-op, not a reordering, so every interleaving — DRAM
arbitration order included — is preserved exactly. This extends PR 4's
zero-delay FIFO argument: PR 4 moved zero-delay actions from the heap
to a FIFO lane because their (time, sequence) order degenerates to
FIFO; this module additionally skips the lane when it is provably
empty.

**Inline time advance.** The same argument applies to the heap: when a
unit starts a ``c``-cycle sleep while the ready lane is empty and every
pending timer matures strictly *after* ``now + c``, the entry it would
push is guaranteed to be the very next one popped (a timer maturing
*at* ``now + c`` would have been pushed earlier, carry a smaller
sequence number, and win the tie — hence the strict inequality).
Nothing can run in between, so the scheduler advances ``now`` by ``c``
and keeps executing the unit's chain without touching the heap at all.
In an uncontended stretch — one engine streaming shards while the
other sits blocked on a controller token — this collapses the entire
intra-shard serial chain (compute occupancy, DRAM burst occupancy,
burst latency) into straight-line arithmetic on ``now``, which is what
"only enter the event kernel at cross-unit synchronization points"
means operationally: the heap and ready lane are touched only when
another unit could actually observe or interleave.

A tempting further reduction — summing a unit's run of back-to-back
compute occupancies ``c1, c2`` into one ``c1 + c2`` timeout — is
**unsound** and deliberately not performed: heap entries tie-break on
insertion sequence, and the second hop's entry is inserted at
``t + c1`` in the mirrored kernel but at ``t`` when merged. If another
unit's timer matures on the same cycle ``t + c1 + c2``, merging flips
which unit wakes first and (through DRAM arbitration) can move the
final cycle count — observed as a ±1-cycle drift on the self-loop
differential workloads. Intra-chain hops instead stay as individual
heap entries, each woken through the (cheap) inline path.

Everything else is a one-to-one translation: tokens keep their
level-sensitive one-shot semantics and FIFO waiter order; credits
mirror ``Semaphore`` (signal hands the token straight to the oldest
waiter); handoffs mirror ``Store`` including the wake order of a
blocked putter vs. the getter that unblocked it; the DRAM port mirrors
``Resource`` FIFO arbitration with the release happening after the
occupancy and before the latency sleep. ``tests/test_coalesce.py``
locks the equivalence by running the replay and the oracle over the
differential suite and asserting exact cycle equality.

Compile-product dependency key
------------------------------

A :class:`PlanTemplate` is a pure function of the program's op queues;
a :class:`CoalescedPlan` adds the program's cost lists and a
``DramConfig`` and nothing else. A program builds its template once
(``Program.plan_template``, shared by its re-costs and stored with it
by :mod:`repro.compiler.store`) and re-times it per DramConfig
(``Program.coalesced_plan``), so neither a re-cost nor a DRAM-only DSE
variant walks an op. A zero-cycle compute op (none occurs in lowered
workloads) keeps its slot as a ``NOP``, which the replay steps over.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush

from typing import TYPE_CHECKING

from repro.compiler.ir import (
    CHANNELS,
    COMPUTE_OPS,
    DOUBLE_BUFFER_CREDITS,
    UNITS,
    AccumWritebackOp,
    AcquireOp,
    DmaOp,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.config.accelerator import DramConfig

if TYPE_CHECKING:
    from repro.obs.hwtel import HwProbe


class SimulationError(RuntimeError):
    """Raised when a program cannot be simulated."""


class DeadlockError(SimulationError):
    """Raised when simulation drains with unit queues unfinished;
    carries the stuck unit names and the cycle the machine stopped."""

    def __init__(self, stuck: list[str], cycles: int) -> None:
        super().__init__(f"simulation deadlocked; unfinished units: "
                         f"{stuck}")
        self.stuck = stuck
        self.cycles = cycles


# Action opcodes, numbered roughly by execution frequency (the
# scheduler dispatches through an if-chain in this order). Each chain
# is one flat list of packed integers ``kind | (arg << 4)``; the
# scheduler's inner loop dispatches on the low nibble. Token and
# channel operands are interned to ints at build time so the hot loop
# never hashes a string. A compute occupancy and a DRAM burst
# occupancy have identical kernel behaviour (sleep ``arg`` cycles), so
# both lower to ``TIMEOUT``.
TIMEOUT = 0         # arg: cycles              occupy the unit / the burst
DRAM_REQ = 1        # arg: unused              arbitrate for the DRAM port
DRAM_REL = 2        # arg: latency cycles      release port, pay latency
CREDIT_WAIT = 3     # arg: channel id          acquire a double-buffer credit
CREDIT_SIGNAL = 4   # arg: channel id          release a credit (synchronous)
PUT = 5             # arg: channel id          hand off a filled buffer
GET = 6             # arg: channel id          wait for a filled buffer
WAIT = 7            # arg: token id            wait on a controller token
SIGNAL = 8          # arg: token id            signal a token (synchronous)
END = 9             # chain terminator sentinel
NOP = 10            # arg: unused              a zero-cycle compute slot

#: A timestamp later than any simulation reaches; stands in for "the
#: heap is empty" in the hoisted next-deadline register.
_NEVER = 1 << 62


def _pack(kind: int, arg: int = 0) -> int:
    return kind | (arg << 4)


@dataclass(slots=True)
class CoalescedPlan:
    """Precompiled per-unit action chains plus all static accounting."""

    #: Flat packed action chains, indexed like ``UNITS``; each ends with
    #: an ``END`` sentinel.
    unit_actions: list[list[int]]
    num_tokens: int
    #: Bits reserved for the timer-insertion sequence number in the
    #: scheduler's packed heap entries — sized to the total number of
    #: timed actions, which bounds how many pushes can happen.
    seq_bits: int
    unit_busy_cycles: dict[str, int]
    #: per unit: (read_bytes, write_bytes, read_tx, write_tx)
    dram_traffic: dict[str, tuple[int, int, int, int]]
    dram_busy_cycles: int
    #: Per unit, in chain order: ``(is_read, num_bytes)`` of each DRAM
    #: burst, for the telemetry probe (:mod:`repro.obs.hwtel`) only.
    dma_meta: list[list[tuple[bool, int]]]


def _occupancy(num_bytes: int, bytes_per_cycle: float) -> int:
    """Mirror of ``DramChannel.transfer``'s burst occupancy."""
    return max(int(round(num_bytes / bytes_per_cycle)), 1)


@dataclass(slots=True)
class PlanTemplate:
    """A structure's action chains with every timed argument a slot;
    the plans :func:`retime` derives share its queue-static fields."""

    #: Packed chains indexed like ``UNITS``, slots unwritten.
    unit_actions: list[list[int]]
    num_tokens: int
    dram_traffic: dict[str, tuple[int, int, int, int]]
    dma_meta: list[list[tuple[bool, int]]]
    #: Per unit, each compute op's slot index, in cost-list order.
    compute_slots: list[list[int]]
    #: Per unit, each burst's occupancy slot index (latency slot next).
    burst_slots: list[list[int]]


def build_template(queues: dict[str, list[Operation]]) -> PlanTemplate:
    """Lower per-unit operation queues into action chains with slots.

    Emits, for each operation, exactly the kernel interactions the
    oracle's ``execute_op`` performs, in the same order, leaving each
    compute op's ``TIMEOUT`` and each burst's occupancy ``TIMEOUT`` and
    ``DRAM_REL`` latency as slots, and sums the byte accounting.
    """
    channel_ids = {channel: i for i, channel in enumerate(CHANNELS)}
    token_ids: dict[str, int] = {}

    def token_id(token: str) -> int:
        existing = token_ids.get(token)
        if existing is None:
            existing = token_ids[token] = len(token_ids)
        return existing

    unit_actions: list[list[int]] = []
    compute_slots: list[list[int]] = []
    burst_slots: list[list[int]] = []
    traffic: dict[str, tuple[int, int, int, int]] = {}
    dma_meta: list[list[tuple[bool, int]]] = []
    for unit in UNITS:
        chain: list[int] = []
        slots: list[int] = []
        bursts: list[int] = []
        meta: list[tuple[bool, int]] = []
        reads = writes = read_tx = write_tx = 0
        for op in queues.get(unit, []):
            for token in op.wait:
                chain.append(_pack(WAIT, token_id(token)))
            if isinstance(op, AcquireOp):
                chain.append(_pack(CREDIT_WAIT, channel_ids[op.channel]))
            elif isinstance(op, PopOp):
                chain.append(_pack(GET, channel_ids[op.channel]))
            elif isinstance(op, ReleaseOp):
                chain.append(_pack(CREDIT_SIGNAL, channel_ids[op.channel]))
            elif isinstance(op, PushOp):
                chain.append(_pack(PUT, channel_ids[op.channel]))
            elif isinstance(op, (DmaOp, AccumWritebackOp)):
                is_load = isinstance(op, DmaOp) and op.direction == "load"
                if is_load:
                    reads += op.num_bytes
                    read_tx += 1
                else:
                    writes += op.num_bytes
                    write_tx += 1
                if op.num_bytes:
                    chain.append(_pack(DRAM_REQ))
                    bursts.append(len(chain))
                    chain.append(_pack(TIMEOUT))
                    chain.append(_pack(DRAM_REL))
                    meta.append((is_load, op.num_bytes))
            elif isinstance(op, COMPUTE_OPS):
                # Deliberately NOT merged with an adjacent TIMEOUT: see
                # the module docstring — the second hop's heap insertion
                # order is part of the observable semantics when another
                # unit's timer matures on the same cycle.
                slots.append(len(chain))
                chain.append(NOP)
            for token in op.signal:
                chain.append(_pack(SIGNAL, token_id(token)))
        chain.append(_pack(END))
        unit_actions.append(chain)
        compute_slots.append(slots)
        burst_slots.append(bursts)
        dma_meta.append(meta)
        traffic[unit] = (reads, writes, read_tx, write_tx)
    return PlanTemplate(unit_actions, len(token_ids), traffic, dma_meta,
                        compute_slots, burst_slots)


def retime(template: PlanTemplate, costs: dict[str, list[int]],
           dram: DramConfig) -> CoalescedPlan:
    """One design's plan: ``template``'s chains, copied, with the slots
    written from ``costs`` (a program's cost lists; a zero-cycle op gets
    a ``NOP``) and ``dram``. The busy sums and ``seq_bits`` follow from
    the slot values; no op is read.
    """
    release = _pack(DRAM_REL, dram.burst_latency_cycles)
    occupancies: dict[int, int] = {}  # bursts repeat a few sizes
    unit_actions: list[list[int]] = []
    busy: dict[str, int] = {}
    dram_busy = timed = 0
    for unit, chain, slots, bursts, meta in zip(
            UNITS, template.unit_actions, template.compute_slots,
            template.burst_slots, template.dma_meta):
        chain = chain.copy()
        cycles = costs.get(unit, ())
        if len(cycles) != len(slots):
            raise SimulationError(f"{unit}: {len(cycles)} costs for "
                                  f"{len(slots)} compute ops")
        for index, cost in zip(slots, cycles):
            # TIMEOUT is opcode 0: the packed action is ``cost << 4``.
            chain[index] = cost << 4 if cost else NOP
        for index, (_, num_bytes) in zip(bursts, meta):
            occupancy = occupancies.get(num_bytes)
            if occupancy is None:
                occupancy = occupancies[num_bytes] = _occupancy(
                    num_bytes, dram.bytes_per_cycle)
            chain[index] = occupancy << 4
            chain[index + 1] = release
            dram_busy += occupancy
        busy[unit] = sum(cycles)
        timed += (len(slots) - cycles.count(0) + len(bursts)
                  * (2 if dram.burst_latency_cycles else 1))
        unit_actions.append(chain)
    return CoalescedPlan(unit_actions, template.num_tokens,
                         max(timed, 1).bit_length() + 1, busy,
                         dict(template.dram_traffic), dram_busy,
                         template.dma_meta)


def run_plan(plan: CoalescedPlan, probe: HwProbe | None = None) -> int:
    """Replay the action chains; returns the end-to-end cycle count.

    Operationally mirrors ``Environment.run`` driving six
    ``unit_process`` generators (see the module docstring for the
    order-equivalence argument). Raises :class:`DeadlockError` when
    the event structures drain with chains unfinished.

    ``probe`` (an :class:`repro.obs.hwtel.HwProbe`) records the raw
    hardware-telemetry event stream: compute-occupancy windows, DRAM
    bursts (direction/bytes resolved through the plan's static
    ``dma_meta``, consumed in per-unit chain order), and the
    requesting unit and port-queue depth at each request's arrival.
    Recording is append-only and reads no scheduler state, so a probed
    replay is cycle-identical to an unprobed one by construction; an
    unprobed replay pays one predictable branch per action.

    The branch structure below is deliberately flat and local-heavy:
    this loop *is* the simulator, and on a million-edge program it
    executes a few tens of thousands of actions per run.
    """
    chains = plan.unit_actions
    num_units = len(chains)
    pcs = [0] * num_units
    #: Units whose chain reached its END sentinel (a blocked unit can
    #: share a finished unit's pc, so completion is tracked explicitly).
    done = [False] * num_units

    now = 0
    seq = 0
    # Heap entries are single packed ints ``(wake << time_shift) |
    # (seq << 4) | unit`` — integer comparison is exactly the process
    # kernel's (time, sequence) lexicographic order because the fields
    # occupy disjoint bit ranges and ``seq`` cannot overflow its field
    # (``seq_bits`` covers the total number of timed actions).
    time_shift = plan.seq_bits + 4
    heap: list[int] = []
    #: Maturity of the earliest pending timer (the hoisted ``heap[0]``
    #: deadline); ``_NEVER`` when the heap is empty.
    next_wake = _NEVER
    # Zero-delay ready lane; seeded in launch order exactly as the
    # oracle spawns the unit processes.
    fast: deque[int] = deque(range(num_units))
    fast_append = fast.append
    fast_popleft = fast.popleft

    rec = probe is not None
    if rec:
        probe_busy = probe.busy
        probe_dram = probe.dram
        probe_queue = probe.queue
        dma_meta = plan.dma_meta
        #: Next unconsumed ``dma_meta`` entry per unit; bursts execute
        #: in chain order within a unit, so a running index suffices.
        meta_idx = [0] * num_units

    # None = never referenced, True = signalled, list = FIFO waiters.
    tokens: list[object] = [None] * plan.num_tokens
    num_channels = len(CHANNELS)
    credits = [DOUBLE_BUFFER_CREDITS] * num_channels
    credit_waiters = [deque() for _ in range(num_channels)]
    store_items = [0] * num_channels
    store_capacity = [max(DOUBLE_BUFFER_CREDITS, 1)] * num_channels
    store_getters = [deque() for _ in range(num_channels)]
    store_putters = [deque() for _ in range(num_channels)]
    dram_free = True
    dram_waiters: deque[int] = deque()

    while True:
        if heap and (not fast or next_wake <= now):
            entry = heappop(heap)
            unit = entry & 15
            now = entry >> time_shift
            next_wake = (heap[0] >> time_shift) if heap else _NEVER
            # A matured timer wakes its unit via the ready lane unless
            # nothing else is pending (inline continuation: the
            # park-and-pop would be a no-op, so run the unit directly).
            if fast or next_wake <= now:
                fast_append(unit)
                continue
        elif fast:
            unit = fast_popleft()
        else:
            break

        chain = chains[unit]
        pc = pcs[unit]
        while True:
            action = chain[pc]
            kind = action & 15
            arg = action >> 4
            if kind == TIMEOUT:
                pc += 1
                wake = now + arg
                if rec:
                    # A timeout followed by DRAM_REL is a burst
                    # occupancy (DMA lowers to REQ/TIMEOUT/REL and
                    # nothing else emits that pair); anything else is
                    # compute occupancy.
                    if (chain[pc] & 15) == DRAM_REL:
                        index = meta_idx[unit]
                        meta_idx[unit] = index + 1
                        is_read, num_bytes = dma_meta[unit][index]
                        probe_dram.append(
                            (UNITS[unit],
                             "read" if is_read else "write",
                             now, arg, num_bytes))
                    else:
                        probe_busy.append((UNITS[unit], now, wake))
                # Inline time advance: if nothing is ready and every
                # pending timer matures strictly later, the entry we
                # would push is the next one popped — skip the heap and
                # keep executing (see the module docstring).
                if not fast and next_wake > wake:
                    now = wake
                    continue
                seq += 1
                heappush(heap, (wake << time_shift) | (seq << 4) | unit)
                if wake < next_wake:
                    next_wake = wake
                break
            if kind == DRAM_REQ:
                if rec:
                    # Queue depth at arrival: holders + waiters, the
                    # oracle's in_use + queue_length.
                    probe_queue.append(
                        (UNITS[unit], now, (0 if dram_free else 1)
                         + len(dram_waiters)))
                if dram_free:
                    if not fast and next_wake > now:
                        # The grant round trip is elidable; try the
                        # whole burst inline (grant, occupy, release —
                        # nothing else can run before the occupancy
                        # ends when every pending timer matures after
                        # it, so holding the port is unobservable).
                        wake = now + (chain[pc + 1] >> 4)
                        if rec:
                            index = meta_idx[unit]
                            meta_idx[unit] = index + 1
                            is_read, num_bytes = dma_meta[unit][index]
                            probe_dram.append(
                                (UNITS[unit],
                                 "read" if is_read else "write",
                                 now, chain[pc + 1] >> 4, num_bytes))
                        if next_wake > wake:
                            latency = chain[pc + 2] >> 4
                            pc += 3
                            now = wake
                            if latency:
                                wake = now + latency
                                if next_wake > wake:
                                    now = wake
                                    continue
                                seq += 1
                                heappush(heap, (wake << time_shift)
                                         | (seq << 4) | unit)
                                if wake < next_wake:
                                    next_wake = wake
                                break
                            continue
                        # Grant inline, but the occupancy must sleep on
                        # the heap (a timer matures during the burst).
                        dram_free = False
                        pc += 2
                        seq += 1
                        heappush(heap, (wake << time_shift)
                                 | (seq << 4) | unit)
                        if wake < next_wake:
                            next_wake = wake
                        break
                    dram_free = False
                    pc += 1
                    fast_append(unit)
                    break
                dram_waiters.append(unit)
                pc += 1
                break
            if kind == DRAM_REL:
                # Mirror DramChannel.transfer: release the port (the
                # oldest waiter inherits it) before the latency sleep.
                if dram_waiters:
                    fast_append(dram_waiters.popleft())
                else:
                    dram_free = True
                pc += 1
                if arg:
                    wake = now + arg
                    if not fast and next_wake > wake:
                        now = wake
                        continue
                    seq += 1
                    heappush(heap,
                             (wake << time_shift) | (seq << 4) | unit)
                    if wake < next_wake:
                        next_wake = wake
                    break
                continue
            if kind == CREDIT_WAIT:
                if credits[arg] > 0:
                    credits[arg] -= 1
                    pc += 1
                    if fast or next_wake <= now:
                        fast_append(unit)
                        break
                    continue
                credit_waiters[arg].append(unit)
                pc += 1
                break
            if kind == CREDIT_SIGNAL:
                waiters = credit_waiters[arg]
                if waiters:
                    fast_append(waiters.popleft())
                else:
                    credits[arg] += 1
                pc += 1
                continue
            if kind == PUT:
                getters = store_getters[arg]
                if getters:
                    # Mirror Store.put: the waiting getter's resume is
                    # scheduled first, then the putter's own (its done
                    # event was triggered synchronously, so its yield
                    # costs one ready-lane trip — never inline, the
                    # getter is already queued ahead of it).
                    fast_append(getters.popleft())
                    fast_append(unit)
                    pc += 1
                    break
                if store_items[arg] < store_capacity[arg]:
                    store_items[arg] += 1
                    pc += 1
                    if fast or next_wake <= now:
                        fast_append(unit)
                        break
                    continue
                store_putters[arg].append(unit)
                pc += 1
                break
            if kind == GET:
                if store_items[arg]:
                    putters = store_putters[arg]
                    if putters:
                        # Mirror Store.get: the blocked putter's item
                        # takes the freed slot and its resume precedes
                        # the getter's own ready-lane trip.
                        fast_append(putters.popleft())
                        fast_append(unit)
                        pc += 1
                        break
                    store_items[arg] -= 1
                    pc += 1
                    if fast or next_wake <= now:
                        fast_append(unit)
                        break
                    continue
                store_getters[arg].append(unit)
                pc += 1
                break
            if kind == WAIT:
                state = tokens[arg]
                if state is None:
                    tokens[arg] = [unit]
                    pc += 1
                    break
                if state is True:
                    pc += 1
                    if fast or next_wake <= now:
                        fast_append(unit)
                        break
                    continue
                state.append(unit)
                pc += 1
                break
            if kind == SIGNAL:
                state = tokens[arg]
                if state is not True:
                    if state:
                        fast.extend(state)
                    tokens[arg] = True
                pc += 1
                continue
            if kind == END:
                done[unit] = True
                break
            if kind == NOP:
                pc += 1
                continue
            raise SimulationError(f"unknown action kind {kind!r}")
        pcs[unit] = pc

    if not all(done):
        raise DeadlockError(
            [UNITS[i] for i in range(num_units) if not done[i]], now)
    return now


def op_slices(queues: dict[str, list[Operation]],
              costs: dict[str, list[int]], probe: HwProbe,
              dram: DramConfig) -> list[tuple[str, str, int, int]]:
    """Label a probed replay's windows with the ops that made them.

    Returns ``(unit, label, start, end)`` for every operation that
    occupied its unit for a non-zero time, by inverting
    :func:`build_template`'s op-to-action mapping over the probe's
    streams (each unit appends them in queue order):

    * the k-th compute op with non-zero cycles in ``costs`` (the
      program's per-unit cost lists) is the unit's k-th ``busy``
      window;
    * the k-th DMA or writeback moving bytes is the unit's k-th
      ``dram`` burst, and occupies the unit from its request (the
      unit's k-th ``queue`` sample) to grant + occupancy + burst
      latency.

    Token waits, credits and buffer handoffs take no time of their
    own. The probe must have recorded exactly one run of ``queues``.
    """
    busy: dict[str, list[tuple[int, int]]] = {unit: [] for unit in UNITS}
    for unit, start, end in probe.busy:
        busy[unit].append((start, end))
    requests: dict[str, list[int]] = {unit: [] for unit in UNITS}
    for unit, cycle, _depth in probe.queue:
        requests[unit].append(cycle)
    latency = dram.burst_latency_cycles
    done: dict[str, list[int]] = {unit: [] for unit in UNITS}
    for unit, _direction, grant, occupancy, _bytes in probe.dram:
        done[unit].append(grant + occupancy + latency)

    slices: list[tuple[str, str, int, int]] = []
    for unit in UNITS:
        windows = iter(busy[unit])
        bursts = zip(requests[unit], done[unit])
        cycles = iter(costs.get(unit, ()))
        for op in queues.get(unit, []):
            if isinstance(op, (DmaOp, AccumWritebackOp)):
                if not op.num_bytes:
                    continue
                start, end = next(bursts)
            elif isinstance(op, COMPUTE_OPS) and next(cycles):
                start, end = next(windows)
            else:
                continue
            slices.append((unit, op.label or type(op).__name__,
                           start, end))
    return slices
