"""Accelerator instruction set.

A compiled :class:`~repro.compiler.program.Program` holds one FIFO
operation queue per hardware unit:

=================  ====================================================
Unit               Role (paper Sec III)
=================  ====================================================
``graph.fetch``    Shard Edge Fetch + Shard Feature Fetch Units
``graph.compute``  Shard Compute Unit (GPEs: Apply/Reduce lanes)
``graph.writeback``Shard Writeback Unit
``dense.fetch``    Dense Engine input/weight scratchpad fill (own
                   memory controller)
``dense.compute``  systolic array + activation unit
``dense.store``    Dense Engine output drain
=================  ====================================================

Synchronisation uses two mechanisms, both resolved by the GNNerator
Controller at simulation time:

* **tokens** (named one-shot events) express cross-unit data
  dependencies — e.g. the Dense Engine's input fetch for a destination
  interval waits on the Graph Engine's writeback token for that
  interval/block (dense-first stalls are the mirror image);
* **credits** (counting semaphores per channel, initialised to 2)
  express double buffering: a fetch unit acquires a buffer half before
  filling it, the consumer releases it when done, so fetch runs at most
  one shard ahead of compute — exactly the paper's double-buffered
  prefetch pipeline.

A DMA op carries its byte count. A compute op carries no cost: its
cycles live in the program's per-unit cost lists
(:attr:`repro.compiler.program.Program.costs`), which the cost pass
(:func:`repro.compiler.lowering.fill_costs`) fills per design, so one
op structure serves every design of its geometry. The functional
runtime interprets the same operations over numpy arrays and ignores
timing.
"""

from __future__ import annotations

from dataclasses import dataclass

UNITS = (
    "graph.fetch",
    "graph.compute",
    "graph.writeback",
    "dense.fetch",
    "dense.compute",
    "dense.store",
)

#: Double-buffer credit channels (producer unit -> consumer unit).
CHANNELS = ("graph", "dense")

#: Buffer halves per double-buffered channel: the credits each channel
#: starts with, and the capacity of its fetch-to-compute handoff.
DOUBLE_BUFFER_CREDITS = 2


class CompileError(ValueError):
    """Raised when a workload cannot be lowered onto the platform."""


@dataclass(kw_only=True)
class Operation:
    """Base class: every op runs on one unit, after its ``wait`` tokens,
    and signals its ``signal`` tokens on completion."""

    unit: str
    wait: tuple[str, ...] = ()
    signal: tuple[str, ...] = ()
    label: str = ""

    def add_signal(self, token: str) -> None:
        self.signal = self.signal + (token,)

    def add_wait(self, token: str) -> None:
        self.wait = self.wait + (token,)


@dataclass(kw_only=True)
class DmaOp(Operation):
    """A DRAM burst issued by an engine's memory controller.

    ``purpose`` tags the traffic class for reports: ``edges``,
    ``src-features``, ``self-features``, ``dst-partials``, ``weights``,
    ``input``, ``partial-out``, ``output``.
    """

    direction: str  # "load" | "store"
    num_bytes: int
    array: str
    rows: tuple[int, int]
    dims: tuple[int, int]
    purpose: str

    def __post_init__(self) -> None:
        if self.direction not in ("load", "store"):
            raise CompileError(f"bad DMA direction {self.direction!r}")
        if self.num_bytes < 0:
            raise CompileError("negative DMA size")


@dataclass(kw_only=True)
class AcquireOp(Operation):
    """Take one double-buffer credit on ``channel`` (blocks when both
    halves are in use)."""

    channel: str


@dataclass(kw_only=True)
class ReleaseOp(Operation):
    """Return a double-buffer credit on ``channel``."""

    channel: str


@dataclass(kw_only=True)
class PushOp(Operation):
    """Hand a filled buffer descriptor to the consumer unit."""

    channel: str
    step: int = 0


@dataclass(kw_only=True)
class PopOp(Operation):
    """Wait for the next filled buffer descriptor."""

    channel: str


@dataclass(kw_only=True)
class InitAccumulatorOp(Operation):
    """Materialise a destination interval's accumulators for one block.

    ``mode`` is ``"self"`` (seed with ``s(v) * h[v]``, the ∪-self term of
    Eq 1/2), ``"zero"`` (sum identity) or ``"neginf"`` (max identity).
    """

    layer: int
    stage: int
    rows: tuple[int, int]
    dims: tuple[int, int]
    acc_array: str
    src_array: str
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in ("self", "zero", "neginf"):
            raise CompileError(f"bad init mode {self.mode!r}")


@dataclass(kw_only=True)
class ShardAggregateOp(Operation):
    """Process one shard's edges for one feature block on the GPEs."""

    layer: int
    stage: int
    shard: tuple[int, int]
    dims: tuple[int, int]
    reduce: str
    acc_array: str
    src_array: str
    num_edges: int


@dataclass(kw_only=True)
class SelfApplyOp(Operation):
    """Fold the ∪-self term into a destination interval's accumulators.

    Emitted at the diagonal shard visit ``(j, j)``, where the resident
    source-feature block *is* the destination interval's own features —
    so the self term costs Apply/Reduce cycles but no extra DRAM traffic.
    """

    layer: int
    stage: int
    rows: tuple[int, int]
    dims: tuple[int, int]
    acc_array: str
    src_array: str
    reduce: str


@dataclass(kw_only=True)
class AccumWritebackOp(Operation):
    """Store a destination interval's accumulators to feature memory.

    ``partial`` writebacks spill in-flight partial sums (src-stationary
    walks); final writebacks (``partial=False``) publish the finished
    aggregation and apply the max-identity fixup when needed.
    """

    layer: int
    stage: int
    rows: tuple[int, int]
    dims: tuple[int, int]
    acc_array: str
    num_bytes: int
    partial: bool
    fixup_neginf: bool = False


@dataclass(kw_only=True)
class GemmOp(Operation):
    """One systolic-array pass: ``out[rows] (+)= x[rows, src_dims] @
    W[weight_rows, :]``.

    ``weight_rows`` selects the contraction slice of the (possibly
    concatenated) weight matrix; ``accumulate`` distinguishes the first
    block (assign) from partial-sum accumulation (Sec IV-B's reload of
    partial computed accumulations).
    """

    layer: int
    stage: int
    rows: tuple[int, int]
    src_array: str
    src_dims: tuple[int, int]
    weight_rows: tuple[int, int]
    out_array: str
    accumulate: bool
    m: int
    k: int
    n: int


@dataclass(kw_only=True)
class ActivationOp(Operation):
    """Bias + activation over a finished output interval (the Dense
    Engine's 1-D activation unit)."""

    layer: int
    stage: int
    rows: tuple[int, int]
    out_array: str
    activation: str
    has_bias: bool


#: Operations that occupy a compute unit; each has one entry in its
#: unit's cost list.
COMPUTE_OPS = (InitAccumulatorOp, SelfApplyOp, ShardAggregateOp, GemmOp,
               ActivationOp)


def op_bytes(op: Operation) -> int:
    """DRAM bytes moved by an op (0 for non-memory ops)."""
    if isinstance(op, (DmaOp, AccumWritebackOp)):
        return op.num_bytes
    return 0
