"""Compiled program container and traffic/cycle accounting.

A :class:`Program` is a *structure* — op queues, order, grids, block
plans, arrays and what follows from them alone (DRAM bytes by purpose,
energy terms, the plan template), a pure function of the graph, the
network and the :class:`~repro.compiler.lowering.Geometry` — plus
*cost lists*, its compute ops' cycles. A re-cost
(:func:`~repro.compiler.lowering.recost`) shares the structure; only
op walkers, never timing, read its ops. A program holds no values:
parameters and aggregation weights are inputs of the functional
runtime. The persistent store (:mod:`repro.compiler.store`) pickles it
plainly, without its shard grids (it keeps each grid's interval size
and loads the graph's memoized grid) or coalesced plans (a loaded
program re-times its template per DramConfig on first use); the ops
pickle as one nested pickle, decoded on first read (:class:`_Ops`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compiler.ir import (
    UNITS,
    AccumWritebackOp,
    CompileError,
    DmaOp,
    Operation,
)

if TYPE_CHECKING:
    import numpy as np

    from repro.config.accelerator import DramConfig
    from repro.sim.coalesce import CoalescedPlan, PlanTemplate
from repro.dataflow.blocking import BlockPlan
from repro.graph.partition import ShardGrid
from repro.models.stages import GNNModel
from repro.obs.spans import span


class _Ops:
    """A program's op queues and emission order (``decoded``).

    They pickle as one nested pickle beside the op count, and unpickle
    undecoded. The first read of ``decoded`` decodes the blob. Racing
    first reads may each decode, but one result wins, so the queues
    and the order always share op objects, as do the re-costs sharing
    this holder.
    """

    decoded: tuple[dict[str, list[Operation]], list[Operation]]

    def __init__(self, blob: bytes | None = None, count: int = 0) -> None:
        if blob is None:
            self.decoded = ({unit: [] for unit in UNITS}, [])
        self.blob, self.count = blob, count

    def __getattr__(self, name: str) -> object:
        # Reached only while ``decoded`` is unset, so there is a blob.
        if name != "decoded" or self.blob is None:
            raise AttributeError(name)
        import pickle

        return self.__dict__.setdefault("decoded", pickle.loads(self.blob))

    def __len__(self) -> int:
        if "decoded" in self.__dict__:
            return len(self.decoded[1])
        return self.count

    def __reduce__(self) -> tuple[type[_Ops], tuple[bytes, int]]:
        import pickle

        blob = self.blob or pickle.dumps(self.decoded, protocol=5)
        return _Ops, (blob, len(self))


@dataclass
class Program:
    """Everything needed to execute a workload on the simulated machine.

    The same program is interpreted twice: functionally, given the
    parameters (:mod:`repro.compiler.runtime`), and temporally
    (:mod:`repro.accelerator`). ``order`` preserves global emission
    order, which respects data dependencies by construction and is what
    the functional interpreter walks.
    """

    graph_name: str
    model: GNNModel
    traversal: str
    feature_block: int | None
    num_nodes: int
    #: Aggregate-stage shard grids, keyed by (layer, stage).
    grids: dict[tuple[int, int], ShardGrid] = field(default_factory=dict)
    #: Block plans keyed by (layer, stage, part) — see lowering.
    plans: dict[tuple[int, int, str], BlockPlan] = field(
        default_factory=dict)
    #: Logical array dimensionalities (rows are always ``num_nodes``).
    arrays: dict[str, int] = field(default_factory=dict)
    input_array: str = "h.in"
    output_array: str = ""
    #: Each compute op's cycles, one list per compute unit in queue
    #: order (:func:`repro.compiler.lowering.fill_costs`).
    costs: dict[str, list[int]] = field(default_factory=dict)
    #: The cost pass's inputs as int32 tables, recorded and read by
    #: :mod:`repro.compiler.lowering` alone (layout: its ``TOUCH``).
    cost_inputs: dict[str, np.ndarray] = field(default_factory=dict,
                                               compare=False)
    _ops: _Ops = field(default_factory=_Ops, repr=False, compare=False)
    #: The structure's plan template (:meth:`plan_template`), shared by
    #: its re-costs. Never part of equality.
    _template: PlanTemplate | None = field(default=None, repr=False,
                                           compare=False)
    #: Coalesced-simulation plans keyed by DramConfig; re-timed lazily
    #: by :meth:`coalesced_plan` (and eagerly for the compiling config
    #: at compile time). Never part of equality, never persisted.
    _coalesced_plans: dict[DramConfig, CoalescedPlan] = field(
        default_factory=dict, repr=False, compare=False)
    #: Memoized dram_bytes_by_purpose breakdown (static once compiled).
    _dram_by_purpose: dict[str, int] | None = field(default=None, repr=False,
                                                    compare=False)
    #: The energy model's program-static sums (compute pJ, op SRAM pJ,
    #: per-kind breakdown pairs), filled lazily by
    #: :mod:`repro.eval.energy` — the compiler never reads it. Never
    #: part of equality or any cache key.
    _energy_terms: (tuple[float, float, tuple[tuple[str, float], ...]]
                    | None) = field(default=None, repr=False, compare=False)

    @property
    def queues(self) -> dict[str, list[Operation]]:
        """One FIFO op queue per unit, decoded on first read."""
        return self._ops.decoded[0]

    @property
    def order(self) -> list[Operation]:
        """Every op in emission order, decoded with :attr:`queues`."""
        return self._ops.decoded[1]

    # ------------------------------------------------------------------
    # Construction helpers (used by the lowering pass)
    # ------------------------------------------------------------------
    def emit(self, op: Operation) -> Operation:
        queues, order = self._ops.decoded
        if op.unit not in queues:
            raise CompileError(f"unknown unit {op.unit!r}")
        queues[op.unit].append(op)
        order.append(op)
        return op

    def declare_array(self, name: str, dim: int) -> str:
        if dim <= 0:
            raise CompileError(f"array {name!r} needs a positive dim")
        existing = self.arrays.get(name)
        if existing is not None and existing != dim:
            raise CompileError(
                f"array {name!r} redeclared with dim {dim} != {existing}")
        self.arrays[name] = dim
        return name

    def plan_template(self) -> PlanTemplate:
        """The structure's plan template, built on first use. Sound
        because a program's queues are immutable after compilation and
        simulation never mutates them."""
        if self._template is None:
            from repro.sim.coalesce import build_template

            with span("build-plan", graph=self.graph_name):
                self._template = build_template(self.queues)
        return self._template

    def coalesced_plan(self, dram: DramConfig) -> CoalescedPlan:
        """The precompiled action chains for the coalesced simulator:
        the template re-timed with this program's cost lists, cached per
        :class:`~repro.config.accelerator.DramConfig`."""
        plan = self._coalesced_plans.get(dram)
        if plan is None:
            from repro.sim.coalesce import retime

            template = self.plan_template()
            with span("retime", graph=self.graph_name):
                plan = self._coalesced_plans[dram] = retime(
                    template, self.costs, dram)
        return plan

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def num_operations(self) -> int:
        return len(self._ops)

    def dram_bytes_by_purpose(self) -> dict[str, int]:
        """Total DRAM traffic per purpose tag (Table I benches use this).

        Cached after the first call — the queues are immutable once
        compiled, and every simulation of the program re-reports this
        same static breakdown."""
        if self._dram_by_purpose is None:
            totals: dict[str, int] = defaultdict(int)
            for op in self.order:
                if isinstance(op, DmaOp):
                    totals[op.purpose] += op.num_bytes
                elif isinstance(op, AccumWritebackOp):
                    tag = "agg-partial" if op.partial else "agg-writeback"
                    totals[tag] += op.num_bytes
            self._dram_by_purpose = dict(totals)
        return dict(self._dram_by_purpose)

    @property
    def total_dram_bytes(self) -> int:
        return sum(self.dram_bytes_by_purpose().values())

    def compute_cycles_by_unit(self) -> dict[str, int]:
        """Serial compute-cycle totals per unit (a lower bound on busy
        time; the DES adds stalls and overlap)."""
        return {unit: sum(self.costs.get(unit, ())) for unit in UNITS}

    def describe(self) -> str:
        per_unit = {unit: len(ops) for unit, ops in self.queues.items()}
        return (f"Program({self.graph_name} x {self.model.name}, "
                f"traversal={self.traversal}, B={self.feature_block}, "
                f"{self.num_operations} ops {per_unit})")
