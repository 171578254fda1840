"""Workload lowering: (graph, model, platform) -> instruction queues.

This is the "prototype compiler" of Sec V. For every layer it walks the
stage pipeline, lowering

* aggregate stages onto the Graph Engine following Algorithm 1 — feature
  block outermost, then the shard grid in the configured stationary
  order, with compile-time residency analysis deciding every DMA
  (serpentine reuse, edge-buffer hits, partial spills);
* extract stages onto the Dense Engine with contraction ("K") blocking
  aligned to the feature blocks, weight-slice residency, partial-sum
  accumulation in the output buffer, and row sub-chunking to the input
  buffer size.

Cross-engine dependencies become tokens; double buffering becomes
credits (see :mod:`repro.compiler.ir`). Emission order respects data
dependencies, so the functional runtime can interpret ``program.order``
sequentially while the DES extracts all the pipeline overlap the token
graph allows.

Compile-product dependency keys
-------------------------------

Incremental recompilation (DESIGN.md §6) rests on each compile product
being keyed by exactly the inputs it depends on — nothing in this
module may read an input its product's cache key omits. A full
lowering is two passes, staged like ZigZag's workload → mapping → cost
pipeline:

* **structure pass** (:class:`Lowering`) — every op, token, DMA and
  shard reference. It reads the platform only through a frozen,
  hashable :class:`Geometry` (:func:`resolve_geometry`):
  traversal, the resolved feature block and sparsity elimination; per
  aggregate stage the interval size (from the memoized interval probes
  of :func:`repro.graph.partition.fitting_interval` — resolving never
  builds a grid) and the edge-buffer half; per extract stage the
  weight-buffer half (which fixes the contraction sub-slice), the
  input rows per contraction width, a standalone stage's row chunk,
  and whether the output working set spills the output-buffer half.
  Each budget is clamped to what the workload can use — a weight
  buffer larger than the stage's weights behaves like one exactly
  their size — so equal structures get equal geometries. Shard grids
  are keyed ``(graph, interval size)`` and memoized on the graph.
* **cost pass** (:func:`fill_costs`) — the program's cost lists: every
  compute op's cycles, from :mod:`repro.engines.graph.gpe` and
  :mod:`repro.engines.dense.systolic` over the cost inputs the
  structure pass records (:attr:`Program.cost_inputs`), reading no op.
  It reads ``graph.num_gpes``, ``simd_width`` and ``pipeline_depth``
  and ``dense.rows``, ``cols`` and ``dataflow``; neither pass reads
  any other field.

So two configs of one geometry compile to programs that differ only in
their cost lists, and :func:`recost` derives one from the other without
lowering or copying an op — ``Harness._compiled``'s structure memo. The
program memo and the persistent program store
(:mod:`repro.compiler.store`) key the full compile-relevant projection
(:func:`repro.config.overrides.compile_relevant_config`); clock
frequencies and the DRAM section are simulate-only and in no key,
which lets one compiled program serve DRAM-only DSE variants.

No product depends on feature values or parameters: the compiler
never computes a value. Aggregation weights, attention coefficients
included, are the functional runtime's business
(:mod:`repro.compiler.runtime`).

:func:`full_lowering_count` counts full lowerings (both passes) in this
process — the observable CI and the cache tests use to assert
"recompiled nothing". A re-cost is not one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from repro.compiler.ir import (
    AccumWritebackOp,
    AcquireOp,
    ActivationOp,
    CompileError,
    DmaOp,
    GemmOp,
    InitAccumulatorOp,
    Operation,
    PopOp,
    PushOp,
    ReleaseOp,
    SelfApplyOp,
    ShardAggregateOp,
)
from repro.compiler.program import Program
from repro.compiler.residency import (
    DstBufferState,
    EdgeBufferLru,
    LruResidency,
    OutBufferState,
    SrcBufferState,
)
from repro.config.accelerator import (
    EDGE_BYTES,
    ELEM_BYTES,
    DenseEngineConfig,
    GNNeratorConfig,
)
from repro.config.workload import DST_STATIONARY
from repro.dataflow.blocking import (
    BlockPlan,
    dimension_blocked_walk,
    plan_blocks,
)
from repro.engines.dense.systolic import (
    GemmShape,
    activation_cycles,
    gemm_timing,
)
from repro.engines.graph.gpe import (
    interval_touch_cycles,
    shard_compute_cycles,
)
from repro.graph.graph import Graph
from repro.graph.partition import (
    GPE_COUNTS,
    ShardGrid,
    fitting_interval,
    shard_grid,
)
from repro.obs.spans import span
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
)


#: Process-wide count of full lowerings (structure plus cost pass).
#: Program-store hits, harness memo hits and re-costs avoid
#: incrementing it — tests and the CI warm-run check read it to verify
#: a cached path really compiled nothing.
_FULL_LOWERINGS = 0

#: Guards the lowering counter against concurrent compiles (the serve
#: daemon's request threads).
_MEMO_LOCK = threading.Lock()


def full_lowering_count() -> int:
    """How many times this process ran the full lowering pass."""
    with _MEMO_LOCK:
        return _FULL_LOWERINGS


#: Cost-input kinds. :attr:`Program.cost_inputs` holds, per compute
#: unit, one int32 row per compute op in queue order: ``(TOUCH, rows,
#: width, 0)`` for an accumulator init or self apply, ``(SHARD, shard,
#: width, attention)``, ``(GEMM, gemm, 0, 0)`` or ``(ACTIVATION, rows,
#: cols, 0)``. Under ``"shards"``, row ``shard`` is ``(layer, stage,
#: row, col)`` and the shard's worst-GPE loads at ``GPE_COUNTS`` GPEs;
#: under ``"gemms"``, row ``gemm`` is a GEMM shape ``(m, k, n)`` (a
#: program's GEMMs repeat a few shapes). Only this module reads or
#: writes the layout.
TOUCH, SHARD, GEMM, ACTIVATION = range(4)


@dataclass(frozen=True)
class Coverage:
    """Which tokens guard which (rows, dims) region of an array."""

    entries: tuple[tuple[tuple[int, int], tuple[int, int], str], ...] = ()

    def tokens_for(self, rows: tuple[int, int],
                   dims: tuple[int, int]) -> tuple[str, ...]:
        """Tokens of all entries overlapping the queried region."""
        tokens = []
        for entry_rows, entry_dims, token in self.entries:
            if (entry_rows[0] < rows[1] and rows[0] < entry_rows[1]
                    and entry_dims[0] < dims[1] and dims[0] < entry_dims[1]):
                tokens.append(token)
        return tuple(dict.fromkeys(tokens))


@dataclass(frozen=True)
class ValueRef:
    """A logical feature array plus the tokens guarding its readiness."""

    array: str
    cover: Coverage


def _span(sl: slice) -> tuple[int, int]:
    return (sl.start, sl.stop)


def _row_subchunks(rows: tuple[int, int],
                   max_rows: int) -> list[tuple[int, int]]:
    if max_rows <= 0:
        raise CompileError("dense input buffer cannot hold a single row")
    start, stop = rows
    return [(lo, min(lo + max_rows, stop))
            for lo in range(start, stop, max_rows)]


# ----------------------------------------------------------------------
# Geometry: what the structure pass reads of the platform
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregateGeometry:
    """The platform as one aggregate stage's structure sees it."""

    interval_size: int
    #: Usable edge-buffer half, clamped to the graph's edge bytes.
    edge_buffer_bytes: int


@dataclass(frozen=True)
class ExtractGeometry:
    """The platform as one extract stage's structure sees it."""

    #: Usable weight-buffer half, clamped to the stage's weight bytes;
    #: it also fixes the contraction sub-slice ``max_k``.
    weight_buffer_bytes: int
    #: ``(contraction width, input rows per chunk)`` for every width
    #: the stage's GEMMs contract over: the input-buffer half aligned
    #: down to ``dense.rows``, clamped to the stage's longest interval.
    input_rows: tuple[tuple[int, int], ...]
    #: A standalone stage's row chunk, clamped to ``num_nodes``; 0 when
    #: an adjacent aggregate stage's intervals set the rows.
    row_chunk: int
    #: Whether the output working set spills the output-buffer half.
    spills: bool

    def max_k(self, out_dim: int) -> int:
        """Weight rows per contraction sub-slice."""
        return self.weight_buffer_bytes // (out_dim * ELEM_BYTES)


@dataclass(frozen=True)
class Geometry:
    """Everything the structure pass reads of the platform config.

    Two configs with equal geometries lower a workload to the same ops,
    tokens and DMAs; only the cost fields (:func:`fill_costs`) differ.
    Frozen and hashable: ``(workload, Geometry)`` keys the harness's
    structure memo.
    """

    traversal: str
    feature_block: int | None
    sparsity_elimination: bool
    #: Per layer, one entry per stage in stage order.
    stages: tuple[tuple[AggregateGeometry | ExtractGeometry, ...], ...]

    def aggregate(self, layer: int, stage: int) -> AggregateGeometry:
        entry = self.stages[layer][stage]
        if not isinstance(entry, AggregateGeometry):
            raise CompileError(f"no aggregate geometry for l{layer}s{stage}")
        return entry

    def extract(self, layer: int, stage: int) -> ExtractGeometry:
        entry = self.stages[layer][stage]
        if not isinstance(entry, ExtractGeometry):
            raise CompileError(f"no extract geometry for l{layer}s{stage}")
        return entry


def _block_for(feature_block: int | None, dim: int) -> int:
    return dim if feature_block is None else min(feature_block, dim)


def _input_rows(dense: DenseEngineConfig, width: int) -> int:
    """Row-chunk size bounded by the input-buffer half, aligned down to
    the array height so systolic folds never straddle chunks."""
    rows = max((dense.input_buffer_bytes // 2)
               // max(width * ELEM_BYTES, 1), 1)
    if rows >= dense.rows:
        rows -= rows % dense.rows
    return rows


def _contraction_widths(dim: int, feature_block: int | None,
                        max_k: int) -> set[int]:
    """Widths of the K sub-slices a ``dim``-wide input contracts in."""
    plan = plan_blocks(dim, feature_block)
    widths: set[int] = set()
    for width in {plan.block, dim % plan.block or plan.block}:
        widths.update(hi - lo for lo, hi in _row_subchunks((0, width),
                                                            max_k))
    return widths


def _check_workload(graph: Graph, model: GNNModel) -> None:
    if graph.num_nodes == 0:
        raise CompileError("cannot compile an empty graph")
    if graph.features.shape[1] != model.in_dim:
        raise CompileError(
            f"graph features are {graph.features.shape[1]}-dim but "
            f"model {model.name!r} expects {model.in_dim}")


def resolve_geometry(graph: Graph, model: GNNModel,
                     config: GNNeratorConfig,
                     traversal: str = DST_STATIONARY,
                     feature_block: int | None | str = "config"
                     ) -> Geometry:
    """The geometry ``config`` gives this workload.

    Interval sizes come from the graph's memoized interval probes;
    resolving never builds a grid. Raises :class:`CompileError` for
    workloads no lowering could place (an empty graph, a weight row
    wider than the weight-buffer half).
    """
    if isinstance(feature_block, str):  # the "config" sentinel
        feature_block = config.feature_block
    _check_workload(graph, model)
    intervals = {
        (li, si): fitting_interval(graph, config.graph,
                                   _block_for(feature_block, stage.dim))
        for li, layer in enumerate(model.layers)
        for si, stage in enumerate(layer.stages)
        if isinstance(stage, AggregateStage)}
    return _geometry(graph, model, config, traversal, feature_block,
                     intervals)


def program_geometry(program: Program, graph: Graph,
                     config: GNNeratorConfig) -> Geometry:
    """The geometry of a compiled ``program`` under ``config``, with
    interval sizes read off its grids — no probe runs, so a program
    store hit resolves its geometry for the price of a few divisions."""
    intervals = {key: grid.interval_size
                 for key, grid in program.grids.items()}
    return _geometry(graph, program.model, config, program.traversal,
                     program.feature_block, intervals)


def _geometry(graph: Graph, model: GNNModel, config: GNNeratorConfig,
              traversal: str, feature_block: int | None,
              intervals: dict[tuple[int, int], int]) -> Geometry:
    dense = config.dense
    num_nodes = graph.num_nodes
    edge_bytes = min(config.graph.usable_edge_bytes,
                     max(graph.num_edges * EDGE_BYTES, EDGE_BYTES))
    layers: list[tuple[AggregateGeometry | ExtractGeometry, ...]] = []
    for li, layer in enumerate(model.layers):
        stages = layer.stages
        entries: list[AggregateGeometry | ExtractGeometry] = []
        for si, stage in enumerate(stages):
            if isinstance(stage, AggregateStage):
                entries.append(AggregateGeometry(intervals[(li, si)],
                                                 edge_bytes))
                continue
            n = stage.out_dim
            weight_bytes = min(dense.weight_buffer_bytes // 2,
                               stage.weight_in_dim * n * ELEM_BYTES)
            max_k = weight_bytes // (n * ELEM_BYTES)
            if max_k < 1:
                raise CompileError(
                    f"one weight row ({n * ELEM_BYTES} B) does not fit "
                    f"the weight buffer of stage l{li}s{si}")
            row_chunk = 0
            if si > 0 and isinstance(stages[si - 1], AggregateStage):
                longest = intervals[(li, si - 1)]
            elif (si + 1 < len(stages)
                  and isinstance(stages[si + 1], AggregateStage)):
                longest = intervals[(li, si + 1)]
            else:
                longest = row_chunk = min(max(
                    (dense.input_buffer_bytes // 2)
                    // max(stage.weight_in_dim * ELEM_BYTES, 1), 1),
                    num_nodes)
            longest = min(longest, num_nodes)
            widths = _contraction_widths(stage.in_dim, feature_block,
                                         max_k)
            if stage.concat_self:
                widths |= _contraction_widths(stage.self_dim,
                                              feature_block, max_k)
            entries.append(ExtractGeometry(
                weight_buffer_bytes=weight_bytes,
                input_rows=tuple((width,
                                  min(_input_rows(dense, width), longest))
                                 for width in sorted(widths)),
                row_chunk=row_chunk,
                spills=(num_nodes * n * ELEM_BYTES
                        > dense.output_buffer_bytes // 2)))
        layers.append(tuple(entries))
    return Geometry(traversal=traversal, feature_block=feature_block,
                    sparsity_elimination=config.sparsity_elimination,
                    stages=tuple(layers))


# ----------------------------------------------------------------------
# Structure pass
# ----------------------------------------------------------------------
class Lowering:
    """Single-use structure pass; see :func:`compile_workload`.

    Emits every op and each compute op's cost inputs, and no cost;
    :func:`fill_costs` computes the costs.
    """

    def __init__(self, graph: Graph, model: GNNModel,
                 geometry: Geometry) -> None:
        self.graph = graph
        self.model = model
        self.geometry = geometry
        self.feature_block = geometry.feature_block
        self.program = Program(
            graph_name=graph.name, model=model,
            traversal=geometry.traversal,
            feature_block=geometry.feature_block,
            num_nodes=graph.num_nodes)
        self._token_seq = 0
        #: Cost-input rows per compute unit (see :data:`TOUCH`), and
        #: each aggregated shard's and GEMM shape's table row.
        self._costs: dict[str, list[tuple[int, int, int, int]]] = {
            "graph.compute": [], "dense.compute": []}
        self._shards: dict[tuple[int, int, int, int], int] = {}
        self._gemms: dict[tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _token(self, prefix: str) -> str:
        self._token_seq += 1
        return f"{prefix}#{self._token_seq}"

    def _cost_row(self, op: Operation) -> tuple[int, int, int, int]:
        """Compute op ``op``'s cost-input row (see :data:`TOUCH`)."""
        if isinstance(op, GemmOp):
            shape = (op.m, op.k, op.n)
            return GEMM, self._gemms.setdefault(shape, len(self._gemms)), 0, 0
        if isinstance(op, ActivationOp):
            return (ACTIVATION, op.rows[1] - op.rows[0],
                    self.program.arrays[op.out_array], 0)
        if isinstance(op, ShardAggregateOp):
            key = (op.layer, op.stage, *op.shard)
            stage = self.model.layers[op.layer].stages[op.stage]
            return (SHARD, self._shards.setdefault(key, len(self._shards)),
                    op.dims[1] - op.dims[0],
                    isinstance(stage, AggregateStage) and stage.needs_features)
        if isinstance(op, (InitAccumulatorOp, SelfApplyOp)):
            return TOUCH, op.rows[1] - op.rows[0], op.dims[1] - op.dims[0], 0
        raise CompileError(f"{type(op).__name__} is no compute op")

    def _emit_step(self, channel: str, fetch_unit: str, compute_unit: str,
                   fetch_ops: list[Operation],
                   compute_ops: list[Operation]) -> None:
        """Wrap one double-buffered pipeline step with credits/handoff."""
        if not fetch_ops and not compute_ops:
            return
        program = self.program
        program.emit(AcquireOp(unit=fetch_unit, channel=channel))
        for op in fetch_ops:
            program.emit(op)
        program.emit(PushOp(unit=fetch_unit, channel=channel))
        program.emit(PopOp(unit=compute_unit, channel=channel))
        for op in compute_ops:
            program.emit(op)
            self._costs[compute_unit].append(self._cost_row(op))
        program.emit(ReleaseOp(unit=compute_unit, channel=channel))

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def compile(self) -> Program:
        import numpy as np

        program = self.program
        program.declare_array(program.input_array, self.model.in_dim)
        current = ValueRef(program.input_array, Coverage())
        for layer_index, layer in enumerate(self.model.layers):
            layer_input = current
            completions: dict[int, list[tuple[int, int]]] = {}
            for stage_index, stage in enumerate(layer.stages):
                if isinstance(stage, AggregateStage):
                    with span("lower-aggregate", layer=layer_index,
                              stage=stage_index):
                        current, done = self._lower_aggregate(
                            layer_index, stage_index, stage, current)
                    completions[stage_index] = done
                else:
                    with span("lower-extract", layer=layer_index,
                              stage=stage_index):
                        current = self._lower_extract(
                            layer_index, stage_index, stage, current,
                            layer_input, layer, completions)
        program.output_array = current.array
        program.cost_inputs = {
            unit: np.array(rows, np.int32).reshape(-1, 4)
            for unit, rows in self._costs.items()}
        program.cost_inputs["shards"] = np.array([
            (*key, *(program.grids[key[:2]].worst_gpe_edges(gpes)[key[2:]]
                     for gpes in GPE_COUNTS))
            for key in self._shards], np.int32).reshape(
                -1, 4 + len(GPE_COUNTS))
        program.cost_inputs["gemms"] = np.array(
            list(self._gemms), np.int32).reshape(-1, 3)
        return program

    # ------------------------------------------------------------------
    # Aggregation lowering (Graph Engine, Algorithm 1)
    # ------------------------------------------------------------------
    def _aggregate_grid(self, layer: int, stage_index: int) -> ShardGrid:
        """An aggregate stage's grid and block plan, planned on first
        use: by the stage, or by an extract chunking rows by it."""
        key = (layer, stage_index)
        if key not in self.program.grids:
            self.program.plans[(*key, "main")] = plan_blocks(
                self.model.layers[layer].stages[stage_index].dim,
                self.feature_block)
            self.program.grids[key] = shard_grid(
                self.graph, self.geometry.aggregate(*key).interval_size)
        return self.program.grids[key]

    def _lower_aggregate(self, layer: int, stage_index: int,
                         stage: AggregateStage, incoming: ValueRef
                         ) -> tuple[ValueRef, list[tuple[int, int]]]:
        program = self.program
        geometry = self.geometry.aggregate(layer, stage_index)
        grid = self._aggregate_grid(layer, stage_index)
        grid.worst_gpe_edges(GPE_COUNTS[0])  # tallies all, in this span
        plan = program.plans[(layer, stage_index, "main")]
        side = grid.grid_side

        acc_array = program.declare_array(
            f"l{layer}s{stage_index}.agg", stage.dim)

        visits = {(col, block): side
                  for col in range(side)
                  for block in range(plan.num_blocks)}
        dst_state = DstBufferState(visits)
        src_state = SrcBufferState()
        edge_lru = EdgeBufferLru(geometry.edge_buffer_bytes)
        spill_tokens: dict[tuple[int, int], str] = {}
        last_touch: dict[tuple[int, int], Operation] = {}
        cover_entries = []
        completion: list[tuple[int, int]] = []

        for block, row, col in dimension_blocked_walk(
                plan, side, self.geometry.traversal):
            dims = _span(plan.block_slice(block))
            width = dims[1] - dims[0]
            shard = grid.shard(row, col)
            src_rows = (shard.src_interval.start, shard.src_interval.stop)
            dst_rows = (shard.dst_interval.start, shard.dst_interval.stop)
            dst_rowcount = dst_rows[1] - dst_rows[0]
            col_key = (col, block)
            fetch_ops: list[Operation] = []
            compute_ops: list[Operation] = []

            action = dst_state.access(col, block)
            if action.spill_previous is not None:
                self._emit_partial_spill(
                    layer, stage_index, grid, plan, acc_array,
                    action.spill_previous, last_touch, spill_tokens)
            if action.reload:
                fetch_ops.append(DmaOp(
                    unit="graph.fetch", direction="load",
                    num_bytes=dst_rowcount * width * ELEM_BYTES,
                    array=acc_array, rows=dst_rows, dims=dims,
                    purpose="dst-partials",
                    wait=(spill_tokens[col_key],),
                    label=f"reload:{col_key}"))
            if action.init:
                mode = "neginf" if stage.reduce == "max" else "zero"
                compute_ops.append(InitAccumulatorOp(
                    unit="graph.compute", layer=layer, stage=stage_index,
                    rows=dst_rows, dims=dims, acc_array=acc_array,
                    src_array="", mode=mode))

            apply_self = row == col and stage.include_self
            if self.geometry.sparsity_elimination:
                # HyGCN-style elimination (Sec VI-A): gather only the
                # rows this shard touches. No interval residency — each
                # shard fetches its own working set, like HyGCN windows.
                if apply_self:
                    # Diagonal: the self term needs the whole interval,
                    # which covers the shard's sources too.
                    fetch_ops.append(DmaOp(
                        unit="graph.fetch", direction="load",
                        num_bytes=dst_rowcount * width * ELEM_BYTES,
                        array=incoming.array, rows=dst_rows, dims=dims,
                        purpose="src-features",
                        wait=incoming.cover.tokens_for(dst_rows, dims),
                        label=f"selfgather:{col}:{block}"))
                elif shard.num_edges:
                    fetch_ops.append(DmaOp(
                        unit="graph.fetch", direction="load",
                        num_bytes=(shard.distinct_sources() * width
                                   * ELEM_BYTES),
                        array=incoming.array, rows=src_rows, dims=dims,
                        purpose="src-features",
                        wait=incoming.cover.tokens_for(src_rows, dims),
                        label=f"gather:{row}:{col}:{block}"))
            elif shard.num_edges or apply_self:
                if src_state.access(incoming.array, row, block):
                    fetch_ops.append(DmaOp(
                        unit="graph.fetch", direction="load",
                        num_bytes=(src_rows[1] - src_rows[0]) * width
                        * ELEM_BYTES,
                        array=incoming.array, rows=src_rows, dims=dims,
                        purpose="src-features",
                        wait=incoming.cover.tokens_for(src_rows, dims),
                        label=f"src:{row}:{block}"))
            if shard.num_edges:
                if edge_lru.access((row, col), shard.edge_bytes):
                    fetch_ops.append(DmaOp(
                        unit="graph.fetch", direction="load",
                        num_bytes=shard.edge_bytes, array="edges",
                        rows=(row, col), dims=(0, 0), purpose="edges",
                        label=f"edges:{row}:{col}"))
                compute_ops.append(ShardAggregateOp(
                    unit="graph.compute", layer=layer, stage=stage_index,
                    shard=(row, col), dims=dims, reduce=stage.reduce,
                    acc_array=acc_array, src_array=incoming.array,
                    num_edges=shard.num_edges))
            if apply_self:
                compute_ops.append(SelfApplyOp(
                    unit="graph.compute", layer=layer, stage=stage_index,
                    rows=dst_rows, dims=dims, acc_array=acc_array,
                    src_array=incoming.array, reduce=stage.reduce))

            if compute_ops:
                last_touch[col_key] = compute_ops[-1]
            elif fetch_ops:
                last_touch[col_key] = fetch_ops[-1]
            self._emit_step("graph", "graph.fetch", "graph.compute",
                            fetch_ops, compute_ops)

            if dst_state.visit_done(col, block):
                done_token = self._token("aggdone")
                cover_token = f"agg:{layer}:{stage_index}:{col}:{block}"
                producer = last_touch.get(col_key)
                if producer is None:
                    raise CompileError(
                        f"column {col_key} completed without any ops")
                producer.add_signal(done_token)
                program.emit(AccumWritebackOp(
                    unit="graph.writeback", layer=layer, stage=stage_index,
                    rows=dst_rows, dims=dims, acc_array=acc_array,
                    num_bytes=dst_rowcount * width * ELEM_BYTES,
                    partial=False,
                    fixup_neginf=(stage.reduce == "max"
                                  and not stage.include_self),
                    wait=(done_token,), signal=(cover_token,)))
                cover_entries.append((dst_rows, dims, cover_token))
                completion.append((block, col))

        leftover = dst_state.unfinished()
        if leftover:
            raise CompileError(f"columns left unfinished: {leftover}")
        return (ValueRef(acc_array, Coverage(tuple(cover_entries))),
                completion)

    def _emit_partial_spill(self, layer: int, stage_index: int,
                            grid: ShardGrid, plan: BlockPlan,
                            acc_array: str, col_key: tuple[int, int],
                            last_touch: dict[tuple[int, int], Operation],
                            spill_tokens: dict[tuple[int, int], str]
                            ) -> None:
        """Spill a departing column's partial accumulators (Table I's
        src-stationary write cost)."""
        col, block = col_key
        interval = grid.intervals[col]
        dims = _span(plan.block_slice(block))
        width = dims[1] - dims[0]
        producer = last_touch.get(col_key)
        if producer is None:
            raise CompileError(f"spilling column {col_key} with no ops")
        done_token = self._token("aggdone")
        producer.add_signal(done_token)
        spill_token = self._token("aggspill")
        self.program.emit(AccumWritebackOp(
            unit="graph.writeback", layer=layer, stage=stage_index,
            rows=(interval.start, interval.stop), dims=dims,
            acc_array=acc_array,
            num_bytes=interval.size * width * ELEM_BYTES,
            partial=True, wait=(done_token,), signal=(spill_token,)))
        spill_tokens[col_key] = spill_token

    # ------------------------------------------------------------------
    # Extraction lowering (Dense Engine)
    # ------------------------------------------------------------------
    def _lower_extract(self, layer: int, stage_index: int,
                       stage: ExtractStage, incoming: ValueRef,
                       layer_input: ValueRef, layer_obj: GNNLayer,
                       completions: dict[int, list[tuple[int, int]]]
                       ) -> ValueRef:
        program = self.program
        stages = layer_obj.stages
        prev_is_agg = (stage_index > 0 and isinstance(
            stages[stage_index - 1], AggregateStage))
        next_is_agg = (stage_index + 1 < len(stages) and isinstance(
            stages[stage_index + 1], AggregateStage))

        if prev_is_agg:
            grid = program.grids[(layer, stage_index - 1)]
            intervals = [(iv.start, iv.stop) for iv in grid.intervals]
            completion = completions[stage_index - 1]
        elif next_is_agg:
            grid = self._aggregate_grid(layer, stage_index + 1)
            intervals = [(iv.start, iv.stop) for iv in grid.intervals]
            completion = None
        else:
            row_chunk = self.geometry.extract(layer, stage_index).row_chunk
            intervals = _row_subchunks((0, self.graph.num_nodes), row_chunk)
            completion = None

        return self._emit_extract(layer, stage_index, stage, incoming,
                                  layer_input, intervals, completion)

    def _emit_extract(self, layer: int, stage_index: int,
                      stage: ExtractStage, incoming: ValueRef,
                      layer_input: ValueRef,
                      intervals: list[tuple[int, int]],
                      completion: list[tuple[int, int]] | None) -> ValueRef:
        """Shared extract emission for both producer orders.

        ``completion`` (block, col) pairs — present for graph-first
        stages — drive the main-part emission order so the Dense Engine
        consumes aggregated blocks exactly as the Graph Engine finishes
        them; ``None`` means dense-first / standalone (interval-outer).
        """
        program = self.program
        geometry = self.geometry.extract(layer, stage_index)
        n = stage.out_dim
        out_array = program.declare_array(
            f"l{layer}s{stage_index}.out", n)
        main_plan = plan_blocks(stage.in_dim, self.feature_block)
        self_plan = (plan_blocks(stage.self_dim, self.feature_block)
                     if stage.concat_self else None)
        program.plans[(layer, stage_index, "main")] = main_plan
        if self_plan is not None:
            program.plans[(layer, stage_index, "self")] = self_plan

        weight_lru = LruResidency(geometry.weight_buffer_bytes,
                                  name="weight buffer")
        # Contraction sub-blocking: a K-slice of weights must fit the
        # (half) weight buffer; oversized feature blocks are split.
        max_k = geometry.max_k(n)
        visits_per_interval = main_plan.num_blocks + (
            self_plan.num_blocks if self_plan is not None else 0)
        out_state = OutBufferState(
            spilling=geometry.spills,
            visits={i: visits_per_interval for i in range(len(intervals))})
        input_rows_for = dict(geometry.input_rows)

        spill_tokens: dict[int, str] = {}
        last_gemm: dict[int, GemmOp] = {}
        cover_entries = []

        def visit(interval_idx: int, source: ValueRef,
                  plan: BlockPlan, block: int, w_offset: int) -> None:
            rows = intervals[interval_idx]
            full_dims = _span(plan.block_slice(block))
            action = out_state.access(interval_idx)
            pre_fetch: list[Operation] = []
            if action.spill_previous is not None:
                self._emit_out_spill(layer, stage_index, out_array,
                                     intervals, action.spill_previous,
                                     last_gemm, spill_tokens, n)
            if action.reload:
                pre_fetch.append(DmaOp(
                    unit="dense.fetch", direction="load",
                    num_bytes=(rows[1] - rows[0]) * n * ELEM_BYTES,
                    array=out_array, rows=rows, dims=(0, n),
                    purpose="partial-out",
                    wait=(spill_tokens[interval_idx],)))
            is_final_visit = out_state.visit_done(interval_idx)
            subs = _row_subchunks(full_dims, max_k)  # K sub-slices
            for sub_idx, dims in enumerate(subs):
                width = dims[1] - dims[0]
                w_rows = (w_offset + dims[0], w_offset + dims[1])
                weight_bytes = width * n * ELEM_BYTES
                weight_fetch: list[Operation] = []
                if weight_lru.access((layer, stage_index, w_rows),
                                     weight_bytes):
                    weight_fetch.append(DmaOp(
                        unit="dense.fetch", direction="load",
                        num_bytes=weight_bytes,
                        array=f"W{layer}.{stage_index}", rows=w_rows,
                        dims=(0, n), purpose="weights"))
                accumulate = not (action.first and sub_idx == 0)
                chunks = _row_subchunks(rows, input_rows_for[width])
                for chunk_idx, chunk in enumerate(chunks):
                    m = chunk[1] - chunk[0]
                    fetch_ops: list[Operation] = []
                    if sub_idx == 0 and chunk_idx == 0:
                        fetch_ops.extend(pre_fetch)
                    if chunk_idx == 0:
                        fetch_ops.extend(weight_fetch)
                    fetch_ops.append(DmaOp(
                        unit="dense.fetch", direction="load",
                        num_bytes=m * width * ELEM_BYTES,
                        array=source.array, rows=chunk, dims=dims,
                        purpose="input",
                        wait=source.cover.tokens_for(chunk, dims)))
                    gemm = GemmOp(
                        unit="dense.compute", layer=layer,
                        stage=stage_index, rows=chunk,
                        src_array=source.array, src_dims=dims,
                        weight_rows=w_rows, out_array=out_array,
                        accumulate=accumulate, m=m, k=width, n=n)
                    compute_ops: list[Operation] = [gemm]
                    last_gemm[interval_idx] = gemm
                    if (is_final_visit and sub_idx == len(subs) - 1
                            and chunk_idx == len(chunks) - 1):
                        compute_ops.append(self._finish_interval(
                            layer, stage_index, stage, out_array, rows, n,
                            cover_entries))
                    self._emit_step("dense", "dense.fetch",
                                    "dense.compute", fetch_ops,
                                    compute_ops)

        if self_plan is not None:
            for interval_idx in range(len(intervals)):
                for block in range(self_plan.num_blocks):
                    visit(interval_idx, layer_input, self_plan, block,
                          w_offset=stage.in_dim)
        if completion is not None:
            for block, col in completion:
                visit(col, incoming, main_plan, block, w_offset=0)
        else:
            for interval_idx in range(len(intervals)):
                for block in range(main_plan.num_blocks):
                    visit(interval_idx, incoming, main_plan, block,
                          w_offset=0)
        return ValueRef(out_array, Coverage(tuple(cover_entries)))

    def _finish_interval(self, layer: int, stage_index: int,
                         stage: ExtractStage, out_array: str,
                         rows: tuple[int, int], n: int,
                         cover_entries: list[
                             tuple[tuple[int, int], tuple[int, int], str]],
                         ) -> Operation:
        """Activation op; also emits the final store to feature memory."""
        program = self.program
        m = rows[1] - rows[0]
        act_token = self._token("act")
        cover_token = f"out:{layer}:{stage_index}:{rows[0]}"
        activation = ActivationOp(
            unit="dense.compute", layer=layer, stage=stage_index,
            rows=rows, out_array=out_array, activation=stage.activation,
            has_bias=stage.bias, signal=(act_token,))
        program.emit(DmaOp(
            unit="dense.store", direction="store",
            num_bytes=m * n * ELEM_BYTES, array=out_array, rows=rows,
            dims=(0, n), purpose="output", wait=(act_token,),
            signal=(cover_token,)))
        cover_entries.append((rows, (0, n), cover_token))
        return activation

    def _emit_out_spill(self, layer: int, stage_index: int, out_array: str,
                        intervals: list[tuple[int, int]],
                        interval_idx: int, last_gemm: dict[int, GemmOp],
                        spill_tokens: dict[int, str], n: int) -> None:
        rows = intervals[interval_idx]
        gemm = last_gemm.get(interval_idx)
        if gemm is None:
            raise CompileError(
                f"spilling output interval {interval_idx} with no GEMM")
        done_token = self._token("gemmdone")
        gemm.add_signal(done_token)
        spill_token = self._token("outspill")
        self.program.emit(DmaOp(
            unit="dense.store", direction="store",
            num_bytes=(rows[1] - rows[0]) * n * ELEM_BYTES,
            array=out_array, rows=rows, dims=(0, n),
            purpose="partial-out", wait=(done_token,),
            signal=(spill_token,)))
        spill_tokens[interval_idx] = spill_token


# ----------------------------------------------------------------------
# Cost pass
# ----------------------------------------------------------------------
def fill_costs(program: Program,
               config: GNNeratorConfig) -> dict[str, list[int]]:
    """The cost pass: ``program``'s compute-op cycles under ``config``.

    Returns one list per compute unit (``graph.compute``,
    ``dense.compute``) of each compute op's cycles in queue order: the
    formulas of :mod:`repro.engines.graph.gpe`, elementwise, and of
    :mod:`repro.engines.dense.systolic`, once per GEMM shape, over the
    program's cost inputs, with no op read. Reads only the compute
    knobs — ``graph.num_gpes``, ``simd_width``, ``pipeline_depth`` and
    ``dense.rows``, ``cols``, ``dataflow``.
    """
    import numpy as np

    graph_cfg, dense_cfg = config.graph, config.dense
    with span("cost", graph=program.graph_name):
        # ``a``: a touch's rows; a shard aggregate's shard-table row.
        kind, a, width, attention = program.cost_inputs[
            "graph.compute"].T.astype(np.int64)
        worst = np.array(worst_gpe_edges(program, graph_cfg.num_gpes),
                         np.int64)
        graph_costs = np.where(
            kind == SHARD,
            shard_compute_cycles(worst, width, graph_cfg, attention),
            interval_touch_cycles(a, width, graph_cfg))
        # ``a``: an activation's rows; a GEMM's shape-table row.
        kind, a, cols, _ = program.cost_inputs[
            "dense.compute"].T.astype(np.int64)
        shapes = program.cost_inputs["gemms"].tolist()
        gemm = np.array([gemm_timing(GemmShape(*shape), dense_cfg).cycles
                         for shape in shapes], np.int64)
        dense_costs = np.where(
            kind == GEMM, gemm[np.where(kind == GEMM, a, 0)],
            activation_cycles(a, cols, dense_cfg))
    return {"graph.compute": graph_costs.tolist(),
            "dense.compute": dense_costs.tolist()}


def worst_gpe_edges(program: Program, num_gpes: int) -> list[int]:
    """Per ``graph.compute`` op of ``program`` in queue order, the edge
    count on its shard's most-loaded of ``num_gpes`` GPEs (0 for an op
    that aggregates no shard): stored for the counts in ``GPE_COUNTS``,
    counted on the grids (once per grid and count) for any other."""
    table = program.cost_inputs["shards"].tolist()
    if num_gpes in GPE_COUNTS:
        loads = [row[4 + GPE_COUNTS.index(num_gpes)] for row in table]
    else:
        loads = [program.grids[(layer, stage)].worst_gpe_edges(num_gpes)[
            (row, col)] for layer, stage, row, col, *_ in table]
    return [loads[shard] if kind == SHARD else 0 for kind, shard, *_
            in program.cost_inputs["graph.compute"].tolist()]


def recost(structure: Program, config: GNNeratorConfig,
           workload: str = "recost") -> Program:
    """The program ``config`` compiles ``structure``'s workload to,
    derived without lowering.

    Valid when ``config`` resolves to ``structure``'s :class:`Geometry`
    (``Harness._compiled`` keys its structure memo that way). The new
    program shares every field of ``structure`` — its ops, decoded or
    not, grids, plans, arrays, cost inputs, plan template and static
    facts (the DRAM traffic breakdown, the energy model's per-op sums)
    — and owns only its cost lists and coalesced plans; no op is
    copied or decoded. Finished and verified like a fresh compile.
    """
    with span("recost", graph=structure.graph_name):
        structure.dram_bytes_by_purpose()
        program = replace(structure, costs=fill_costs(structure, config),
                          _template=structure.plan_template(),
                          _coalesced_plans={})
        return finish_program(program, config, workload)


def finish_program(program: Program, config: GNNeratorConfig,
                   workload: str) -> Program:
    """Precompute what every simulation of ``program`` reads, and verify
    it when ``REPRO_VERIFY`` is on: the last step of a compile, a
    re-cost and a program-store hit."""
    # The coalesced simulator's per-unit serial chains for the config
    # this program was compiled against (and the static traffic
    # breakdown every result re-reports), so the usual
    # compile→simulate path pays the precomputation once, at compile
    # time; simulating under a different DRAM config re-times the
    # template lazily.
    program.coalesced_plan(config.dram)
    program.dram_bytes_by_purpose()
    # Opt-in compile-time verification (REPRO_VERIFY=1; the test suite
    # always sets it): run the repro.analysis pass pipeline over the
    # program and fail the compile on any contract violation.
    # Imported lazily — analysis sits above the compiler in the layer
    # DAG, so the compiler must not import it at module level.
    from repro.analysis.verify import verify_enabled, verify_program

    if verify_enabled():
        verify_program(program, config, workload=workload,
                       raise_on_failure=True)
    return program


def compile_workload(graph: Graph, model: GNNModel,
                     config: GNNeratorConfig,
                     traversal: str = DST_STATIONARY,
                     feature_block: int | None | str = "config", *,
                     geometry: Geometry | None = None) -> Program:
    """Compile one workload; the public compiler entry point.

    ``feature_block="config"`` (default) takes the block size from the
    platform configuration; pass an int or ``None`` to override
    (``None`` = conventional unblocked dataflow). ``geometry``: the
    workload's, if the caller already resolved it under ``config``.
    """
    global _FULL_LOWERINGS
    with span("lower", graph=graph.name, layers=len(model.layers)):
        if geometry is None:
            geometry = resolve_geometry(graph, model, config, traversal,
                                        feature_block)
        with _MEMO_LOCK:
            _FULL_LOWERINGS += 1
        program = Lowering(graph, model, geometry).compile()
        program.costs = fill_costs(program, config)
    return finish_program(program, config, "compile_workload")
