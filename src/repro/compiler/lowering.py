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
module may read an input its product's cache key omits:

* **shard grids** — ``(graph, usable src/dst/edge buffer bytes,
  feature block)``, resolving to ``(graph, interval size)``; memoized
  on the graph by :func:`repro.graph.partition.plan_shards`. GPE
  count, SIMD width, and everything dense/DRAM are *not* inputs.
* **operation queues / cycles** — the full compile-relevant config
  projection (:func:`repro.config.overrides.compile_relevant_config`):
  dense shape/dataflow/buffers, GPE count, SIMD width, pipeline
  depth, buffer budgets, sparsity elimination, feature block. Clock
  frequencies and the DRAM section are simulate-only and excluded —
  which is what lets ``Harness._compiled`` and the persistent program
  store (:mod:`repro.compiler.store`) serve DRAM-only DSE variants
  from one compiled program.

No product depends on feature values or parameters: the compiler
never computes a value. Aggregation weights, attention coefficients
included, are the functional runtime's business
(:mod:`repro.compiler.runtime`).

:func:`full_lowering_count` counts complete :meth:`Lowering.compile`
runs in this process — the observable CI and the cache tests use to
assert "recompiled nothing".
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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
from repro.config.accelerator import ELEM_BYTES, GNNeratorConfig
from repro.config.workload import DST_STATIONARY
from repro.dataflow.blocking import (
    BlockPlan,
    dimension_blocked_walk,
    plan_blocks,
)
from repro.engines.dense.systolic import GemmShape, gemm_timing
from repro.engines.graph.gpe import (
    interval_touch_cycles,
    max_gpe_edges,
    shard_compute_cycles,
)
from repro.graph.graph import Graph
from repro.graph.partition import Shard, ShardGrid, plan_shards
from repro.obs.spans import span
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
)


#: Process-wide count of full :meth:`Lowering.compile` executions.
#: Program-store hits and harness memo hits avoid incrementing it —
#: tests and the CI warm-run check read it to verify a cached path
#: really compiled nothing.
_FULL_LOWERINGS = 0

#: Guards the lowering counter against concurrent compiles (the serve
#: daemon's request threads).
_MEMO_LOCK = threading.Lock()


def full_lowering_count() -> int:
    """How many times this process ran the full lowering pass."""
    with _MEMO_LOCK:
        return _FULL_LOWERINGS


#: Below this many grid edges the thread-pool prewarm of per-shard
#: statistics costs more than it saves.
_PREWARM_MIN_EDGES = 100_000


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


class Lowering:
    """Single-use compiler instance; see :func:`compile_workload`."""

    def __init__(self, graph: Graph, model: GNNModel,
                 config: GNNeratorConfig, traversal: str,
                 feature_block: int | None) -> None:
        if graph.num_nodes == 0:
            raise CompileError("cannot compile an empty graph")
        if graph.features.shape[1] != model.in_dim:
            raise CompileError(
                f"graph features are {graph.features.shape[1]}-dim but "
                f"model {model.name!r} expects {model.in_dim}")
        self.graph = graph
        self.model = model
        self.config = config
        self.traversal = traversal
        self.feature_block = feature_block
        self.program = Program(
            graph_name=graph.name, model=model, traversal=traversal,
            feature_block=feature_block, num_nodes=graph.num_nodes)
        self._token_seq = 0

    # ------------------------------------------------------------------
    # Small helpers
    # ------------------------------------------------------------------
    def _token(self, prefix: str) -> str:
        self._token_seq += 1
        return f"{prefix}#{self._token_seq}"

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
        program.emit(ReleaseOp(unit=compute_unit, channel=channel))

    def _gpe_imbalance(self, layer: int, stage: int, grid: ShardGrid,
                       shard_key: tuple[int, int]) -> int:
        """Max edges landing on one GPE when distributing by destination.

        Cached on the shard itself (see :func:`max_gpe_edges`), so the
        value survives across stages, compiles, and sweep points that
        share the memoized grid."""
        return max_gpe_edges(grid.shard(*shard_key),
                             self.config.graph.num_gpes)

    def _distinct_sources(self, layer: int, stage: int, grid: ShardGrid,
                          shard_key: tuple[int, int]) -> int:
        """Distinct source rows a shard references (sparsity
        elimination's gather size); cached on the shard."""
        return grid.shard(*shard_key).distinct_sources()

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def compile(self) -> Program:
        global _FULL_LOWERINGS
        with _MEMO_LOCK:
            _FULL_LOWERINGS += 1
        with span("lower", graph=self.graph.name,
                  layers=len(self.model.layers)):
            return self._compile_locked()

    def _compile_locked(self) -> Program:
        program = self.program
        program.declare_array(program.input_array, self.model.in_dim)
        current = ValueRef(program.input_array, Coverage())
        for layer_index, layer in enumerate(self.model.layers):
            layer_input = current
            # Pre-plan every aggregate stage of the layer: extracts that
            # precede an aggregation chunk their rows by its intervals.
            for stage_index, stage in enumerate(layer.stages):
                if isinstance(stage, AggregateStage):
                    grid = plan_shards(self.graph, self.config.graph,
                                       block=self._block_for(stage.dim))
                    program.grids[(layer_index, stage_index)] = grid
                    program.plans[(layer_index, stage_index, "main")] = (
                        plan_blocks(stage.dim, self.feature_block))
                    with span("shard-batch", layer=layer_index,
                              stage=stage_index,
                              shards=grid.grid_side * grid.grid_side):
                        self._prewarm_shards(grid)
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
        return program

    def _prewarm_shards(self, grid: ShardGrid) -> None:
        """Warm per-shard statistics in parallel before serial emission.

        Emission reads one expensive statistic per non-empty shard —
        the worst-GPE edge load (plus the distinct-source count under
        sparsity elimination). Each lands in a per-shard cache keyed by
        its own inputs, and each shard is touched by exactly one task,
        so computing them on a thread pool first is a pure wall-time
        win: emission then finds every value warm, and the values are
        bit-identical to the serial path (§4 cycle-neutrality). Skipped
        for small grids where pool startup would dominate.
        """
        if grid.num_edges < _PREWARM_MIN_EDGES:
            return
        num_gpes = self.config.graph.num_gpes
        sparsity = self.config.sparsity_elimination
        # Materialize views serially (O(1) each) so threads never race
        # on the grid's view cache, then keep only shards with work.
        pending = [
            shard for shard in grid.iter_shards()
            if num_gpes not in shard._gpe_loads
            or (sparsity and shard._distinct_sources is None)
        ]
        if len(pending) < 2:
            return

        def warm(shard: Shard) -> None:
            max_gpe_edges(shard, num_gpes)
            if sparsity:
                shard.distinct_sources()

        workers = min(8, os.cpu_count() or 1, len(pending))
        if workers < 2:
            for shard in pending:
                warm(shard)
            return
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(warm, pending))

    def _block_for(self, dim: int) -> int:
        if self.feature_block is None:
            return dim
        return min(self.feature_block, dim)

    # ------------------------------------------------------------------
    # Aggregation lowering (Graph Engine, Algorithm 1)
    # ------------------------------------------------------------------
    def _lower_aggregate(self, layer: int, stage_index: int,
                         stage: AggregateStage, incoming: ValueRef
                         ) -> tuple[ValueRef, list[tuple[int, int]]]:
        program = self.program
        config = self.config.graph
        grid = program.grids[(layer, stage_index)]
        plan = program.plans[(layer, stage_index, "main")]
        side = grid.grid_side

        acc_array = program.declare_array(
            f"l{layer}s{stage_index}.agg", stage.dim)

        visits = {(col, block): side
                  for col in range(side)
                  for block in range(plan.num_blocks)}
        dst_state = DstBufferState(visits)
        src_state = SrcBufferState()
        edge_lru = EdgeBufferLru(config.usable_edge_bytes)
        spill_tokens: dict[tuple[int, int], str] = {}
        last_touch: dict[tuple[int, int], Operation] = {}
        cover_entries = []
        completion: list[tuple[int, int]] = []

        for block, row, col in dimension_blocked_walk(
                plan, side, self.traversal):
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
                    src_array="", mode=mode,
                    cycles=interval_touch_cycles(dst_rowcount, width,
                                                 config)))

            apply_self = row == col and stage.include_self
            if self.config.sparsity_elimination:
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
                    distinct = self._distinct_sources(
                        layer, stage_index, grid, (row, col))
                    fetch_ops.append(DmaOp(
                        unit="graph.fetch", direction="load",
                        num_bytes=distinct * width * ELEM_BYTES,
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
                worst = self._gpe_imbalance(layer, stage_index, grid,
                                            (row, col))
                compute_ops.append(ShardAggregateOp(
                    unit="graph.compute", layer=layer, stage=stage_index,
                    shard=(row, col), dims=dims, reduce=stage.reduce,
                    acc_array=acc_array, src_array=incoming.array,
                    num_edges=shard.num_edges,
                    max_gpe_edges=worst,
                    cycles=shard_compute_cycles(
                        worst, width, config,
                        attention=stage.needs_features)))
            if apply_self:
                compute_ops.append(SelfApplyOp(
                    unit="graph.compute", layer=layer, stage=stage_index,
                    rows=dst_rows, dims=dims, acc_array=acc_array,
                    src_array=incoming.array, reduce=stage.reduce,
                    cycles=interval_touch_cycles(dst_rowcount, width,
                                                 config)))

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
            grid = program.grids[(layer, stage_index + 1)]
            intervals = [(iv.start, iv.stop) for iv in grid.intervals]
            completion = None
        else:
            rows_per = max(
                (self.config.dense.input_buffer_bytes // 2)
                // max(stage.weight_in_dim * ELEM_BYTES, 1), 1)
            intervals = _row_subchunks((0, self.graph.num_nodes), rows_per)
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
        dense_cfg = self.config.dense
        n = stage.out_dim
        out_array = program.declare_array(
            f"l{layer}s{stage_index}.out", n)
        main_plan = plan_blocks(stage.in_dim, self.feature_block)
        self_plan = (plan_blocks(stage.self_dim, self.feature_block)
                     if stage.concat_self else None)
        program.plans[(layer, stage_index, "main")] = main_plan
        if self_plan is not None:
            program.plans[(layer, stage_index, "self")] = self_plan

        weight_lru = LruResidency(dense_cfg.weight_buffer_bytes // 2,
                                  name="weight buffer")
        # Contraction sub-blocking: a K-slice of weights must fit the
        # (half) weight buffer; oversized feature blocks are split.
        max_k = (dense_cfg.weight_buffer_bytes // 2) // (n * ELEM_BYTES)
        if max_k < 1:
            raise CompileError(
                f"one weight row ({n * ELEM_BYTES} B) does not fit the "
                f"weight buffer of stage l{layer}s{stage_index}")
        out_capacity = dense_cfg.output_buffer_bytes // 2
        total_out = self.graph.num_nodes * n * ELEM_BYTES
        visits_per_interval = main_plan.num_blocks + (
            self_plan.num_blocks if self_plan is not None else 0)
        out_state = OutBufferState(
            spilling=total_out > out_capacity,
            visits={i: visits_per_interval for i in range(len(intervals))})

        def input_rows_for(width: int) -> int:
            """Row-chunk size bounded by the input buffer, aligned down
            to the array height so systolic folds never straddle chunks."""
            rows = max((dense_cfg.input_buffer_bytes // 2)
                       // max(width * ELEM_BYTES, 1), 1)
            if rows >= dense_cfg.rows:
                rows -= rows % dense_cfg.rows
            return rows

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
                chunks = _row_subchunks(rows, input_rows_for(width))
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
                        accumulate=accumulate, m=m, k=width, n=n,
                        cycles=gemm_timing(GemmShape(m=m, k=width, n=n),
                                           dense_cfg).cycles)
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
            has_bias=stage.bias,
            cycles=m + self.config.dense.cols,
            signal=(act_token,))
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


def compile_workload(graph: Graph, model: GNNModel,
                     config: GNNeratorConfig,
                     traversal: str = DST_STATIONARY,
                     feature_block: int | None | str = "config") -> Program:
    """Compile one workload; the public compiler entry point.

    ``feature_block="config"`` (default) takes the block size from the
    platform configuration; pass an int or ``None`` to override
    (``None`` = conventional unblocked dataflow).
    """
    if feature_block == "config":
        feature_block = config.feature_block
    lowering = Lowering(graph, model, config, traversal, feature_block)
    program = lowering.compile()
    # Precompute the coalesced simulator's per-unit serial chains for
    # the config this program was compiled against (and the static
    # traffic breakdown every result re-reports), so the usual
    # compile→simulate path pays the linear precomputation once, at
    # compile time; simulating under a different DRAM config builds a
    # fresh plan lazily.
    program.coalesced_plan(config.dram)
    program.dram_bytes_by_purpose()
    # Opt-in compile-time verification (REPRO_VERIFY=1; the test suite
    # always sets it): run the repro.analysis pass pipeline over the
    # fresh program and fail the compile on any contract violation.
    # Imported lazily — analysis sits above the compiler in the layer
    # DAG, so the compiler must not import it at module level.
    from repro.analysis.verify import verify_enabled, verify_program

    if verify_enabled():
        verify_program(program, config, workload="compile_workload",
                       raise_on_failure=True)
    return program
