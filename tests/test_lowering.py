"""Unit tests for the lowering pass (program structure and traffic)."""

import pytest

from repro.accelerator import GNNerator
from repro.analysis.passes.validation import validate_program
from repro.compiler.ir import (
    AccumWritebackOp,
    CompileError,
    DmaOp,
    GemmOp,
    InitAccumulatorOp,
    SelfApplyOp,
    ShardAggregateOp,
)
from repro.compiler.lowering import Coverage, compile_workload
from repro.config.accelerator import ELEM_BYTES
from repro.config.platforms import gnnerator_config
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.models import layers as model_layers
from repro.models.stages import AggregateStage
from repro.models.zoo import NETWORK_NAMES, build_network
from tests.conftest import make_tiny_config


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 300, feature_dim=20, seed=5)


@pytest.fixture(scope="module")
def gcn():
    return build_network("gcn", 20, 5)


class TestCoverage:
    def test_overlap_query(self):
        cover = Coverage(entries=(
            ((0, 10), (0, 4), "t0"),
            ((10, 20), (0, 4), "t1"),
            ((0, 10), (4, 8), "t2"),
        ))
        assert cover.tokens_for((0, 5), (0, 2)) == ("t0",)
        assert cover.tokens_for((5, 15), (0, 4)) == ("t0", "t1")
        assert cover.tokens_for((0, 10), (0, 8)) == ("t0", "t2")
        assert cover.tokens_for((25, 30), (0, 4)) == ()

    def test_boundaries_exclusive(self):
        cover = Coverage(entries=(((0, 10), (0, 4), "t0"),))
        assert cover.tokens_for((10, 20), (0, 4)) == ()
        assert cover.tokens_for((0, 10), (4, 8)) == ()


class TestProgramStructure:
    def test_all_units_populated_for_gcn(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        for unit in ("graph.fetch", "graph.compute", "graph.writeback",
                     "dense.fetch", "dense.compute", "dense.store"):
            assert program.queues[unit], f"{unit} queue is empty"

    def test_arrays_declared(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        assert program.arrays["h.in"] == 20
        assert program.arrays["l0s0.agg"] == 20
        assert program.arrays["l0s1.out"] == 16
        assert program.output_array == "l1s1.out"

    def test_grids_and_plans_recorded(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        assert (0, 0) in program.grids
        assert (0, 0, "main") in program.plans
        assert program.plans[(0, 0, "main")].block == 8

    def test_validates(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        validate_program(program)

    def test_compile_computes_no_values(self, monkeypatch):
        """Cycles depend only on graph structure, model shape and
        config: with every weight and layer computation refused, each
        zoo network still compiles on ``tiny`` to the same cycles."""
        graph = load_dataset("tiny")
        config = gnnerator_config()
        models = [build_network(name, graph.feature_dim, 4)
                  for name in NETWORK_NAMES]
        expected = [GNNerator(config).run(graph, model).cycles
                    for model in models]

        def refuse(*args, **kwargs):
            raise AssertionError("the timing compile computed a value")

        for method in ("compute_weights", "edge_weights", "self_weights"):
            monkeypatch.setattr(AggregateStage, method, refuse)
        monkeypatch.setattr(model_layers, "dense_forward", refuse)
        assert [GNNerator(config).run(graph, model).cycles
                for model in models] == expected

    def test_deterministic(self, graph, gcn, tiny_config):
        a = compile_workload(graph, gcn, tiny_config)
        b = compile_workload(graph, gcn, tiny_config)
        assert a.num_operations == b.num_operations
        assert a.dram_bytes_by_purpose() == b.dram_bytes_by_purpose()


class TestTrafficAccounting:
    def test_src_loads_match_table1_single_block(self, graph, gcn):
        """With one shard grid and unblocked features, source loads must
        equal (S^2 - S + 1) interval loads of B-dim rows (Table I)."""
        config = make_tiny_config(feature_block=None)
        program = compile_workload(graph, gcn, config,
                                   traversal=DST_STATIONARY,
                                   feature_block=None)
        grid = program.grids[(0, 0)]
        side = grid.grid_side
        assert side > 1  # tiny buffers force a real grid
        loads = [op for op in program.order
                 if isinstance(op, DmaOp) and op.purpose == "src-features"
                 and op.array == "h.in"]
        assert len(loads) == side * side - side + 1

    def test_dst_stationary_never_reloads_partials(self, graph, gcn,
                                                   tiny_config):
        program = compile_workload(graph, gcn, tiny_config,
                                   traversal=DST_STATIONARY)
        reloads = [op for op in program.order
                   if isinstance(op, DmaOp)
                   and op.purpose == "dst-partials"]
        assert reloads == []
        partial_spills = [op for op in program.order
                          if isinstance(op, AccumWritebackOp)
                          and op.partial]
        assert partial_spills == []

    def test_src_stationary_spills_and_reloads(self, graph, gcn,
                                               tiny_config):
        program = compile_workload(graph, gcn, tiny_config,
                                   traversal=SRC_STATIONARY)
        spills = [op for op in program.order
                  if isinstance(op, AccumWritebackOp) and op.partial]
        reloads = [op for op in program.order
                   if isinstance(op, DmaOp)
                   and op.purpose == "dst-partials"]
        assert spills and reloads
        # Every reload is covered by an earlier spill of the same bytes.
        assert len(reloads) <= len(spills)

    def test_blocking_reduces_feature_traffic(self, gcn):
        """The headline effect: smaller B -> fewer interval reloads."""
        graph = erdos_renyi(200, 2000, feature_dim=20, seed=7)
        config_b = make_tiny_config(feature_block=4)
        config_n = make_tiny_config(feature_block=None)
        blocked = compile_workload(graph, gcn, config_b, feature_block=4)
        unblocked = compile_workload(graph, gcn, config_n,
                                     feature_block=None)

        def feature_bytes(program):
            return sum(op.num_bytes for op in program.order
                       if isinstance(op, DmaOp)
                       and op.purpose == "src-features")

        assert feature_bytes(blocked) < feature_bytes(unblocked)

    def test_edges_refetched_only_on_eviction(self, graph, gcn):
        config = make_tiny_config(feature_block=8)
        program = compile_workload(graph, gcn, config)
        grid = program.grids[(0, 0)]
        edge_loads = [op for op in program.order
                      if isinstance(op, DmaOp) and op.purpose == "edges"]
        nonempty = len(grid.nonempty_shards())
        # At least one load per non-empty shard; evictions add more.
        assert len(edge_loads) >= nonempty

    def test_weight_loads_cover_all_weights_once_when_resident(
            self, graph, gcn, default_config):
        """With roomy buffers each weight slice loads exactly once."""
        program = compile_workload(graph, gcn, default_config,
                                   feature_block=8)
        weight_bytes = sum(op.num_bytes for op in program.order
                           if isinstance(op, DmaOp)
                           and op.purpose == "weights")
        assert weight_bytes == sum(
            stage.weight_in_dim * stage.out_dim * ELEM_BYTES
            for layer in gcn.layers for stage in layer.extract_stages)


class TestStageLowering:
    def test_self_term_applied_on_diagonal(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        self_ops = [op for op in program.order
                    if isinstance(op, SelfApplyOp)]
        grid = program.grids[(0, 0)]
        plan = program.plans[(0, 0, "main")]
        layer0 = [op for op in self_ops if op.layer == 0]
        assert len(layer0) == grid.grid_side * plan.num_blocks

    def test_init_once_per_column_block(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config,
                                   traversal=DST_STATIONARY)
        inits = [op for op in program.order
                 if isinstance(op, InitAccumulatorOp) and op.layer == 0]
        grid = program.grids[(0, 0)]
        plan = program.plans[(0, 0, "main")]
        assert len(inits) == grid.grid_side * plan.num_blocks

    def test_pool_network_dense_first(self, graph, tiny_config):
        pool = build_network("graphsage-pool", 20, 5)
        program = compile_workload(graph, pool, tiny_config)
        validate_program(program)
        # Stage 0 extract output feeds stage 1 aggregation.
        assert program.arrays["l0s0.out"] == 16
        assert program.arrays["l0s1.agg"] == 16
        aggs = [op for op in program.order
                if isinstance(op, ShardAggregateOp) and op.layer == 0]
        assert all(op.src_array == "l0s0.out" for op in aggs)

    def test_concat_gemms_split_weight_rows(self, graph, tiny_config):
        sage = build_network("graphsage", 20, 5)
        program = compile_workload(graph, sage, tiny_config)
        gemms = [op for op in program.order
                 if isinstance(op, GemmOp) and op.layer == 0]
        self_parts = [g for g in gemms if g.weight_rows[0] >= 20]
        main_parts = [g for g in gemms if g.weight_rows[1] <= 20]
        assert self_parts and main_parts
        assert all(g.src_array == "h.in" for g in self_parts)
        assert all(g.src_array == "l0s0.agg" for g in main_parts)

    def test_accumulate_flags(self, graph, gcn, tiny_config):
        """Exactly one assigning GEMM per output interval row range."""
        program = compile_workload(graph, gcn, tiny_config)
        first = {}
        for op in program.order:
            if isinstance(op, GemmOp):
                key = (op.layer, op.stage, op.rows)
                if not op.accumulate:
                    assert key not in first, "double assignment"
                    first[key] = op
                else:
                    assert key in first, "accumulate before assign"

    def test_gemm_bytes_match_dims(self, graph, gcn, tiny_config):
        program = compile_workload(graph, gcn, tiny_config)
        for op in program.order:
            if isinstance(op, DmaOp) and op.purpose == "input":
                rows = op.rows[1] - op.rows[0]
                dims = op.dims[1] - op.dims[0]
                assert op.num_bytes == rows * dims * ELEM_BYTES


class TestErrors:
    def test_empty_graph_rejected(self, gcn, tiny_config):
        from repro.graph.graph import Graph
        empty = Graph(0, [], [])
        with pytest.raises(CompileError):
            compile_workload(empty, gcn, tiny_config)

    def test_feature_dim_mismatch(self, graph, tiny_config):
        model = build_network("gcn", 99, 5)
        with pytest.raises(CompileError, match="expects"):
            compile_workload(graph, model, tiny_config)

    def test_weight_row_must_fit(self, graph, tiny_config):
        """A single weight row larger than the weight buffer is fatal."""
        import dataclasses
        config = dataclasses.replace(
            tiny_config,
            dense=dataclasses.replace(tiny_config.dense,
                                      weight_buffer_bytes=8))
        model = build_network("gcn", 20, 5)
        with pytest.raises(CompileError, match="weight"):
            compile_workload(graph, model, config)
