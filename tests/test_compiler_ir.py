"""Unit tests for the IR, residency state machines, and Program."""

import pytest

from repro.compiler.ir import (
    AccumWritebackOp,
    CompileError,
    DmaOp,
    GemmOp,
    InitAccumulatorOp,
    op_bytes,
)
from repro.compiler.program import Program
from repro.compiler.residency import (
    DstBufferState,
    EdgeBufferLru,
    LruResidency,
    OutBufferState,
    SrcBufferState,
)
from repro.config.workload import DST_STATIONARY
from repro.graph.traversal import (
    dst_stationary_order,
    simulate_residency,
    src_stationary_order,
)
from repro.models.zoo import build_network


def dma(**kwargs) -> DmaOp:
    defaults = dict(unit="graph.fetch", direction="load", num_bytes=100,
                    array="x", rows=(0, 10), dims=(0, 4),
                    purpose="src-features")
    defaults.update(kwargs)
    return DmaOp(**defaults)


class TestOps:
    def test_dma_validation(self):
        with pytest.raises(CompileError):
            dma(direction="sideways")
        with pytest.raises(CompileError):
            dma(num_bytes=-1)

    def test_init_mode_validation(self):
        with pytest.raises(CompileError):
            InitAccumulatorOp(unit="graph.compute", layer=0, stage=0,
                              rows=(0, 1), dims=(0, 1), acc_array="a",
                              src_array="", mode="random")

    def test_signal_wait_mutation(self):
        op = dma()
        op.add_signal("t1")
        op.add_wait("t2")
        assert op.signal == ("t1",) and op.wait == ("t2",)

    def test_op_bytes_and_cycles(self):
        """DMA ops carry bytes; compute ops carry no cost — their
        cycles live in the program's cost lists."""
        assert op_bytes(dma(num_bytes=77)) == 77
        wb = AccumWritebackOp(unit="graph.writeback", layer=0, stage=0,
                              rows=(0, 4), dims=(0, 4), acc_array="a",
                              num_bytes=55, partial=False)
        assert op_bytes(wb) == 55
        fields = dict(unit="dense.compute", layer=0, stage=1, rows=(0, 4),
                      src_array="a", src_dims=(0, 4), weight_rows=(0, 4),
                      out_array="o", accumulate=False, m=4, k=4, n=2)
        gemm = GemmOp(**fields)
        assert op_bytes(gemm) == 0
        with pytest.raises(TypeError):
            GemmOp(**fields, cycles=99)
        program = Program(graph_name="g", model=build_network("gcn", 8, 2),
                          traversal=DST_STATIONARY, feature_block=4,
                          num_nodes=10)
        program.emit(gemm)
        program.emit(dma())
        program.costs = {"dense.compute": [99]}
        assert program.compute_cycles_by_unit()["dense.compute"] == 99
        assert program.compute_cycles_by_unit()["graph.fetch"] == 0


class TestSrcBuffer:
    def test_hit_and_miss(self):
        state = SrcBufferState()
        assert state.access("h", 0, 0) is True
        assert state.access("h", 0, 0) is False
        assert state.access("h", 1, 0) is True
        assert state.access("h", 0, 0) is True  # evicted
        assert state.loads == 3 and state.hits == 1

    def test_block_is_part_of_key(self):
        state = SrcBufferState()
        state.access("h", 0, 0)
        assert state.access("h", 0, 1) is True

    def test_invalidate(self):
        state = SrcBufferState()
        state.access("h", 0, 0)
        state.invalidate()
        assert state.access("h", 0, 0) is True


class TestDstBuffer:
    @pytest.mark.parametrize("side", [1, 2, 3, 5])
    @pytest.mark.parametrize("order_fn", [dst_stationary_order,
                                          src_stationary_order])
    def test_matches_residency_replay(self, side, order_fn):
        """The compiler's state machine must agree with the analytical
        replay — the bridge between Table I and emitted DMAs."""
        visits = {(col, 0): side for col in range(side)}
        state = DstBufferState(visits)
        spills = reloads = inits = finals = 0
        for _row, col in order_fn(side):
            action = state.access(col, 0)
            spills += action.spill_previous is not None
            reloads += action.reload
            inits += action.init
            finals += state.visit_done(col, 0)
        replay = simulate_residency(order_fn(side), side)
        assert reloads == replay.dst_loads
        assert spills + finals == replay.dst_stores
        assert inits == side
        assert finals == side
        assert state.unfinished() == []

    def test_over_visit_rejected(self):
        state = DstBufferState({(0, 0): 1})
        state.access(0, 0)
        state.visit_done(0, 0)
        with pytest.raises(CompileError):
            state.visit_done(0, 0)

    def test_unplanned_column_rejected(self):
        state = DstBufferState({(0, 0): 1})
        with pytest.raises(CompileError):
            state.access(5, 0)


class TestLruResidency:
    def test_eviction_order(self):
        lru = LruResidency(100)
        assert lru.access("a", 40)
        assert lru.access("b", 40)
        assert not lru.access("a", 40)  # hit refreshes a
        assert lru.access("c", 40)  # evicts b (LRU)
        assert lru.access("b", 40)  # miss again
        assert lru.hits == 1 and lru.loads == 4

    def test_oversized_entry_rejected(self):
        lru = LruResidency(10, name="edge buffer")
        with pytest.raises(CompileError, match="edge buffer"):
            lru.access("x", 11)

    def test_edge_buffer_subclass(self):
        buf = EdgeBufferLru(64)
        assert buf.access((0, 0), 64)
        assert not buf.access((0, 0), 64)


class TestOutBuffer:
    def test_non_spilling_only_tracks_first(self):
        state = OutBufferState(spilling=False, visits={0: 2, 1: 2})
        first = state.access(0)
        assert first.first and not first.reload
        state.visit_done(0)
        again = state.access(0)
        assert not again.first and not again.reload
        assert again.spill_previous is None

    def test_spilling_round_trip(self):
        state = OutBufferState(spilling=True, visits={0: 2, 1: 2})
        state.access(0)
        state.visit_done(0)
        action = state.access(1)
        assert action.spill_previous == 0  # 0 still has visits left
        state.visit_done(1)
        back = state.access(0)
        assert back.reload and not back.first
        assert state.visit_done(0)

    def test_finished_interval_not_spilled(self):
        state = OutBufferState(spilling=True, visits={0: 1, 1: 1})
        state.access(0)
        assert state.visit_done(0)  # final
        action = state.access(1)
        assert action.spill_previous is None


class TestProgram:
    def make_program(self) -> Program:
        model = build_network("gcn", 8, 2)
        return Program(graph_name="g", model=model,
                       traversal=DST_STATIONARY, feature_block=4,
                       num_nodes=10)

    def test_emit_and_order(self):
        program = self.make_program()
        op = program.emit(dma())
        assert program.queues["graph.fetch"] == [op]
        assert program.order == [op]

    def test_emit_unknown_unit(self):
        program = self.make_program()
        with pytest.raises(CompileError):
            program.emit(dma(unit="psychic.fetch"))

    def test_declare_array_conflict(self):
        program = self.make_program()
        program.declare_array("x", 8)
        program.declare_array("x", 8)  # same dim fine
        with pytest.raises(CompileError):
            program.declare_array("x", 9)
        with pytest.raises(CompileError):
            program.declare_array("y", 0)

    def test_traffic_accounting(self):
        program = self.make_program()
        program.emit(dma(num_bytes=100, purpose="src-features"))
        program.emit(dma(num_bytes=50, purpose="edges"))
        program.emit(AccumWritebackOp(
            unit="graph.writeback", layer=0, stage=0, rows=(0, 4),
            dims=(0, 4), acc_array="a", num_bytes=25, partial=False))
        by_purpose = program.dram_bytes_by_purpose()
        assert by_purpose["src-features"] == 100
        assert by_purpose["edges"] == 50
        assert by_purpose["agg-writeback"] == 25
        assert program.total_dram_bytes == 175

    def test_describe(self):
        text = self.make_program().describe()
        assert "gcn" in text and "dst-stationary" in text
