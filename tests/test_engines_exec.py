"""Direct tests for the oracle's controller, unit executor and engine
wrappers (``tests/oracle/``), and the area model."""

import pytest

from repro.compiler.ir import (
    AccumWritebackOp,
    AcquireOp,
    DmaOp,
    InitAccumulatorOp,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.config.accelerator import (
    DenseEngineConfig,
    DramConfig,
    GNNeratorConfig,
    GraphEngineConfig,
)
from repro.eval.area import gnnerator_area, hygcn_area
from tests.oracle.controller import Controller
from tests.oracle.engines import DenseEngine, GraphEngine
from tests.oracle.executor import unit_process
from tests.oracle.kernel import Environment, SimulationError
from tests.oracle.memory import BusyTracker, DramChannel


def make_rig():
    env = Environment()
    controller = Controller(env)
    dram = DramChannel(env, DramConfig(bandwidth_bytes_per_s=256e9,
                                       burst_latency_cycles=0))
    return env, controller, dram


class TestController:
    def test_channels_and_credits_exist(self):
        env = Environment()
        controller = Controller(env)
        for channel in ("graph", "dense"):
            assert controller.credit(channel).count == 2
            assert len(controller.channel(channel)) == 0

    def test_unknown_channel(self):
        controller = Controller(Environment())
        with pytest.raises(SimulationError):
            controller.credit("mystery")
        with pytest.raises(SimulationError):
            controller.channel("mystery")

    def test_rejects_zero_credits(self):
        with pytest.raises(SimulationError):
            Controller(Environment(), credits=0)


class TestUnitExecutor:
    def test_compute_op_occupies_unit(self):
        env, controller, dram = make_rig()
        tracker = BusyTracker()
        op = InitAccumulatorOp(unit="graph.compute", layer=0, stage=0,
                               rows=(0, 4), dims=(0, 4), acc_array="a",
                               src_array="", mode="zero")
        env.process(unit_process(env, "graph.compute", [op], [25],
                                 controller, dram, tracker))
        env.run()
        assert env.now == 25
        assert tracker.busy_cycles == 25

    def test_dma_ops_use_channel(self):
        env, controller, dram = make_rig()
        ops = [
            DmaOp(unit="graph.fetch", direction="load", num_bytes=2560,
                  array="x", rows=(0, 1), dims=(0, 1), purpose="edges"),
            AccumWritebackOp(unit="graph.fetch", layer=0, stage=0,
                             rows=(0, 1), dims=(0, 1), acc_array="a",
                             num_bytes=2560, partial=False),
        ]
        env.process(unit_process(env, "graph.fetch", ops, [], controller,
                                 dram, BusyTracker()))
        env.run()
        assert env.now == 20  # 2 x 10 cycles at 256 B/cycle
        assert dram.counter("graph.fetch").read_bytes == 2560
        assert dram.counter("graph.fetch").write_bytes == 2560

    def test_token_stall(self):
        env, controller, dram = make_rig()
        op = InitAccumulatorOp(unit="graph.compute", layer=0, stage=0,
                               rows=(0, 4), dims=(0, 4), acc_array="a",
                               src_array="", mode="zero", wait=("go",))

        def signaller(env):
            yield env.timeout(100)
            controller.signal("go")

        env.process(unit_process(env, "graph.compute", [op], [5],
                                 controller, dram, BusyTracker()))
        env.process(signaller(env))
        env.run()
        assert env.now == 105

    def test_credit_handoff_between_units(self):
        """Acquire/Push on one unit pairs with Pop/Release on another."""
        env, controller, dram = make_rig()
        fetch_ops = [
            AcquireOp(unit="graph.fetch", channel="graph"),
            DmaOp(unit="graph.fetch", direction="load", num_bytes=256,
                  array="x", rows=(0, 1), dims=(0, 1), purpose="edges"),
            PushOp(unit="graph.fetch", channel="graph"),
        ]
        compute_ops = [
            PopOp(unit="graph.compute", channel="graph"),
            InitAccumulatorOp(unit="graph.compute", layer=0, stage=0,
                              rows=(0, 4), dims=(0, 4), acc_array="a",
                              src_array="", mode="zero"),
            ReleaseOp(unit="graph.compute", channel="graph"),
        ]
        f = env.process(unit_process(env, "graph.fetch", fetch_ops, [],
                                     controller, dram, BusyTracker()))
        c = env.process(unit_process(env, "graph.compute", compute_ops,
                                     [7], controller, dram,
                                     BusyTracker()))
        env.run()
        assert f.triggered and c.triggered
        assert env.now == 8  # 1 cycle DMA + 7 compute
        assert controller.credit("graph").count == 2  # restored

    def test_signal_after_completion(self):
        env, controller, dram = make_rig()
        producer = DmaOp(unit="graph.fetch", direction="load",
                         num_bytes=256, array="x", rows=(0, 1),
                         dims=(0, 1), purpose="edges", signal=("done",))
        consumer = InitAccumulatorOp(
            unit="dense.compute", layer=0, stage=0, rows=(0, 4),
            dims=(0, 4), acc_array="a", src_array="", mode="zero",
            wait=("done",))
        env.process(unit_process(env, "graph.fetch", [producer], [],
                                 controller, dram, BusyTracker()))
        env.process(unit_process(env, "dense.compute", [consumer], [3],
                                 controller, dram, BusyTracker()))
        env.run()
        assert env.now == 4


class TestEngineWrappers:
    def test_empty_queues_finish_immediately(self):
        env, controller, dram = make_rig()
        graph_engine = GraphEngine(env, GraphEngineConfig(), controller,
                                   dram)
        dense_engine = DenseEngine(env, DenseEngineConfig(), controller,
                                   dram)
        graph_engine.launch({}, {})
        dense_engine.launch({}, {})
        env.run()
        assert graph_engine.finished() and dense_engine.finished()
        assert graph_engine.compute_busy_cycles == 0
        assert dense_engine.compute_busy_cycles == 0


class TestAreaModel:
    def test_gnnerator_matches_table4(self):
        """The paper reports 14.5 mm²; the model should land within
        ~10% for the default configuration."""
        report = gnnerator_area()
        assert report.total_mm2 == pytest.approx(14.5, rel=0.10)

    def test_hygcn_smaller_than_gnnerator(self):
        assert hygcn_area().total_mm2 < gnnerator_area().total_mm2

    def test_sram_dominates(self):
        report = gnnerator_area()
        assert report.sram_mm2 > report.dense_macs_mm2

    def test_scaling_area(self):
        big = GNNeratorConfig(dense=DenseEngineConfig().scaled(2))
        assert gnnerator_area(big).total_mm2 > gnnerator_area().total_mm2

    def test_describe(self):
        assert "mm^2" in gnnerator_area().describe()
