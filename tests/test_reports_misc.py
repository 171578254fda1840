"""Coverage for report renderers, energy breakdown, and edge paths not
reached by the main suites."""

import numpy as np
import pytest

from repro.eval.experiments import (
    Fig3Result,
    Fig3Row,
    Fig4Point,
    Fig5Row,
)
from repro.eval.report import render_fig3, render_fig4, render_fig5


class TestRenderers:
    def test_render_fig3(self):
        result = Fig3Result(rows=[
            Fig3Row(label="cora-gcn", speedup_blocked=7.0,
                    speedup_no_blocking=4.9, paper_blocked=7.5,
                    paper_no_blocking=3.8),
            Fig3Row(label="Gmean", speedup_blocked=4.9,
                    speedup_no_blocking=3.0, paper_blocked=8.0,
                    paper_no_blocking=4.2),
        ])
        text = render_fig3(result)
        assert "cora-gcn" in text and "7.0x" in text and "7.5x" in text
        assert result.gmean_row.label == "Gmean"

    def test_render_fig3_missing_paper_value(self):
        result = Fig3Result(rows=[
            Fig3Row(label="x", speedup_blocked=1.0,
                    speedup_no_blocking=1.0)])
        assert "-" in render_fig3(result)

    def test_render_fig4(self):
        text = render_fig4([Fig4Point(block=32, slowdown=1.4),
                            Fig4Point(block=64, slowdown=1.0)])
        assert "1.40x" in text and "B" in text

    def test_render_fig5(self):
        rows = [Fig5Row(label="Cora-16",
                        speedups={"more-dense-compute": 1.1})]
        text = render_fig5(rows)
        assert "Cora-16" in text and "1.10x" in text


class TestEnergyBreakdown:
    def test_breakdown_by_op_kind(self):
        from repro.accelerator import GNNerator
        from repro.eval.energy import estimate_energy
        from repro.graph.generators import erdos_renyi
        from repro.models.zoo import build_network
        from tests.conftest import make_tiny_config

        graph = erdos_renyi(40, 200, feature_dim=12, seed=2)
        model = build_network("gcn", 12, 4)
        accelerator = GNNerator(make_tiny_config(4))
        program = accelerator.compile(graph, model)
        result = accelerator.simulate(program)
        report = estimate_energy(program, result)
        assert "GemmOp" in report.breakdown
        assert "ShardAggregateOp" in report.breakdown
        assert sum(report.breakdown.values()) == pytest.approx(
            report.compute_pj + report.sram_pj
            - result.total_dram_bytes * 0.6, rel=1e-6)


class TestKernelEdgePaths:
    def test_any_of_with_pre_triggered(self):
        from tests.oracle.kernel import Environment
        env = Environment()
        done = env.event()
        done.trigger("early")
        combo = env.any_of([done, env.timeout(100)])
        assert combo.triggered and combo.value == "early"

    def test_run_until_exact_boundary(self):
        from tests.oracle.kernel import Environment
        env = Environment()
        fired = []

        def proc(env):
            yield env.timeout(30)
            fired.append(env.now)

        env.process(proc(env))
        env.run(until=30)
        assert fired == [30]

    def test_store_wakes_waiting_putter_on_get(self):
        from tests.oracle.kernel import Environment
        from tests.oracle.queues import Store
        env = Environment()
        store = Store(env, capacity=1)
        order = []

        def producer(env):
            yield store.put("a")
            order.append("put-a")
            yield store.put("b")
            order.append("put-b")

        def consumer(env):
            yield env.timeout(5)
            item = yield store.get()
            order.append(f"got-{item}")
            item = yield store.get()
            order.append(f"got-{item}")

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        # put-b unblocks at the same instant got-a happens (t=5) and the
        # freshly-admitted putter is scheduled first (FIFO determinism).
        assert order == ["put-a", "put-b", "got-a", "got-b"]

    def test_direct_handoff_when_getter_waits(self):
        from tests.oracle.kernel import Environment
        from tests.oracle.queues import Store
        env = Environment()
        store = Store(env, capacity=1)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append(item)

        def producer(env):
            yield env.timeout(3)
            yield store.put("direct")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == ["direct"]


class TestDeepNetworks:
    """Functional equivalence holds for deeper stacks and odd shapes."""

    def test_four_layer_gcn(self):
        from repro.compiler.lowering import compile_workload
        from repro.compiler.runtime import run_functional
        from repro.graph.generators import erdos_renyi
        from repro.models.layers import init_parameters
        from repro.models.reference import reference_forward
        from repro.models.zoo import build_network
        from tests.conftest import make_tiny_config

        graph = erdos_renyi(40, 200, feature_dim=10, seed=3)
        model = build_network("graphsage", 10, 3, hidden_dim=6,
                              num_hidden_layers=3)
        params = init_parameters(model, seed=4)
        program = compile_workload(graph, model, make_tiny_config(4),
                                   feature_block=4)
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=2e-3, atol=1e-3)

    def test_pool_with_custom_pool_dim(self):
        from repro.compiler.lowering import compile_workload
        from repro.compiler.runtime import run_functional
        from repro.graph.generators import erdos_renyi
        from repro.models.graphsage_pool import graphsage_pool_layer
        from repro.models.layers import init_parameters
        from repro.models.reference import reference_forward
        from repro.models.stages import GNNModel
        from tests.conftest import make_tiny_config

        graph = erdos_renyi(30, 120, feature_dim=9, seed=5)
        layer = graphsage_pool_layer(9, 4, pool_dim=7)
        model = GNNModel(name="pool7", layers=(layer,))
        params = init_parameters(model, seed=6)
        program = compile_workload(graph, model, make_tiny_config(3),
                                   feature_block=3)
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=2e-3, atol=1e-3)

    def test_wide_hidden_functional(self):
        """Hidden dim wider than any buffer-friendly block."""
        from repro.compiler.lowering import compile_workload
        from repro.compiler.runtime import run_functional
        from repro.graph.generators import erdos_renyi
        from repro.models.layers import init_parameters
        from repro.models.reference import reference_forward
        from repro.models.zoo import build_network
        from tests.conftest import make_tiny_config

        graph = erdos_renyi(20, 80, feature_dim=5, seed=7)
        model = build_network("gcn", 5, 2, hidden_dim=64)
        params = init_parameters(model, seed=8)
        program = compile_workload(graph, model, make_tiny_config(8),
                                   feature_block=8)
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=2e-3, atol=1e-3)
