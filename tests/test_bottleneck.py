"""Tests for the bottleneck/roofline analysis (Fig 5's reasoning)."""

import pytest

from repro.accelerator import GNNerator
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.eval.bottleneck import BottleneckReport, analyze_bottleneck
from repro.eval.harness import Harness


def run_and_analyze(spec: WorkloadSpec):
    harness = Harness()
    config = gnnerator_config()
    accelerator = GNNerator(config)
    program = accelerator.compile(harness.graph(spec.dataset),
                                  harness.model(spec))
    result = accelerator.simulate(program)
    return analyze_bottleneck(program, result, config)


class TestBottleneckReport:
    def test_binding_resource_selection(self):
        report = BottleneckReport(achieved_cycles=100,
                                  dram_bound_cycles=90,
                                  graph_compute_bound_cycles=10,
                                  dense_compute_bound_cycles=50)
        assert report.binding_resource == "feature-memory-bandwidth"
        assert report.best_bound_cycles == 90
        assert report.overlap_efficiency == pytest.approx(0.9)

    def test_overlap_efficiency_capped(self):
        report = BottleneckReport(achieved_cycles=50,
                                  dram_bound_cycles=90,
                                  graph_compute_bound_cycles=0,
                                  dense_compute_bound_cycles=0)
        assert report.overlap_efficiency == 1.0

    def test_zero_cycles(self):
        report = BottleneckReport(achieved_cycles=0, dram_bound_cycles=1,
                                  graph_compute_bound_cycles=0,
                                  dense_compute_bound_cycles=0)
        assert report.overlap_efficiency == 0.0

    def test_describe(self):
        report = BottleneckReport(achieved_cycles=100,
                                  dram_bound_cycles=90,
                                  graph_compute_bound_cycles=10,
                                  dense_compute_bound_cycles=50)
        assert "bound by" in report.describe()


class TestFig5Reasoning:
    """The analysis must reproduce Fig 5's logic on real workloads."""

    def test_small_hidden_is_bandwidth_bound(self):
        spec = WorkloadSpec(dataset="citeseer", network="gcn",
                            hidden_dim=16)
        report = run_and_analyze(spec)
        assert report.binding_resource == "feature-memory-bandwidth"

    def test_large_hidden_is_dense_bound(self):
        spec = WorkloadSpec(dataset="citeseer", network="gcn",
                            hidden_dim=1024)
        report = run_and_analyze(spec)
        assert report.binding_resource == "dense-engine-compute"

    def test_bounds_never_exceed_achieved_by_much(self):
        """Lower bounds must actually be lower bounds (small tolerance
        for rounding in the DMA burst model)."""
        spec = WorkloadSpec(dataset="cora", network="gcn")
        report = run_and_analyze(spec)
        assert report.best_bound_cycles <= report.achieved_cycles * 1.01

    def test_pipeline_overlap_is_good(self):
        """The double-buffered token pipeline should land close to the
        binding resource's lower bound."""
        spec = WorkloadSpec(dataset="cora", network="gcn")
        report = run_and_analyze(spec)
        assert report.overlap_efficiency > 0.7
