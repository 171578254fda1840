"""Tests for the per-op timeline (``HwProbe.ops``) and the pipelining
claims it verifies."""

import pytest

from repro.accelerator import GNNerator
from repro.graph.generators import erdos_renyi
from repro.models.zoo import build_network
from repro.obs import HwProbe
from repro.obs.hwtel import busy_intervals, overlap_cycles, render_gantt
from tests.conftest import make_tiny_config


def first_activity(ops, unit):
    intervals = busy_intervals(ops, unit)
    return intervals[0][0] if intervals else None


def last_activity(ops, unit):
    intervals = busy_intervals(ops, unit)
    return intervals[-1][1] if intervals else None


class TestTracer:
    def test_busy_intervals_merge(self):
        ops = [("u", "a", 0, 10), ("u", "b", 5, 15), ("u", "c", 20, 30)]
        assert busy_intervals(ops, "u") == [(0, 15), (20, 30)]

    def test_zero_duration_filtered(self):
        ops = [("u", "stall", 5, 5)]
        assert busy_intervals(ops, "u") == []
        assert first_activity(ops, "u") is None

    def test_first_last_activity(self):
        ops = [("u", "a", 3, 7), ("u", "b", 10, 12)]
        assert first_activity(ops, "u") == 3
        assert last_activity(ops, "u") == 12

    def test_overlap_cycles(self):
        ops = [("a", "x", 0, 10), ("b", "y", 5, 20)]
        assert overlap_cycles(ops, "a", "b") == 5

    def test_render_gantt(self):
        ops = [("alpha", "a", 0, 50), ("beta", "b", 50, 100)]
        chart = render_gantt(ops, width=20)
        lines = chart.splitlines()
        assert len(lines) == 3
        assert "alpha" in lines[1] and "#" in lines[1]

    def test_render_empty(self):
        assert "empty" in render_gantt([])


class TestPipelineOverlap:
    """The Sec III-C architecture claims, measured from real traces."""

    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(60, 300, feature_dim=20, seed=5)

    def run_traced(self, graph, network):
        model = build_network(network, 20, 5)
        accelerator = GNNerator(make_tiny_config(8))
        program = accelerator.compile(graph, model)
        probe = HwProbe()
        result = accelerator.simulate(program, probe=probe)
        return probe.ops, result

    def test_graph_first_pipelines_engines(self, graph):
        """GCN (graph-first): the Dense Engine must start consuming
        aggregated blocks before the Graph Engine finishes the model —
        inter-stage parallelism, the controller's whole purpose."""
        ops, _ = self.run_traced(graph, "gcn")
        dense_start = first_activity(ops, "dense.compute")
        graph_end = last_activity(ops, "graph.compute")
        assert dense_start is not None and graph_end is not None
        assert dense_start < graph_end

    def test_dense_first_order_for_pool(self, graph):
        """GraphSAGE-Pool (dense-first): the Dense Engine produces z
        before the Graph Engine aggregates anything."""
        ops, _ = self.run_traced(graph, "graphsage-pool")
        dense_start = first_activity(ops, "dense.compute")
        graph_start = first_activity(ops, "graph.compute")
        assert dense_start is not None and graph_start is not None
        assert dense_start <= graph_start

    def test_fetch_overlaps_compute(self, graph):
        """Double buffering: shard prefetch overlaps shard compute."""
        ops, _ = self.run_traced(graph, "gcn")
        assert overlap_cycles(ops, "graph.fetch", "graph.compute") > 0

    def test_trace_covers_elapsed_time(self, graph):
        ops, result = self.run_traced(graph, "gcn")
        assert max(end for _, _, _, end in ops) == result.cycles

    def test_gantt_renders_all_units(self, graph):
        ops, _ = self.run_traced(graph, "gcn")
        chart = render_gantt(ops)
        for unit in ("graph.fetch", "graph.compute", "dense.compute"):
            assert unit in chart


class TestTracerEdgeCases:
    def test_touching_intervals_merge(self):
        ops = [("u", "a", 0, 5), ("u", "b", 5, 9)]
        assert busy_intervals(ops, "u") == [(0, 9)]

    def test_for_unit_filters(self):
        ops = [("a", "x", 0, 1), ("b", "y", 0, 2)]
        assert busy_intervals(ops, "a") == [(0, 1)]
        assert busy_intervals(ops, "missing") == []

    def test_overlap_of_disjoint_units_is_zero(self):
        ops = [("a", "x", 0, 10), ("b", "y", 10, 20)]
        assert overlap_cycles(ops, "a", "b") == 0
        assert overlap_cycles(ops, "a", "missing") == 0

    def test_render_zero_length_trace(self):
        assert "zero-length" in render_gantt([("u", "instant", 0, 0)])


class TestTracerTelemetryIntegration:
    """The op slices and the raw probe streams describe the same run:
    compute slices are exactly the busy windows, and the slices feed
    the Perfetto export as labelled tracks."""

    def _traced_run(self):
        graph = erdos_renyi(40, 160, feature_dim=12, seed=3)
        model = build_network("gcn", 12, 4)
        accelerator = GNNerator(make_tiny_config(8))
        program = accelerator.compile(graph, model)
        probe = HwProbe()
        result = accelerator.simulate(program, probe=probe)
        return probe, result

    def test_trace_and_probe_agree_on_busy_windows(self):
        from collections import Counter

        probe, result = self._traced_run()
        # Every probe compute window is one op slice with the same
        # boundaries (the slices additionally hold every DMA).
        sliced = Counter((unit, start, end)
                         for unit, _, start, end in probe.ops)
        probed = Counter(probe.busy)
        assert probed, "probe recorded no compute windows"
        missing = probed - sliced
        assert not missing, f"probe windows absent from slices: {missing}"
        assert len(probe.ops) == len(probe.busy) + len(probe.dram)
        # And the probe stream reconstructs the busy accounting.
        busy: dict[str, int] = {}
        for unit, start, end in probe.busy:
            busy[unit] = busy.get(unit, 0) + (end - start)
        for unit, cycles in busy.items():
            assert result.unit_busy_cycles[unit] == cycles

    def test_trace_exports_as_perfetto_slices(self, tmp_path):
        import json

        from repro.obs import validate_trace_events, write_perfetto

        probe, result = self._traced_run()
        out = write_perfetto(tmp_path / "trace.json", probe=probe,
                             frequency_ghz=result.frequency_ghz,
                             total_cycles=result.cycles)
        payload = json.loads(out.read_text())
        assert validate_trace_events(payload) == []
        labels = {e["name"] for e in payload["traceEvents"]
                  if e["ph"] == "X"}
        assert "ShardAggregateOp" in labels and "GemmOp" in labels
