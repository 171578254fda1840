"""Tests for the extension features: sparsity elimination (Sec VI-A's
"orthogonal optimisation") and the energy model."""

import dataclasses

import numpy as np
import pytest

from repro.accelerator import GNNerator
from repro.analysis.passes.validation import validate_program
from repro.compiler.ir import DmaOp
from repro.compiler.lowering import compile_workload
from repro.compiler.runtime import run_functional
from repro.compiler.store import ProgramStore
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.eval import energy
from repro.eval.energy import (
    EnergyReport,
    estimate_energy,
    gpu_energy_joules,
    hygcn_energy_joules,
)
from repro.eval.harness import Harness
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.zoo import NETWORK_NAMES, build_network
from tests.conftest import energy_oracle, make_tiny_config


class TestSparsityElimination:
    @pytest.fixture(scope="class")
    def graph(self):
        return erdos_renyi(80, 400, feature_dim=20, seed=6)

    def elim_config(self, block):
        config = make_tiny_config(block)
        return dataclasses.replace(config, sparsity_elimination=True)

    def test_functional_equivalence_preserved(self, graph):
        """Elimination only changes DMA sizes, never results."""
        model = build_network("gcn", 20, 5)
        params = init_parameters(model, seed=1)
        expected = reference_forward(model, graph, params)
        program = compile_workload(graph, model, self.elim_config(None),
                                   feature_block=None)
        validate_program(program)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-3)

    def test_reduces_unblocked_source_traffic(self, graph):
        """On a multi-shard unblocked grid, gathering distinct sources
        beats streaming whole intervals — HyGCN's citeseer trick."""
        model = build_network("gcn", 20, 5)

        def src_bytes(config):
            program = compile_workload(graph, model, config,
                                       feature_block=None)
            return sum(op.num_bytes for op in program.order
                       if isinstance(op, DmaOp)
                       and op.purpose == "src-features")

        plain = src_bytes(make_tiny_config(None))
        eliminated = src_bytes(self.elim_config(None))
        assert eliminated < plain

    def test_gather_bytes_match_distinct_counts(self, graph):
        model = build_network("gcn", 20, 5)
        config = self.elim_config(None)
        program = compile_workload(graph, model, config,
                                   feature_block=None)
        grid = program.grids[(0, 0)]
        gathers = [op for op in program.order
                   if isinstance(op, DmaOp)
                   and op.label.startswith("gather:")
                   and op.array == "h.in"]  # layer 0's grid
        assert gathers
        for op in gathers:
            _, row, col, _ = op.label.split(":")
            shard = grid.shard(int(row), int(col))
            distinct = len(np.unique(shard.src))
            width = op.dims[1] - op.dims[0]
            assert op.num_bytes == distinct * width * 4

    def test_full_dataset_run(self):
        """End-to-end on citeseer, the dataset elimination targets."""
        citeseer = load_dataset("citeseer")
        model = build_network("gcn", citeseer.feature_dim, 6)
        plain_cfg = gnnerator_config(feature_block=None)
        elim_cfg = dataclasses.replace(plain_cfg,
                                       sparsity_elimination=True)
        plain = GNNerator(plain_cfg).run(citeseer, model,
                                         feature_block=None)
        elim = GNNerator(elim_cfg).run(citeseer, model,
                                       feature_block=None)
        assert elim.total_dram_bytes < plain.total_dram_bytes
        assert elim.cycles < plain.cycles


class TestEnergyModel:
    @pytest.fixture(scope="class")
    def run(self):
        graph = load_dataset("cora")
        model = build_network("gcn", graph.feature_dim, 7)
        accelerator = GNNerator(gnnerator_config())
        program = accelerator.compile(graph, model)
        result = accelerator.simulate(program)
        return program, result

    def test_components_positive(self, run):
        program, result = run
        report = estimate_energy(program, result)
        assert report.compute_pj > 0
        assert report.sram_pj > 0
        assert report.dram_pj > 0
        assert report.total_pj == pytest.approx(
            report.compute_pj + report.sram_pj + report.dram_pj
            + report.idle_pj)

    def test_dram_dominates_memory_bound_run(self, run):
        """cora-gcn is DRAM-bound; its energy should be too."""
        program, result = run
        report = estimate_energy(program, result)
        assert report.dram_pj > report.compute_pj

    def test_accelerator_beats_gpu_energy(self, run):
        """The headline accelerator argument: orders less energy."""
        program, result = run
        report = estimate_energy(program, result)
        gpu_joules = gpu_energy_joules(result.seconds * 7)  # ~7x slower
        assert report.total_joules < gpu_joules / 10

    def test_power_sanity(self, run):
        """Average power should land in accelerator territory (< 20 W)."""
        program, result = run
        report = estimate_energy(program, result)
        power = report.average_power_w(result.seconds)
        assert 0.1 < power < 20.0

    def test_envelopes(self):
        assert gpu_energy_joules(1.0) == pytest.approx(250.0)
        assert hygcn_energy_joules(1.0) == pytest.approx(6.7)
        assert EnergyReport().average_power_w(0) == 0.0

    def test_describe(self, run):
        program, result = run
        text = estimate_energy(program, result).describe()
        assert "uJ" in text and "dram" in text


class TestEnergyMemo:
    """The program-static energy terms are summed once per program; a
    report must still equal the per-op loop (``energy_oracle``) bit for
    bit — the DSE frontier pins ``energy_pj``."""

    @staticmethod
    def simulated(dataset: str, network: str):
        harness = Harness(program_store=None)
        spec = WorkloadSpec(dataset=dataset, network=network)
        return (harness.graph(dataset), harness.gnnerator_program(spec),
                harness.gnnerator_result(spec))

    @staticmethod
    def assert_exact(report, oracle):
        assert report == oracle
        assert list(report.breakdown.items()) == list(
            oracle.breakdown.items())
        assert report.total_pj == oracle.total_pj

    @pytest.mark.parametrize("dataset", ["tiny", "cora"])
    @pytest.mark.parametrize("network", NETWORK_NAMES)
    def test_equals_the_per_op_loop(self, dataset, network, tmp_path):
        graph, program, result = self.simulated(dataset, network)
        oracle = energy_oracle(program, result)
        store = ProgramStore(tmp_path, code_version="v1")
        unfilled = store.key({"memo": "unfilled"})
        assert store.put(unfilled, program, graph)
        self.assert_exact(estimate_energy(program, result), oracle)
        self.assert_exact(estimate_energy(program, result), oracle)
        filled = store.key({"memo": "filled"})
        assert store.put(filled, program, graph)
        for key in (unfilled, filled):
            loaded = store.get(key, graph)
            assert loaded is not None
            self.assert_exact(estimate_energy(loaded, result), oracle)

    def test_second_call_does_not_walk_the_ops(self, monkeypatch):
        _, program, result = self.simulated("cora", "gcn")
        first = estimate_energy(program, result)

        def walked(op):
            raise AssertionError("estimate_energy walked program.order")

        monkeypatch.setattr(energy, "_op_macs", walked)
        assert estimate_energy(program, result) == first

    def test_reports_do_not_share_a_breakdown(self):
        _, program, result = self.simulated("cora", "gat")
        first = estimate_energy(program, result)
        expected = dict(first.breakdown)
        first.breakdown.clear()
        assert estimate_energy(program, result).breakdown == expected
