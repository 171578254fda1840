"""End-to-end integration tests across the full stack.

These tie everything together: datasets -> models -> compiler ->
functional runtime AND timing simulation, plus the cross-cutting claims
the paper's evaluation rests on (blocking reduces traffic and time;
producer flexibility; baselines ordered sensibly).
"""

import numpy as np
import pytest

from repro.accelerator import GNNerator
from repro.baselines.gpu import GpuModel
from repro.baselines.hygcn import HyGCNModel
from repro.analysis.passes.validation import validate_program
from repro.compiler.runtime import run_functional
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph.datasets import load_dataset
from repro.models.layers import init_parameters
from repro.models.reference import reference_forward
from repro.models.zoo import build_network


class TestFullStackOnCora:
    """Real dataset, real platform configuration."""

    @pytest.fixture(scope="class")
    def cora(self):
        return load_dataset("cora")

    def test_functional_on_real_dataset(self, cora):
        """Compiled execution matches reference on the real Cora graph
        (full 1433-dim features, blocked)."""
        model = build_network("gcn", cora.feature_dim, 7)
        params = init_parameters(model, seed=0)
        accelerator = GNNerator(gnnerator_config(feature_block=64))
        program = accelerator.compile(cora, model)
        validate_program(program)
        expected = reference_forward(model, cora, params)
        actual = run_functional(program, cora, params)
        np.testing.assert_allclose(actual, expected, rtol=1e-3, atol=1e-3)

    def test_timing_on_real_dataset(self, cora):
        model = build_network("gcn", cora.feature_dim, 7)
        result = GNNerator(gnnerator_config()).run(cora, model)
        # Sanity window: hundreds of microseconds at 1 GHz / 256 GB/s.
        assert 10_000 < result.cycles < 10_000_000
        assert result.total_dram_bytes > cora.feature_bytes

    @pytest.mark.parametrize("network", ["gcn", "graphsage",
                                         "graphsage-pool"])
    def test_all_networks_simulate(self, cora, network):
        model = build_network(network, cora.feature_dim, 7)
        result = GNNerator(gnnerator_config()).run(cora, model)
        assert result.cycles > 0


class TestFullScaleFunctional:
    """Compiled == reference on every Table II dataset at full size —
    the strongest end-to-end correctness statement in the suite."""

    @pytest.mark.parametrize("dataset,classes,network", [
        ("citeseer", 6, "graphsage"),
        ("pubmed", 3, "gcn"),
    ])
    def test_real_dataset_equivalence(self, dataset, classes, network):
        graph = load_dataset(dataset)
        model = build_network(network, graph.feature_dim, classes)
        params = init_parameters(model, seed=0)
        program = GNNerator(gnnerator_config()).compile(graph, model)
        validate_program(program)
        expected = reference_forward(model, graph, params)
        actual = run_functional(program, graph, params)
        np.testing.assert_allclose(actual, expected, rtol=1e-3,
                                   atol=1e-3)


class TestPaperClaims:
    """Qualitative claims of the evaluation, asserted as invariants."""

    harness = Harness()

    def test_blocking_reduces_dram_traffic_on_citeseer(self):
        spec = WorkloadSpec(dataset="citeseer", network="gcn")
        blocked = self.harness.gnnerator_result(spec)
        unblocked = self.harness.gnnerator_result(spec.with_block(None))
        assert blocked.total_dram_bytes < 0.5 * unblocked.total_dram_bytes
        assert blocked.cycles < unblocked.cycles

    def test_blocking_neutral_for_pool(self):
        """Fig 3: gsage-max bars identical with/without blocking."""
        spec = WorkloadSpec(dataset="cora", network="graphsage-pool")
        blocked = self.harness.gnnerator_seconds(spec)
        unblocked = self.harness.gnnerator_seconds(spec.with_block(None))
        assert blocked == pytest.approx(unblocked, rel=0.15)

    def test_accelerator_beats_gpu_everywhere(self):
        """Fig 3: every workload's blocked bar exceeds 1x."""
        for dataset in ("cora", "citeseer", "pubmed"):
            for network in ("gcn", "graphsage", "graphsage-pool"):
                spec = WorkloadSpec(dataset=dataset, network=network)
                lat = self.harness.all_platforms(spec)
                assert lat.speedup_blocked > 1.0, spec.label

    def test_gpu_slowest_on_small_graphs(self):
        spec = WorkloadSpec(dataset="cora", network="gcn")
        lat = self.harness.all_platforms(spec)
        assert lat.gpu_seconds > lat.hygcn_seconds
        assert lat.gpu_seconds > lat.gnnerator_seconds

    def test_block32_underutilises_dense_engine(self):
        """Fig 4: B=32 (< array width 64) is slower than B=64."""
        spec = WorkloadSpec(dataset="cora", network="gcn")
        b64 = self.harness.gnnerator_seconds(spec.with_block(64))
        b32 = self.harness.gnnerator_seconds(spec.with_block(32))
        assert b32 > b64

    def test_feature_bandwidth_helps_small_hidden(self):
        """Fig 5: 2x DRAM bandwidth pays off at hidden dim 16."""
        from repro.config.platforms import next_generation_variants
        spec = WorkloadSpec(dataset="cora", network="gcn", hidden_dim=16)
        base = self.harness.gnnerator_seconds(spec)
        variant = next_generation_variants()["more-feature-bandwidth"]
        faster = self.harness.gnnerator_seconds(spec, variant)
        assert base / faster > 1.2

    def test_dense_compute_helps_large_hidden(self):
        """Fig 5: 2x Dense Engine pays off at hidden dim 1024."""
        from repro.config.platforms import next_generation_variants
        spec = WorkloadSpec(dataset="citeseer", network="gcn",
                            hidden_dim=1024)
        base = self.harness.gnnerator_seconds(spec)
        variant = next_generation_variants()["more-dense-compute"]
        faster = self.harness.gnnerator_seconds(spec, variant)
        assert base / faster > 1.3

    def test_hygcn_sparsity_elimination_orthogonal(self):
        """Sec VI-A: disabling HyGCN's elimination slows it on citeseer."""
        citeseer = load_dataset("citeseer")
        model = build_network("gcn", citeseer.feature_dim, 6)
        from repro.config.platforms import hygcn_config
        with_elim = HyGCNModel(hygcn_config(True)).run(citeseer, model)
        without = HyGCNModel(hygcn_config(False)).run(citeseer, model)
        assert without.cycles > 1.4 * with_elim.cycles


class TestCrossPlatformConsistency:
    def test_same_work_different_models(self):
        """All three platform models agree on *what* is computed: FLOP
        counts from the kernel accounting match the model's stage math."""
        from repro.models.accounting import model_flops
        graph = load_dataset("cora")
        model = build_network("gcn", graph.feature_dim, 7)
        flops = model_flops(model, graph)
        # Layer 1 GEMM dominates: 2 * N * D * H.
        lower_bound = 2 * graph.num_nodes * graph.feature_dim * 16
        assert flops > lower_bound

    def test_gpu_and_hygcn_scale_with_dataset(self):
        gpu = GpuModel()
        hygcn = HyGCNModel()
        small = load_dataset("cora")
        large = load_dataset("pubmed")
        model_s = build_network("gcn", small.feature_dim, 7)
        model_l = build_network("gcn", large.feature_dim, 3)
        assert gpu.run(large, model_l).seconds > \
            gpu.run(small, model_s).seconds * 0.5
        assert hygcn.run(large, model_l).seconds > \
            hygcn.run(small, model_s).seconds
