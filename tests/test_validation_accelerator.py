"""Tests for static validation and the top-level timing simulation."""

import dataclasses

import pytest

from repro.accelerator import GNNerator
from repro.compiler.ir import ReleaseOp
from repro.compiler.lowering import compile_workload
from repro.analysis.passes.validation import (
    ValidationError,
    validate_program,
)
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.graph.generators import erdos_renyi
from repro.models.zoo import build_network
from repro.sim.coalesce import DeadlockError
from tests.conftest import make_tiny_config
from tests.oracle import simulate_event


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 300, feature_dim=20, seed=5)


@pytest.fixture(scope="module")
def gcn():
    return build_network("gcn", 20, 5)


class TestValidation:
    def test_compiled_programs_validate(self, graph, gcn):
        for traversal in (DST_STATIONARY, SRC_STATIONARY):
            program = compile_workload(graph, gcn,
                                       make_tiny_config(8),
                                       traversal=traversal)
            report = validate_program(program)
            assert report.retired_ops == sum(
                len(q) for q in program.queues.values())

    def test_channel_depth_bounded_by_credits(self, graph, gcn):
        program = compile_workload(graph, gcn, make_tiny_config(8))
        report = validate_program(program)
        for depth in report.max_channel_depth.values():
            assert depth <= 2

    def test_unsignalled_token_detected(self, graph, gcn):
        program = compile_workload(graph, gcn, make_tiny_config(8))
        program.queues["graph.fetch"][0].add_wait("never-signalled")
        with pytest.raises(ValidationError, match="never-signalled"):
            validate_program(program)

    def test_credit_deadlock_detected(self, graph, gcn):
        """Leaking both buffer credits starves Acquire -> deadlock.

        (Leaking one merely degrades double- to single-buffering, which
        still schedules — also asserted here.)
        """
        program = compile_workload(graph, gcn, make_tiny_config(8))
        queue = program.queues["graph.compute"]
        indices = [i for i, op in enumerate(queue)
                   if isinstance(op, ReleaseOp)][:2]
        assert len(indices) == 2
        first = queue.pop(indices[0])
        validate_program(program)  # one leaked credit still schedules
        second = queue.pop(indices[1] - 1)
        try:
            with pytest.raises(ValidationError, match="deadlock"):
                validate_program(program)
        finally:
            queue.insert(indices[1] - 1, second)
            queue.insert(indices[0], first)


class TestSimulation:
    def test_runs_and_reports(self, graph, gcn):
        accelerator = GNNerator(make_tiny_config(8))
        result = accelerator.run(graph, gcn)
        assert result.cycles > 0
        assert result.seconds == result.cycles / 1e9
        assert result.num_operations > 0
        assert 0 < result.dram_utilization <= 1.0

    def test_dram_bytes_match_program(self, graph, gcn):
        config = make_tiny_config(8)
        accelerator = GNNerator(config)
        program = accelerator.compile(graph, gcn)
        result = accelerator.simulate(program)
        assert result.total_dram_bytes == program.total_dram_bytes

    def test_unit_busy_bounded_by_elapsed(self, graph, gcn):
        result = GNNerator(make_tiny_config(8)).run(graph, gcn)
        for unit in result.unit_busy_cycles:
            assert result.utilization(unit) <= 1.0

    def test_deterministic(self, graph, gcn):
        config = make_tiny_config(8)
        a = GNNerator(config).run(graph, gcn)
        b = GNNerator(config).run(graph, gcn)
        assert a.cycles == b.cycles

    def test_traversals_differ_in_time(self, graph, gcn):
        config = make_tiny_config(8)
        dst = GNNerator(config).run(graph, gcn, traversal=DST_STATIONARY)
        src = GNNerator(config).run(graph, gcn, traversal=SRC_STATIONARY)
        # dst-stationary moves strictly less data on this workload.
        assert dst.total_dram_bytes < src.total_dram_bytes

    def test_corrupted_program_deadlocks(self, graph, gcn):
        config = make_tiny_config(8)
        accelerator = GNNerator(config)
        program = accelerator.compile(graph, gcn)
        program.queues["dense.fetch"][0].add_wait("never")
        # Mutating a compiled program violates its immutability contract;
        # drop the precompiled plan template and plans so both kernels
        # see the corruption.
        program._template = None
        program._coalesced_plans.clear()
        with pytest.raises(DeadlockError):
            accelerator.simulate(program)
        with pytest.raises(DeadlockError):
            simulate_event(program, config)

    def test_compute_cycles_lower_bound(self, graph, gcn):
        """Elapsed time can't beat the busiest unit's serial work."""
        config = make_tiny_config(8)
        accelerator = GNNerator(config)
        program = accelerator.compile(graph, gcn)
        result = accelerator.simulate(program)
        serial = program.compute_cycles_by_unit()
        assert result.cycles >= max(serial.values())

    def test_describe(self, graph, gcn):
        result = GNNerator(make_tiny_config(8)).run(graph, gcn)
        text = result.describe()
        assert "cycles" in text and "DRAM" in text

    def test_faster_dram_reduces_cycles(self, graph, gcn):
        config = make_tiny_config(8)
        fast = dataclasses.replace(config, dram=config.dram.scaled(4))
        slow_result = GNNerator(config).run(graph, gcn)
        fast_result = GNNerator(fast).run(graph, gcn)
        assert fast_result.cycles < slow_result.cycles

    def test_default_config_used_when_none(self):
        accelerator = GNNerator()
        assert accelerator.config.feature_block == 64
