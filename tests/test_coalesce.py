"""The coalesced replay == the event-driven oracle, cycle for cycle.

The coalesced replay (:mod:`repro.sim.coalesce`) carries a docstring
proof of order-equivalence with the process-based kernel kept under
``tests/oracle/``; these tests are the empirical lock. Every zoo
network over every differential graph shape — blocked and unblocked,
both traversals — must produce *exactly* the same cycle count,
busy-cycle accounting, DRAM traffic and telemetry through both.
"""

from __future__ import annotations

import pytest

from repro.accelerator import GNNerator
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.models.zoo import NETWORK_NAMES, build_network
from repro.obs.hwtel import HwProbe
from repro.sim.coalesce import DeadlockError, build_plan, run_plan
from tests.conftest import make_tiny_config
from tests.oracle import simulate_event
from tests.test_differential import FEATURE_DIM, GRAPH_CASES, NUM_CLASSES

#: The four telemetry streams every probed run fills.
PROBE_STREAMS = ("busy", "dram", "queue", "ops")


@pytest.mark.parametrize("network", NETWORK_NAMES)
@pytest.mark.parametrize("graph_case", sorted(GRAPH_CASES))
@pytest.mark.parametrize("feature_block,traversal", [
    (4, DST_STATIONARY), (4, SRC_STATIONARY), (None, DST_STATIONARY)])
def test_kernels_agree_exactly(network, graph_case, feature_block,
                               traversal):
    model = build_network(network, FEATURE_DIM, NUM_CLASSES, hidden_dim=8)
    config = make_tiny_config(feature_block)
    accelerator = GNNerator(config)
    program = accelerator.compile(GRAPH_CASES[graph_case](), model,
                                  traversal=traversal,
                                  feature_block=feature_block)
    fast = accelerator.simulate(program)
    fast_probe, slow_probe = HwProbe(), HwProbe()
    assert accelerator.simulate(program, probe=fast_probe) == fast
    slow = simulate_event(program, config, probe=slow_probe)
    assert fast.cycles == slow.cycles
    assert fast.unit_busy_cycles == slow.unit_busy_cycles
    assert fast.dram_bytes_by_unit == slow.dram_bytes_by_unit
    assert fast.dram_bytes_by_purpose == slow.dram_bytes_by_purpose
    assert fast.dram_busy_cycles == slow.dram_busy_cycles
    assert fast.num_operations == slow.num_operations
    for stream in PROBE_STREAMS:
        assert sorted(getattr(fast_probe, stream)) == \
            sorted(getattr(slow_probe, stream)), stream


class TestPlan:
    def _program(self, config=None):
        graph = GRAPH_CASES["random-0"]()
        model = build_network("gcn", FEATURE_DIM, NUM_CLASSES,
                              hidden_dim=8)
        config = config or make_tiny_config(4)
        return config, GNNerator(config).compile(
            graph, model, feature_block=4)

    def test_plan_is_cached_per_dram_config(self):
        config, program = self._program()
        assert program.coalesced_plan(config.dram) is \
            program.coalesced_plan(config.dram)

    def test_plan_prebuilt_at_compile_time(self):
        """compile_workload pays the chain build so simulate doesn't."""
        config, program = self._program()
        assert config.dram in program._coalesced_plans

    def test_different_dram_config_builds_fresh_plan(self):
        import dataclasses

        config, program = self._program()
        other = dataclasses.replace(config.dram,
                                    burst_latency_cycles=13)
        plan = program.coalesced_plan(other)
        assert plan is not program.coalesced_plan(config.dram)
        # and the cycles actually move with the latency change
        fast = GNNerator(dataclasses.replace(
            config, dram=other)).simulate(program)
        assert fast.cycles != GNNerator(config).simulate(program).cycles

    def test_static_accounting_matches_program(self):
        config, program = self._program()
        plan = program.coalesced_plan(config.dram)
        assert plan.unit_busy_cycles == program.compute_cycles_by_unit()

    def test_deadlocked_plan_raises_with_stuck_units(self):
        config, program = self._program()
        program.queues["dense.fetch"][0].add_wait("never")
        plan = build_plan(program.queues, config.dram)
        with pytest.raises(DeadlockError) as excinfo:
            run_plan(plan)
        assert "dense.fetch" in excinfo.value.stuck
        assert "dense.fetch" in str(excinfo.value)

    def test_unit_stuck_on_its_final_action_is_reported(self):
        """A unit blocked on the last action before its END sentinel
        shares a finished unit's pc — the stuck list must still name
        it (regression: it used to report 'unfinished units: []')."""
        from repro.compiler.ir import Operation

        config = make_tiny_config(4)
        queues = {"graph.fetch": [Operation(unit="graph.fetch",
                                            wait=("never",))]}
        plan = build_plan(queues, config.dram)
        with pytest.raises(DeadlockError) as excinfo:
            run_plan(plan)
        assert excinfo.value.stuck == ["graph.fetch"]
        assert excinfo.value.cycles == 0
