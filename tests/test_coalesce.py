"""The coalesced replay == the event-driven oracle, cycle for cycle.

The coalesced replay (:mod:`repro.sim.coalesce`) carries a docstring
proof of order-equivalence with the process-based kernel kept under
``tests/oracle/``; these tests are the empirical lock. Every zoo
network over every differential graph shape — blocked and unblocked,
both traversals — must produce *exactly* the same cycle count,
busy-cycle accounting, DRAM traffic and telemetry through both.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.accelerator import GNNerator
from repro.analysis.passes.plan import check_plan_agreement
from repro.compiler.ir import (
    AcquireOp,
    ActivationOp,
    DmaOp,
    GemmOp,
    InitAccumulatorOp,
    PopOp,
    PushOp,
    ReleaseOp,
)
from repro.compiler.lowering import recost
from repro.compiler.program import Program
from repro.config.overrides import apply_overrides
from repro.config.workload import DST_STATIONARY, SRC_STATIONARY
from repro.models.zoo import NETWORK_NAMES, build_network
from repro.obs.hwtel import HwProbe
from repro.sim.coalesce import (
    DeadlockError,
    build_template,
    retime,
    run_plan,
)
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


@pytest.mark.parametrize("network", NETWORK_NAMES)
@pytest.mark.parametrize("graph_case", sorted(GRAPH_CASES))
@pytest.mark.parametrize("feature_block,traversal", [
    (4, DST_STATIONARY), (4, SRC_STATIONARY), (None, DST_STATIONARY)])
def test_retimed_plans_agree_with_the_derivation(network, graph_case,
                                                 feature_block, traversal):
    """The plan-agreement pass re-derives every chain op by op from the
    queues and cost lists; each re-timed plan must match it — chains,
    busy sums, ``seq_bits`` and token count — for the compiling costs
    and for a re-cost, under two more DRAM configs (one with zero burst
    latency, which drops the latency sleeps from the timed count)."""
    model = build_network(network, FEATURE_DIM, NUM_CLASSES, hidden_dim=8)
    config = make_tiny_config(feature_block)
    program = GNNerator(config).compile(
        GRAPH_CASES[graph_case](), model, traversal=traversal,
        feature_block=feature_block)
    variant = apply_overrides(config, {"graph.num_gpes": 2,
                                       "graph.simd_width": 8,
                                       "graph.pipeline_depth": 7,
                                       "dense.cols": 4})
    drams = (config.dram,
             dataclasses.replace(config.dram, burst_latency_cycles=0),
             dataclasses.replace(config.dram, bandwidth_bytes_per_s=23e9))
    for costed, base in ((program, config),
                         (recost(program, variant), variant)):
        for dram in drams:
            result = check_plan_agreement(
                costed, dataclasses.replace(base, dram=dram))
            assert result.ok, result.failures


def _hand_built_program(costs: dict[str, list[int]]) -> Program:
    """Two graph-compute ops behind a buffer handoff, the second
    signalling the dense engine's GEMM, then an activation and a store."""
    program = Program(graph_name="hand-built",
                      model=build_network("gcn", 4, 2), traversal="dst",
                      feature_block=4, num_nodes=8, costs=costs)
    program.emit(AcquireOp(unit="graph.fetch", channel="graph"))
    program.emit(DmaOp(unit="graph.fetch", direction="load",
                       num_bytes=512, array="x", rows=(0, 8), dims=(0, 4),
                       purpose="src-features"))
    program.emit(PushOp(unit="graph.fetch", channel="graph"))
    program.emit(PopOp(unit="graph.compute", channel="graph"))
    for signal in ((), ("acc-ready",)):
        program.emit(InitAccumulatorOp(
            unit="graph.compute", layer=0, stage=0, rows=(0, 8),
            dims=(0, 4), acc_array="a", src_array="x", mode="zero",
            signal=signal))
    program.emit(ReleaseOp(unit="graph.compute", channel="graph"))
    program.emit(GemmOp(unit="dense.compute", layer=0, stage=1,
                        rows=(0, 8), src_array="a", src_dims=(0, 4),
                        weight_rows=(0, 4), out_array="o",
                        accumulate=False, m=8, k=4, n=2,
                        wait=("acc-ready",)))
    program.emit(ActivationOp(unit="dense.compute", layer=0, stage=1,
                              rows=(0, 8), out_array="o",
                              activation="relu", has_bias=False,
                              signal=("out-ready",)))
    program.emit(DmaOp(unit="dense.store", direction="store",
                       num_bytes=64, array="o", rows=(0, 8), dims=(0, 2),
                       purpose="output", wait=("out-ready",)))
    return program


@pytest.mark.parametrize("costs", [
    {"graph.compute": [0, 0], "dense.compute": [0, 0]},
    {"graph.compute": [5, 0], "dense.compute": [0, 3]},
    {"graph.compute": [0, 9], "dense.compute": [4, 0]},
], ids=["all-zero", "zero-before-signal", "zero-after-wait"])
def test_zero_cycle_compute_op_replays_like_the_oracle(costs):
    """A compute op costing zero cycles keeps its template slot as a
    NOP: the replay steps over it as the oracle skips its timeout, with
    the same cycles, accounting and all four probe streams — also when
    the NOP is the last action before a token signal another unit
    waits on, or the first after a token wait."""
    config = make_tiny_config(4)
    program = _hand_built_program(costs)
    accelerator = GNNerator(config)
    fast_probe, slow_probe = HwProbe(), HwProbe()
    fast = accelerator.simulate(program, probe=fast_probe)
    slow = simulate_event(program, config, probe=slow_probe)
    assert fast == slow
    for stream in PROBE_STREAMS:
        assert sorted(getattr(fast_probe, stream)) == \
            sorted(getattr(slow_probe, stream)), stream
    assert check_plan_agreement(program, config).ok


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
        plan = retime(build_template(program.queues), program.costs,
                      config.dram)
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
        plan = retime(build_template(queues), {}, config.dram)
        with pytest.raises(DeadlockError) as excinfo:
            run_plan(plan)
        assert excinfo.value.stuck == ["graph.fetch"]
        assert excinfo.value.cycles == 0
