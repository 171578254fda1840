"""Mutation tests for the repro.analysis verifier pipeline.

Each test breaks one invariant of a freshly compiled program and
asserts that exactly the responsible pass reports it, naming the op —
the machine-checked version of "each pass actually catches the bug
class it claims to".
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.passes.validation import validate_program
from repro.analysis.verify import VerificationError, verify_program
from repro.compiler.ir import (
    UNITS,
    AcquireOp,
    DmaOp,
    PopOp,
    PushOp,
    ReleaseOp,
    ShardAggregateOp,
)
from repro.compiler.lowering import compile_workload, recost, verify_enabled
from repro.compiler.program import Program
from repro.config.overrides import apply_overrides
from repro.graph.generators import erdos_renyi
from repro.models.zoo import build_network
from tests.conftest import make_tiny_config


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 300, feature_dim=20, seed=5)


@pytest.fixture(scope="module")
def gcn():
    return build_network("gcn", 20, 5)


@pytest.fixture()
def compiled(graph, gcn):
    config = make_tiny_config(8)
    return compile_workload(graph, gcn, config), config


def failing(report, name):
    """The named pass's failure text; asserts it is the one failing."""
    result = report.result(name)
    assert not result.ok, f"expected pass {name} to fail"
    return "\n".join(result.failures)


class TestCleanProgram:
    def test_all_passes_green(self, compiled):
        program, config = compiled
        report = verify_program(program, config, workload="tiny-gcn")
        assert report.ok
        assert report.failures == []
        # Green must not be vacuous: every pass saw real work.
        assert report.result("edge-coverage").counts["aggregate_ops"] > 0
        assert report.result("dma-conservation").counts["memory_ops"] > 0
        assert report.result("token-liveness").counts["tokens"] > 0
        assert report.result("schedulability").counts["retired_ops"] > 0
        assert report.result("plan-agreement").counts["chain_actions"] > 0

    def test_describe_and_json_roundtrip(self, compiled):
        program, config = compiled
        report = verify_program(program, config, workload="w")
        assert "w: ok" in report.describe()
        payload = report.to_dict()
        assert payload["status"] == "ok"
        assert [p["name"] for p in payload["passes"]] == [
            "edge-coverage", "dma-conservation", "channel-protocol",
            "token-liveness", "schedulability", "plan-agreement"]


class TestEdgeCoverage:
    def test_catches_wrong_edge_count(self, compiled):
        program, config = compiled
        op = next(op for op in program.order
                  if isinstance(op, ShardAggregateOp))
        op.num_edges += 1
        text = failing(verify_program(program, config), "edge-coverage")
        assert str(op.shard) in text and "grid says" in text

    def test_catches_dropped_shard(self, compiled):
        program, config = compiled
        op = next(op for op in program.order
                  if isinstance(op, ShardAggregateOp))
        program.order.remove(op)
        program.queues[op.unit].remove(op)
        text = failing(verify_program(program, config), "edge-coverage")
        assert "never aggregated" in text

    def test_catches_duplicated_aggregate(self, compiled):
        program, config = compiled
        op = next(op for op in program.order
                  if isinstance(op, ShardAggregateOp))
        program.order.append(op)
        program.queues[op.unit].append(op)
        text = failing(verify_program(program, config), "edge-coverage")
        assert "aggregated 2 times" in text


class TestDmaConservation:
    def test_catches_byte_drift(self, compiled):
        program, config = compiled
        op = next(op for op in program.order if isinstance(op, DmaOp))
        op.num_bytes += 64
        text = failing(verify_program(program, config),
                       "dma-conservation")
        assert "disagrees" in text

    def test_catches_corrupt_plan_counters(self, compiled):
        program, config = compiled
        plan = program.coalesced_plan(config.dram)
        unit = next(u for u, t in plan.dram_traffic.items() if t[0])
        reads, writes, read_tx, write_tx = plan.dram_traffic[unit]
        plan.dram_traffic[unit] = (reads + 1, writes, read_tx, write_tx)
        text = failing(verify_program(program, config),
                       "dma-conservation")
        assert unit in text


class TestChannelProtocol:
    def test_catches_leaked_credit(self, compiled):
        program, config = compiled
        op = next(op for op in program.order
                  if isinstance(op, ReleaseOp))
        program.order.remove(op)
        program.queues[op.unit].remove(op)
        text = failing(verify_program(program, config),
                       "channel-protocol")
        assert "Acquire" in text and "Release" in text

    def test_catches_double_acquire(self, compiled):
        program, config = compiled
        queue = next(q for q in program.queues.values()
                     if any(isinstance(op, AcquireOp) for op in q))
        index, op = next((i, op) for i, op in enumerate(queue)
                         if isinstance(op, AcquireOp))
        queue.insert(index, op)
        program.order.append(op)
        text = failing(verify_program(program, config),
                       "channel-protocol")
        assert "already holding" in text

    def test_catches_pop_release_inversion(self, compiled):
        program, config = compiled
        queue = next(q for q in program.queues.values()
                     if any(isinstance(op, PopOp) for op in q))
        index = next(i for i, op in enumerate(queue)
                     if isinstance(op, PopOp))
        jndex = next(i for i, op in enumerate(queue)
                     if isinstance(op, ReleaseOp))
        queue[index], queue[jndex] = queue[jndex], queue[index]
        text = failing(verify_program(program, config),
                       "channel-protocol")
        assert "without a preceding Pop" in text


class TestTokenLiveness:
    def test_catches_unsignalled_wait(self, compiled):
        program, config = compiled
        program.queues["graph.fetch"][0].add_wait("bogus-token")
        text = failing(verify_program(program, config),
                       "token-liveness")
        assert "bogus-token" in text

    def test_catches_double_signal(self, compiled):
        program, config = compiled
        signaller = next(op for op in program.order if op.signal)
        other = next(op for op in program.order
                     if op is not signaller)
        other.add_signal(signaller.signal[0])
        text = failing(verify_program(program, config),
                       "token-liveness")
        assert "one-shot" in text


class TestSchedulability:
    def test_catches_credit_deadlock(self, compiled):
        program, config = compiled
        releases = [op for op in program.order
                    if isinstance(op, ReleaseOp)
                    and op.channel == "graph"][:2]
        assert len(releases) == 2
        for op in releases:
            program.order.remove(op)
            program.queues[op.unit].remove(op)
        text = failing(verify_program(program, config),
                       "schedulability")
        assert "deadlock" in text

    def test_validate_program_collects_without_raising(self, compiled):
        program, config = compiled
        program.queues["graph.fetch"][0].add_wait("bogus-token")
        report = validate_program(program, raise_on_failure=False)
        assert not report.ok
        assert any("bogus-token" in failure
                   for failure in report.failures)
        # Liveness failures stop abstract scheduling: the scheduler
        # would only re-report the same root cause as a deadlock.
        assert report.retired_ops == 0

    def test_pop_before_push_deadlocks(self):
        program = Program(graph_name="hand", model=None, traversal="dst",
                          feature_block=None, num_nodes=0)
        program.emit(PopOp(unit="graph.compute", channel="graph"))
        program.emit(AcquireOp(unit="graph.fetch", channel="graph"))
        program.emit(PushOp(unit="graph.fetch", channel="graph"))
        # The consumer's second Pop has no matching Push: its head can
        # never retire once the single descriptor is consumed.
        program.emit(ReleaseOp(unit="graph.compute", channel="graph"))
        program.emit(PopOp(unit="graph.compute", channel="graph"))
        report = validate_program(program, raise_on_failure=False)
        assert not report.ok
        assert any("deadlock" in failure for failure in report.failures)


class TestPlanAgreement:
    def test_catches_corrupt_action(self, compiled):
        program, config = compiled
        plan = program.coalesced_plan(config.dram)
        chain = next(c for c in plan.unit_actions if len(c) > 1)
        chain[0] += 1 << 4  # bump the packed arg, keep the kind
        text = failing(verify_program(program, config),
                       "plan-agreement")
        assert "chain[0]" in text

    def test_catches_token_table_drift(self, compiled):
        program, config = compiled
        plan = program.coalesced_plan(config.dram)
        plan.num_tokens += 1
        text = failing(verify_program(program, config),
                       "plan-agreement")
        assert "interned" in text

    def test_catches_busy_cycle_drift(self, compiled):
        program, config = compiled
        plan = program.coalesced_plan(config.dram)
        unit = next(u for u, c in plan.unit_busy_cycles.items() if c)
        plan.unit_busy_cycles[unit] += 1
        text = failing(verify_program(program, config),
                       "plan-agreement")
        assert "busy" in text and unit in text


    @pytest.mark.parametrize("slot,unit", [
        ("compute", "graph.compute"), ("compute", "dense.compute"),
        ("occupancy", "graph.fetch"), ("latency", "dense.store")])
    def test_catches_a_corrupt_retimed_slot(self, compiled, slot, unit):
        """A re-cost's plan is its structure's template with one
        design's slots written; one cycle off in any slot fails."""
        program, config = compiled
        variant = apply_overrides(config, {"graph.num_gpes": 2,
                                           "graph.simd_width": 8,
                                           "dense.cols": 4})
        recosted = recost(program, variant)
        plan = recosted.coalesced_plan(variant.dram)
        template = recosted.plan_template()
        index = UNITS.index(unit)
        if slot == "compute":
            at = template.compute_slots[index][0]
        else:
            at = template.burst_slots[index][0] + (slot == "latency")
        plan.unit_actions[index][at] += 1 << 4  # one cycle more
        text = failing(verify_program(recosted, variant), "plan-agreement")
        assert f"{unit}: chain[{at}]" in text


class TestDriver:
    def test_raise_on_failure(self, compiled):
        program, config = compiled
        program.queues["graph.fetch"][0].add_wait("bogus-token")
        with pytest.raises(VerificationError, match="bogus-token"):
            verify_program(program, config, workload="broken",
                           raise_on_failure=True)
        try:
            verify_program(program, config, raise_on_failure=True)
        except VerificationError as exc:
            assert not exc.report.ok
            assert exc.report.result("token-liveness").failures

    def test_verify_enabled_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "0")
        assert not verify_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "")
        assert not verify_enabled()
        monkeypatch.setenv("REPRO_VERIFY", "1")
        assert verify_enabled()
        monkeypatch.delenv("REPRO_VERIFY")
        assert not verify_enabled()

    def test_a_compile_with_the_hook_off_imports_no_analysis(self,
                                                            tmp_path):
        """The compile reads ``REPRO_VERIFY`` before importing the
        verifier: with it unset, no ``repro.analysis`` module loads."""
        env = {name: value for name, value in os.environ.items()
               if name != "REPRO_VERIFY"}
        env.update(REPRO_PROGRAM_CACHE="off", REPRO_DATASET_CACHE="off",
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        code = ("import sys\n"
                "from repro.config.workload import WorkloadSpec\n"
                "from repro.eval.harness import Harness\n"
                "Harness().gnnerator_program("
                "WorkloadSpec(dataset='tiny', network='gcn'))\n"
                "print(sorted(name for name in sys.modules\n"
                "             if name.startswith('repro.analysis')))\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             cwd=tmp_path, capture_output=True, text=True,
                             timeout=120, check=True)
        assert out.stdout.strip() == "[]"

    def test_compile_hook_fires(self, graph, gcn, monkeypatch):
        """REPRO_VERIFY makes compile_workload itself verify."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        calls = []
        import repro.analysis.verify as verify_mod
        real = verify_mod.verify_program
        monkeypatch.setattr(
            verify_mod, "verify_program",
            lambda *args, **kwargs: (calls.append(args),
                                     real(*args, **kwargs))[1])
        compile_workload(graph, gcn, make_tiny_config(8))
        assert calls
