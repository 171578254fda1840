"""Map once, re-cost per design: the structure/cost split of lowering.

A workload's op structure is a function of its :class:`Geometry`; the
compute knobs move only the cost fields. These tests pin the contract
that lets ``Harness._compiled`` serve a cost-only variant by re-costing
a memoized program instead of lowering it:

* re-costing a program to any config of the same geometry equals a
  fresh ``compile_workload`` under that config, op for op and cost
  list for cost list;
* a re-cost shares its structure's ops and plan template, never
  mutates them, and is never written to the program store;
* concurrent cost variants of one structure lower it once;
* a failing compile leaves no per-key lock behind.
"""

from __future__ import annotations

import dataclasses
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.accelerator import GNNerator
from repro.compiler.ir import CompileError
from repro.compiler.lowering import (
    compile_workload,
    full_lowering_count,
    recost,
    resolve_geometry,
)
from repro.compiler.store import ProgramStore
from repro.config.accelerator import KIB, MIB, ConfigError
from repro.config.overrides import apply_overrides
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.dse.space import default_design_space
from repro.eval import energy
from repro.eval.harness import Harness
from repro.graph import datasets as dataset_registry
from tests.conftest import energy_oracle

#: The default DSE space's ladders, plus the buffers and compute knobs
#: it leaves fixed; the small weight/input/output budgets make the
#: clamps and sub-slicing bite on cora and pubmed.
LADDERS = {knob.path: knob.values
           for knob in default_design_space().knobs}
LADDERS.update({
    "dense.weight_buffer_bytes": (16 * KIB, 1 * MIB, 2 * MIB, 4 * MIB),
    "dense.input_buffer_bytes": (256 * KIB, 2 * MIB, 4 * MIB),
    "dense.output_buffer_bytes": (64 * KIB, 2 * MIB, 4 * MIB),
    "graph.pipeline_depth": (2, 4, 8),
})
DATAFLOWS = ("ws", "os", "auto")

WORKLOADS = [WorkloadSpec(dataset=dataset, network=network)
             for dataset in ("cora", "pubmed")
             for network in ("gcn", "gat", "graphsage")]


#: Axes the cost pass reads (``dense.rows`` also aligns input rows).
COST_AXES = ("dense.rows", "dense.cols", "graph.num_gpes",
             "graph.simd_width", "graph.pipeline_depth",
             "dram.bandwidth_bytes_per_s")


def _design(rng: random.Random, base=None):
    """A random design as ``(overrides, dataflow, sparsity)``. With
    ``base``, a neighbour: each cost axis (and the dataflow) redrawn
    with probability 0.7, every other axis with probability 0.15."""
    def redraw(path: str) -> bool:
        return base is None or rng.random() < (
            0.7 if path in COST_AXES or path == "dataflow" else 0.15)

    overrides, dataflow, sparsity = base or ({}, "auto", False)
    overrides = {path: rng.choice(values) if redraw(path)
                 else overrides[path]
                 for path, values in LADDERS.items()}
    if redraw("dataflow"):
        dataflow = rng.choice(DATAFLOWS)
    if redraw("sparsity"):
        sparsity = rng.random() < 0.3
    return overrides, dataflow, sparsity


def _config(design):
    overrides, dataflow, sparsity = design
    config = apply_overrides(gnnerator_config(), overrides)
    return dataclasses.replace(
        config, sparsity_elimination=sparsity,
        dense=dataclasses.replace(config.dense, dataflow=dataflow))


def assert_same_program(actual, expected) -> None:
    assert actual.order == expected.order
    assert actual.queues == expected.queues
    assert actual.costs == expected.costs
    assert {key: grid.interval_size for key, grid in actual.grids.items()} \
        == {key: grid.interval_size
            for key, grid in expected.grids.items()}
    assert actual.plans == expected.plans
    assert actual.arrays == expected.arrays
    assert actual.output_array == expected.output_array
    assert actual.dram_bytes_by_purpose() \
        == expected.dram_bytes_by_purpose()


@pytest.mark.parametrize("spec", WORKLOADS, ids=lambda s: s.label)
def test_recost_equals_fresh_compile_within_a_geometry(spec):
    """Pairs of neighbouring random designs: whenever the two share a
    geometry, re-costing the first program to the second config equals
    compiling the second from scratch."""
    harness = Harness(program_store=None)
    graph, model = harness.graph(spec.dataset), harness.model(spec)
    rng = random.Random(f"recost-{spec.label}")
    shared = 0
    for _ in range(24):
        first = _design(rng)
        second = _design(rng, base=first)
        try:
            config_a, config_b = _config(first), _config(second)
            geometry = resolve_geometry(graph, model, config_a)
        except (ConfigError, CompileError):
            continue  # a degenerate design: nothing to lower
        try:
            same = geometry == resolve_geometry(graph, model, config_b)
        except (ConfigError, CompileError):
            continue
        if not same:
            continue
        shared += 1
        structure = compile_workload(graph, model, config_a)
        before = [(op, dict(vars(op))) for op in structure.order]
        costs = {unit: list(cycles)
                 for unit, cycles in structure.costs.items()}
        recosted = recost(structure, config_b)
        assert_same_program(recosted, compile_workload(graph, model,
                                                       config_b))
        # The structure is shared, not copied, and untouched.
        assert recosted.order is structure.order
        assert recosted.queues is structure.queues
        assert recosted.plan_template() is structure.plan_template()
        assert all(vars(op) == state for op, state in before)
        assert structure.costs == costs
    assert shared >= 3, f"only {shared} pairs shared a geometry"


def test_store_hit_then_cost_variant_lowers_nothing(tmp_path):
    """A program loaded from the store seeds the structure memo: a
    cost-only variant re-costs it, and the re-cost is never stored."""
    spec = WorkloadSpec(dataset="cora", network="gcn")
    store = ProgramStore(tmp_path, code_version="v1")
    base = gnnerator_config()
    Harness(program_store=store).gnnerator_program(spec, base)
    assert len(store) == 1

    dataset_registry._synthesize.cache_clear()  # a brand-new process
    harness = Harness(program_store=store)
    harness.gnnerator_program(spec, base)
    assert harness.last_compile_tier() == "store"
    variant = apply_overrides(base, {"graph.num_gpes": 16,
                                     "dense.rows": 128})
    before = full_lowering_count()
    program = harness.gnnerator_program(spec, variant)
    assert full_lowering_count() == before
    assert harness.last_compile_tier() == "recost"
    assert harness.cache_stats()["structure"] == {"hits": 1, "misses": 0}
    assert len(store) == 1  # the re-cost was not published
    assert_same_program(program, compile_workload(
        harness.graph(spec.dataset), harness.model(spec), variant))


def test_recosts_of_a_stored_structure_share_its_energy_terms(
        tmp_path, monkeypatch):
    """The energy model's op loop runs once per structure: the lowering
    fills the terms before publishing, the stored entry carries them,
    and eight re-costs of the loaded structure share them — each still
    equal to the per-op loop (``energy_oracle``)."""
    spec = WorkloadSpec(dataset="cora", network="gat")
    store = ProgramStore(tmp_path, code_version="v1")
    base = gnnerator_config()
    walked = []
    op_macs = energy._op_macs
    monkeypatch.setattr(energy, "_op_macs",
                        lambda op: walked.append(op) or op_macs(op))
    structure = Harness(program_store=store).gnnerator_program(spec, base)

    dataset_registry._synthesize.cache_clear()  # a brand-new process
    harness = Harness(program_store=store)
    before = full_lowering_count()
    runs = []
    for gpes in (8, 16, 32, 64):
        for simd in (16, 64):
            config = apply_overrides(base, {"graph.num_gpes": gpes,
                                            "graph.simd_width": simd})
            program = harness.gnnerator_program(spec, config)
            result = GNNerator(config).simulate(program)
            runs.append((program, result,
                         energy.estimate_energy(program, result)))
    assert full_lowering_count() == before
    assert harness.cache_stats()["store"]["structure_hits"] == 1
    assert len(walked) == len(structure.order)  # one loop, at lowering
    monkeypatch.undo()
    for program, result, report in runs:
        assert report == energy_oracle(program, result)


def test_concurrent_cost_variants_lower_once():
    """Eight threads ask for eight cost variants of one structure at
    once: one lowering, seven re-costs, every result exact."""
    spec = WorkloadSpec(dataset="cora", network="gat")
    harness = Harness(program_store=None)
    configs = [apply_overrides(gnnerator_config(), {
        "graph.num_gpes": gpes, "graph.simd_width": simd})
        for gpes in (8, 16, 32, 64) for simd in (16, 32)]
    barrier = threading.Barrier(len(configs))

    def compile_one(config):
        barrier.wait(10.0)
        return harness.gnnerator_program(spec, config)

    before = full_lowering_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads finely
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            programs = list(pool.map(compile_one, configs))
    finally:
        sys.setswitchinterval(interval)
    assert full_lowering_count() - before == 1
    assert harness.cache_stats()["structure"] == {
        "hits": len(configs) - 1, "misses": 1}
    graph, model = harness.graph(spec.dataset), harness.model(spec)
    for program, config in zip(programs, configs):
        assert_same_program(program,
                            compile_workload(graph, model, config))


def test_failed_compile_leaves_no_lock_behind():
    """A candidate that cannot compile must not leak its per-key lock:
    a long-lived daemon or DSE worker would keep one per failure."""
    harness = Harness(program_store=None)
    config = apply_overrides(
        gnnerator_config(), {"dense.weight_buffer_bytes": 64})
    spec = WorkloadSpec(dataset="tiny", network="gcn")
    with pytest.raises(CompileError, match="weight buffer"):
        harness.gnnerator_program(spec, config)
    assert harness._compile_locks == {}
    assert harness._structure_locks == {}
    # The harness still compiles after the failure.
    assert harness.gnnerator_program(spec).num_operations > 0
