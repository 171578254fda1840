"""compile-pipeline: what ``repro run`` costs a researcher.

Each repetition runs flickr-gat, flickr-gcn, pubmed-gat and pubmed-gcn
(in a seeded order) twice:

* **cold** — the in-process dataset memo cleared, a fresh ``Harness``
  compiling against an empty private ``ProgramStore`` (which writes the
  entry), then ``GNNerator.simulate``;
* **warm** — the same on a fresh ``Harness`` over the populated store,
  so the compile is a store read.

GCN and GAT rows separate the attention path (the compiler's shadow
reference execution) from shard planning, which dominates flickr-gcn.
The latency percentiles and ``ops_per_s`` come from a synthetic loop of
warm requests that re-runs the memo-resident flickr-gcn program (the
in-process counterpart of a warm ``repro serve`` request), with a memo
miss served from the program store at serve-mixed's share. It runs
first; repetitions then fill the run's budget. Each pass is calibrated
row by row.

Every simulation's cycles must equal the committed goldens, and a warm
path must run zero full lowerings.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import shutil
import time
from contextlib import nullcontext

from repro.accelerator import GNNerator
from repro.compiler.lowering import full_lowering_count
from repro.compiler.store import ProgramStore
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.eval.hostperf import peak_rss_mb
from repro.graph import datasets
from repro.graph.partition import plan_shards
from repro.models.stages import AggregateStage
from repro.obs.spans import tracing

from common import (
    MEMO_MISS_EVERY,
    Run,
    Samples,
    children_peak_rss_mb,
    cycle_goldens,
    median,
    summed,
)

ROWS = (("flickr", "gat"), ("flickr", "gcn"), ("pubmed", "gat"),
        ("pubmed", "gcn"))
WARM_REQUEST_ROW = ("flickr", "gcn")
SETUP_PROBES = 7
#: At least ten samples beyond p99.
WARM_REQUESTS = 3000


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run(run: Run) -> None:
    tracer = run.tracer
    goldens = cycle_goldens()
    specs = {f"{d}-{n}": WorkloadSpec(dataset=d, network=n)
             for d, n in ROWS}
    for name in sorted({d for d, _ in ROWS}):
        datasets.load_dataset(name)  # untimed: synthesize once
    rng = random.Random(f"compile-pipeline:{run.seed}")

    run.timing("setup_s", run.setup_probes(SETUP_PROBES), "s")
    label = "-".join(WARM_REQUEST_ROW)
    _warm_requests(run, specs[label], goldens[label])

    layers: dict[str, list[float]] = {}

    def layer(name: str, value: float) -> None:
        layers.setdefault(name, []).append(value)

    def row(label: str, store, phase: str, rid: str, traced: bool):
        """One load -> compile -> simulate; returns (seconds, program)."""
        spec = specs[label]
        config = gnnerator_config(feature_block=spec.feature_block)
        datasets._synthesize.cache_clear()  # the in-process dataset memo
        gc.collect()  # drop the previous row's graph and programs now
        harness = Harness(seed=run.seed, program_store=store)
        lowerings = full_lowering_count()
        start = time.perf_counter()
        with tracer.span(f"{phase}.{label}", rid):
            with tracer.span("graph.load", rid):
                t0 = time.perf_counter()
                graph = harness.graph(spec.dataset)
                load_s = time.perf_counter() - t0
            plan_s = 0.0
            if traced and phase == "cold":
                # The compiler's own plan_shards calls, made first: the
                # grids memoize on the graph, so compile then reuses them.
                with tracer.span("graph.plan_shards", rid):
                    t0 = time.perf_counter()
                    for layer_ in harness.model(spec).layers:
                        for stage in layer_.stages:
                            if isinstance(stage, AggregateStage):
                                block = (stage.dim if spec.feature_block
                                         is None else min(
                                             spec.feature_block, stage.dim))
                                plan_shards(graph, config.graph, block)
                    plan_s = time.perf_counter() - t0
            with tracer.span("compiler.gnnerator_program", rid):
                t0 = time.perf_counter()
                program = harness.gnnerator_program(spec)
                compile_s = time.perf_counter() - t0
            with tracer.span("sim.simulate", rid):
                t0 = time.perf_counter()
                result = GNNerator(config).simulate(program)
                simulate_s = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        lowerings = full_lowering_count() - lowerings
        run.attempt(result.cycles == goldens[label],
                    f"{phase} {label}: {result.cycles} cycles, golden "
                    f"{goldens[label]}")
        run.attempt(phase == "cold" or lowerings == 0,
                    f"warm {label}: {lowerings} full lowerings (want 0)")
        if traced:
            kind = "compile_ms" if phase == "cold" else "store_get_ms"
            layer(f"compiler.{kind}.{label}", compile_s * 1e3)
            layer(f"{phase}.load", load_s)
            layer(f"{phase}.plan", plan_s)
            layer(f"{phase}.simulate", simulate_s)
            layer(f"{phase}.lowerings", lowerings)
        return elapsed, program, config

    def repetition(index: int, traced: bool):
        """The cold then the warm pass over the rows in a seeded order;
        each pass a (seconds, reference) pair, calibrated row by row."""
        rid = f"rep{index}"
        order = rng.sample(sorted(specs), len(specs))
        store_dir = run.work / f"store-{index}"
        tracer.enabled = traced
        passes = {"cold": [], "warm": []}
        ref = run.ref.sample(1)
        with tracing() if traced else nullcontext() as repro_tracer:
            for phase, parts in passes.items():
                store = ProgramStore(store_dir)
                for label in order:
                    size = _dir_bytes(store_dir) if traced else 0
                    elapsed, program, config = row(label, store, phase, rid,
                                                   traced)
                    after = run.ref.sample(1)
                    parts.append((elapsed, (ref + after) / 2))
                    ref = after
                    if traced and phase == "cold":
                        layer(f"compiler.store_entry_mb.{label}",
                              (_dir_bytes(store_dir) - size) / 1e6)
                        unseen = dataclasses.replace(
                            config.dram,
                            bandwidth_bytes_per_s=(
                                config.dram.bandwidth_bytes_per_s * 1.37))
                        with tracer.span("sim.build_plan", rid):
                            t0 = time.perf_counter()
                            program.coalesced_plan(unseen)
                            layer("cold.build_plan",
                                  time.perf_counter() - t0)
        tracer.enabled = run.trace
        if traced:
            tracer.adopt(repro_tracer, rid)
            lower = sum(s.dur_s for s in repro_tracer.spans
                        if s.name == "lower")
            layer("compiler.lower_ms", lower * 1e3)
        shutil.rmtree(store_dir, ignore_errors=True)
        return summed(passes["cold"]), summed(passes["warm"])

    # Discarded warm-up: first-touch page faults and lazy imports.
    repetition(0, traced=False)
    cold, warm = Samples(), Samples()
    untraced_cold: list[float] = []
    traced_cold: list[float] = []
    index, last = 1, None
    while True:
        enough = len(cold) >= (3 if run.full else 1) and (
            traced_cold or not run.trace)
        if enough and time.perf_counter() + last > run.deadline:
            break
        traced = run.trace and index % 2 == 0
        start = time.perf_counter()
        (cold_s, cold_ref), (warm_s, warm_ref) = repetition(index, traced)
        last = time.perf_counter() - start
        (traced_cold if traced else untraced_cold).append(cold_s)
        if not traced:
            cold.add(cold_s, cold_ref)
            warm.add(warm_s, warm_ref)
        index += 1
    print(f"compile-pipeline: {len(cold)} untraced repetitions"
          + (f", {len(traced_cold)} traced" if run.trace else ""))
    run.timing("cold_s", cold, "s")
    run.timing("warm_s", warm, "s")
    run.metric("peak_rss_mb", max(peak_rss_mb(), children_peak_rss_mb()),
               "MB")

    if run.trace:
        _report_layers(run, layers, traced_cold, untraced_cold)


def _warm_requests(run: Run, spec: WorkloadSpec, golden: int) -> None:
    """The memo-resident program re-run in a loop, with the occasional
    memo miss served from the program store."""
    store = ProgramStore(run.work / "store-requests")
    harness = Harness(seed=run.seed, program_store=store)
    harness.gnnerator_result(spec)  # compiles and writes the store

    def warm_request(index: int):
        on = harness if index % MEMO_MISS_EVERY else Harness(
            seed=run.seed, program_store=store)
        cycles = on.gnnerator_result(spec).cycles
        return (cycles == golden,
                f"warm request {spec.label}: {cycles} cycles")

    run.warm_requests(warm_request, WARM_REQUESTS if run.full else 100)
    shutil.rmtree(store.root, ignore_errors=True)


def _report_layers(run: Run, layers: dict, traced_cold: list,
                   untraced_cold: list) -> None:
    for name, values in sorted(layers.items()):
        if name.startswith("compiler."):
            unit = "MB" if "store_entry_mb" in name else "ms"
            run.metric(name, median(values), unit)
    per_rep = len(ROWS)

    def per_repetition(key: str, scale: float = 1e3) -> float:
        """Median over traced repetitions of the four rows' sum."""
        values = layers[key]
        return median(sum(values[i:i + per_rep]) * scale
                      for i in range(0, len(values), per_rep))

    run.metric("graph.load_ms", per_repetition("cold.load"), "ms")
    run.metric("graph.plan_shards_ms", per_repetition("cold.plan"), "ms")
    run.metric("sim.simulate_ms", per_repetition("cold.simulate"), "ms")
    run.metric("sim.build_plan_ms", per_repetition("cold.build_plan"), "ms")
    run.metric("compiler.full_lowerings",
               per_repetition("cold.lowerings", scale=1), "count")
    run.metric("bench.ref_ms", run.ref.run_median_s * 1e3, "ms")
    if traced_cold and untraced_cold:
        run.metric("bench.trace_overhead_frac",
                   median(traced_cold) / median(untraced_cold) - 1,
                   "frac")
    run.print_self_times()
