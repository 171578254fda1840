"""dse-campaign: a GNNBuilder-style design-space campaign.

One seeded evolutionary search (population 16 x 6 generations) over the
``default`` space, evaluated on cora, citeseer and pubmed x gcn, gat
(594 points), through ``DseEngine`` and a ``SweepRunner`` with
``jobs=2`` on the default scheduler:

* **cold** — empty private ``ResultCache`` and ``ProgramStore``;
* **warm** — the same campaign again over the populated result cache,
  where every point is a hit.

This is the only workload where sweep scheduling (``SweepRunner.run``
starts a fresh worker pool per generation) and the result cache matter.
The latency percentiles and ``ops_per_s`` come from a synthetic loop of
warm requests that re-evaluates one candidate (the Table IV design) on
all six workloads: the per-candidate cost of a simulate-only knob,
memo-resident except for a memo miss served from the program store at
serve-mixed's share. It runs first; campaigns then fill the run's
budget (at least ``COLD_CAMPAIGNS``).

A pool campaign runs for seconds while the host's speed swings, so it
is calibrated a generation at a time: the reference is sampled after
every generation's batch (its worker pool has shut down by then), and
each stretch between two samples is rescaled by their mean.

The strategy seed is pinned so the frontier (labels and objective
vectors) must equal a digest in ``pins.json``; the workload seed is
the campaign's parameter seed, which never moves a cycle. The traced
run repeats the campaign inline (``jobs=1``) and through
``FileQueueScheduler``; all three frontiers must be identical.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import time

from repro.compiler.lowering import full_lowering_count
from repro.compiler.store import ProgramStore
from repro.config.accelerator import DramConfig
from repro.config.workload import WorkloadSpec
from repro.dse import SPACE_PRESETS, DseEngine, build_strategy
from repro.eval.harness import Harness
from repro.eval.hostperf import peak_rss_mb
from repro.graph import datasets
from repro.obs.spans import tracing
from repro.sweep import ResultCache, SweepRunner
from repro.sweep.dist import FileQueueScheduler
from repro.sweep.plan import METRIC_DSE, SweepPoint
from repro.sweep.runner import run_point

from common import (
    MEMO_MISS_EVERY,
    PINS,
    Run,
    Samples,
    children_peak_rss_mb,
    cycle_goldens,
    median,
    percentile,
    summed,
)

DATASETS = ("cora", "citeseer", "pubmed")
NETWORKS = ("gcn", "gat")
POPULATION, GENERATIONS = 16, 6
#: Two pool campaigns fit the run's budget even when the host runs at
#: two thirds of its usual speed; a faster host fits a third.
COLD_CAMPAIGNS = 2
WARM_PASSES = 3
SETUP_PROBES = 3
WARM_REQUESTS = 1000


def frontier_digest(result) -> str:
    frontier = [[e.label, list(e.vector())] for e in result.frontier]
    return hashlib.sha256(json.dumps(frontier).encode()).hexdigest()[:16]


class CountingRunner(SweepRunner):
    """A SweepRunner that times (and, traced, spans) each generation's
    batch and, given the host reference, samples it after each one."""

    def __init__(self, tracer, rid: str, reference=None, **kwargs) -> None:
        super().__init__(**kwargs)
        self.tracer, self.rid = tracer, rid
        self.reference = reference
        self.batches: list[float] = []
        #: (raw seconds, local reference) between consecutive samples;
        #: the sampling itself is in none of them.
        self.stretches: list[tuple[float, float]] = []
        self._last: tuple[float, float] | None = None

    def mark(self) -> None:
        """Sample the reference, closing the stretch since the last
        sample."""
        end = time.perf_counter()
        ref = self.reference.sample(1)
        if self._last is not None:
            start, before = self._last
            self.stretches.append((end - start, (before + ref) / 2))
        self._last = (time.perf_counter(), ref)

    def run(self, plan):
        start = time.perf_counter()
        with self.tracer.span("sweep.batch", self.rid):
            result = super().run(plan)
        self.batches.append(time.perf_counter() - start)
        if self.reference is not None:
            self.mark()
        return result


class TimedCache(ResultCache):
    """A ResultCache timing each probe and publish (traced runs)."""

    def __init__(self, root) -> None:
        super().__init__(root)
        self.get_s: list[float] = []
        self.put_s: list[float] = []

    def get(self, key):
        start = time.perf_counter()
        record = super().get(key)
        self.get_s.append(time.perf_counter() - start)
        return record

    def put(self, key, record) -> None:
        start = time.perf_counter()
        super().put(key, record)
        self.put_s.append(time.perf_counter() - start)


class InlineScheduler:
    """SweepRunner's inline (``jobs=1``) path with one span per point."""

    name = "inline"

    def __init__(self, tracer, rid: str) -> None:
        self.tracer, self.rid = tracer, rid
        self.harnesses: dict[int, Harness] = {}

    def run(self, points):
        out = []
        for point in points:
            harness = self.harnesses.get(point.seed)
            if harness is None:
                harness = self.harnesses[point.seed] = Harness(
                    seed=point.seed)
            with self.tracer.span("sweep.point", self.rid):
                out.append(run_point(point, harness))
        return out


class DseCampaign:
    """One run of the workload."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.tracer = run.tracer
        self.pins = PINS["dse"]
        self.workloads = [WorkloadSpec(dataset=d, network=n)
                          for d in DATASETS for n in NETWORKS]
        self.layers: dict[str, float] = {}
        #: Frontier digest per scheduler (traced runs).
        self.digests: dict[str, str] = {}

    def campaign(self, rid: str, cache, jobs: int = 2, scheduler=None):
        """One full search; (seconds, DseResult, runner). A pool
        campaign (no ``scheduler``) is calibrated generation by
        generation: ``summed(runner.stretches)``."""
        strategy = build_strategy("evolutionary", population=POPULATION,
                                  generations=GENERATIONS,
                                  seed=self.pins["strategy_seed"])
        runner = CountingRunner(
            self.tracer, rid, self.run.ref if scheduler is None else None,
            jobs=jobs, cache=cache, scheduler=scheduler)
        engine = DseEngine(SPACE_PRESETS["default"](), strategy,
                           self.workloads, runner, seed=self.run.seed)
        gc.collect()
        if runner.reference is not None:
            runner.mark()
        start = time.perf_counter()
        with self.tracer.span(f"campaign.{rid}", rid):
            result = engine.run()
        elapsed = time.perf_counter() - start
        if runner.reference is not None:
            runner.mark()
            elapsed = summed(runner.stretches)[0]
        digest = frontier_digest(result)
        # Operations are points; a wrong frontier fails the campaign's.
        self.run.attempt_many(
            result.cache_hits + result.cache_misses,
            result.num_errors * len(self.workloads)
            + (digest != self.pins["frontier_digest"]),
            f"campaign {rid}: frontier {digest} (pinned "
            f"{self.pins['frontier_digest']}), {result.num_errors} "
            f"candidate errors")
        return elapsed, result, runner

    def private_caches(self, tag: str):
        """Point the program store at an empty private directory and
        return an empty private result-cache directory."""
        os.environ["REPRO_PROGRAM_CACHE"] = str(
            self.run.work / f"programs-{tag}")
        return self.run.work / f"results-{tag}"

    def drop_private_caches(self, results_dir) -> None:
        shutil.rmtree(results_dir, ignore_errors=True)
        shutil.rmtree(os.environ["REPRO_PROGRAM_CACHE"], ignore_errors=True)
        os.environ["REPRO_PROGRAM_CACHE"] = "off"

    def repetition(self, index: int, traced: bool):
        """A cold pool campaign and its warm passes; (cold seconds, its
        reference, [(warm seconds, reference)])."""
        run = self.run
        self.tracer.enabled = traced
        rid = f"rep{index}"
        results_dir = self.private_caches(rid)
        cache_type = TimedCache if traced else ResultCache
        cache = cache_type(results_dir)
        _, result, runner = self.campaign(rid, cache)
        cold = summed(runner.stretches)
        if traced:
            self.layers["sweep.batch_ms"] = median(runner.batches) * 1e3
            self.layers["sweep.cache_put_ms"] = median(cache.put_s) * 1e3
            self.layers["dse.points"] = (result.cache_hits
                                         + result.cache_misses)
            self.layers["dse.generations"] = len(runner.batches)
        warm = []
        gets: list[float] = []
        for _ in range(WARM_PASSES):
            cache = cache_type(results_dir)
            lowerings = full_lowering_count()
            _, result, runner = self.campaign(f"{rid}-warm", cache)
            lowerings = full_lowering_count() - lowerings
            run.attempt(result.cache_misses == 0 and lowerings == 0,
                        f"warm pass {rid}: {result.cache_misses} misses, "
                        f"{lowerings} full lowerings")
            warm.append(summed(runner.stretches))
            if traced:
                gets.append(median(cache.get_s) * 1e3)
        if traced:
            self.layers["sweep.cache_get_ms"] = median(gets)
        self.drop_private_caches(results_dir)
        self.tracer.enabled = run.trace
        return cold, warm

    def warm_requests(self) -> None:
        """One candidate (the Table IV design) evaluated on every
        campaign workload, in a loop."""
        store = ProgramStore(self.run.work / "store-requests")
        harness = Harness(seed=self.run.seed, program_store=store)
        points = [SweepPoint(dataset=spec.dataset, network=spec.network,
                             metric=METRIC_DSE, seed=self.run.seed,
                             config_overrides=())
                  for spec in self.workloads]
        for point in points:
            run_point(point, harness)  # compiles and writes the store
        goldens = cycle_goldens()

        def request(index: int):
            on = harness if index % MEMO_MISS_EVERY else Harness(
                seed=self.run.seed, program_store=store)
            for point in points:
                result = run_point(point, on)
                cycles = result.metrics.get("cycles")
                golden = goldens[f"{point.dataset}-{point.network}"]
                if not (result.ok and cycles == golden):
                    return False, (f"warm DSE candidate on {point.dataset}-"
                                   f"{point.network}: {result.status} "
                                   f"{cycles} cycles, golden {golden}")
            return True, ""

        self.run.warm_requests(
            request, WARM_REQUESTS if self.run.full else 100, chunk=100)
        shutil.rmtree(store.root, ignore_errors=True)

    def inline_campaign(self) -> float:
        """The campaign at ``jobs=1``, cold, with the program's spans."""
        results_dir = self.private_caches("inline")
        datasets._synthesize.cache_clear()  # the in-process dataset memo
        scheduler = InlineScheduler(self.tracer, "inline")
        lowerings = full_lowering_count()
        with tracing() as repro_tracer:
            elapsed, result, _ = self.campaign(
                "inline", TimedCache(results_dir), jobs=1,
                scheduler=scheduler)
        self.tracer.adopt(repro_tracer, "inline")
        spans = repro_tracer.spans
        layers = self.layers
        layers["compiler.full_lowerings"] = full_lowering_count() - lowerings
        layers["sweep.point_ms"] = percentile(
            self.tracer.durations("sweep.point"), 50) * 1e3
        layers["graph.load_ms"] = sum(s.dur_s for s in spans
                                      if s.name == "load") * 1e3
        layers["compiler.lower_ms"] = sum(s.dur_s for s in spans
                                          if s.name == "lower") * 1e3
        layers["sim.simulate_ms"] = median(s.dur_s for s in spans
                                           if s.name == "simulate") * 1e3
        harness = next(iter(scheduler.harnesses.values()))
        memo = harness.cache_stats()["memo"]
        layers["eval.memo_hit_frac"] = memo["hits"] / max(
            memo["hits"] + memo["misses"], 1)
        layers["sim.build_plan_ms"] = self.build_plan_ms(harness)
        self.drop_private_caches(results_dir)
        self.digests["inline"] = frontier_digest(result)
        return elapsed

    def build_plan_ms(self, harness) -> float:
        """``Program.coalesced_plan`` for a DRAM config no candidate
        used, on the campaign's Table IV programs."""
        unseen = DramConfig(bandwidth_bytes_per_s=197e9)
        timings = []
        for spec in self.workloads:
            program = harness.gnnerator_program(spec)
            start = time.perf_counter()
            program.coalesced_plan(unseen)
            timings.append(time.perf_counter() - start)
        return median(timings) * 1e3

    def filequeue_campaign(self) -> float:
        results_dir = self.private_caches("filequeue")
        fleet = FileQueueScheduler(jobs=2, cache_dir=str(results_dir))
        elapsed, result, _ = self.campaign(
            "filequeue", ResultCache(results_dir), scheduler=fleet)
        self.drop_private_caches(results_dir)
        self.digests["filequeue"] = frontier_digest(result)
        return elapsed


def run(run: Run) -> None:
    bench = DseCampaign(run)
    for name in DATASETS:
        datasets.load_dataset(name)  # untimed; the pool's parent preload
    run.timing("setup_s", run.setup_probes(SETUP_PROBES), "s")
    if run.trace:
        _traced(bench)
        return

    bench.warm_requests()
    cold, warm = Samples(), Samples()
    index, last = 0, 0.0
    while len(cold) < (COLD_CAMPAIGNS if run.full else 1) or (
            time.perf_counter() + last <= run.deadline):
        start = time.perf_counter()
        (cold_s, cold_ref), passes = bench.repetition(index, traced=False)
        last = time.perf_counter() - start
        cold.add(cold_s, cold_ref)
        for warm_s, warm_ref in passes:
            warm.add(warm_s, warm_ref)
        index += 1
    print(f"dse-campaign: {len(cold)} cold campaigns, {len(warm)} "
          f"warm passes")
    run.timing("cold_s", cold, "s")
    run.timing("warm_s", warm, "s")
    run.metric("peak_rss_mb", max(peak_rss_mb(), children_peak_rss_mb()),
               "MB")


def _traced(bench: DseCampaign) -> None:
    """Per-layer run: an untraced and a traced pool campaign, then the
    inline and file-queue campaigns; all frontiers must agree."""
    run = bench.run
    (untraced_pool, _), _ = bench.repetition(0, traced=False)
    (traced_pool, _), _ = bench.repetition(1, traced=True)
    inline_s = bench.inline_campaign()
    filequeue_s = bench.filequeue_campaign()
    run.attempt(len(set(bench.digests.values())) == 1,
                f"frontiers differ across schedulers: {bench.digests}")
    units = {"dse.points": "count", "dse.generations": "count",
             "compiler.full_lowerings": "count",
             "eval.memo_hit_frac": "frac"}
    for name, value in bench.layers.items():
        run.metric(name, value, units.get(name, "ms"))
    run.metric("sweep.overhead_s", untraced_pool - inline_s, "s")
    run.metric("sweep.filequeue_s", filequeue_s, "s")
    run.metric("bench.ref_ms", run.ref.run_median_s * 1e3, "ms")
    run.metric("bench.trace_overhead_frac",
               traced_pool / untraced_pool - 1, "frac")
    print(f"campaign walls: pool {untraced_pool:.2f}s (traced "
          f"{traced_pool:.2f}s), inline {inline_s:.2f}s, filequeue "
          f"{filequeue_s:.2f}s")
    run.print_self_times()
