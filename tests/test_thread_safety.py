"""Hammer tests for the memos the serve daemon shares across request
threads: the Harness compiled-program memo, the per-harness dataset
cache, the per-graph shard-grid memo and the stores' read counts.

The invariants under concurrency:

* N identical requests → exactly ONE full lowering (the per-key
  compile lock), and everyone gets the *same* Program object.
* N distinct requests → one lowering each, all running in parallel.
* Graph/params objects stay unique per key — the shard-grid memo
  hangs off the Graph object, so a duplicate graph would silently
  duplicate shard planning.
* Cycles are bit-identical to a serial run: locking is a host-side
  change and must never move modeled time.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.compiler.lowering import full_lowering_count
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.sweep.cache import DatasetCache

HAMMER_THREADS = 12


def _hammer(fn, n: int = HAMMER_THREADS) -> list:
    """Run ``fn(i)`` on n threads through a start barrier, so every
    thread hits the guarded section at the same instant."""
    barrier = threading.Barrier(n)
    results: list = [None] * n
    errors: list = []

    def runner(i: int) -> None:
        try:
            barrier.wait(10.0)
            results[i] = fn(i)
        except BaseException as exc:  # surfaced below, with index
            errors.append((i, exc))

    with ThreadPoolExecutor(max_workers=n) as pool:
        list(pool.map(runner, range(n)))
    assert not errors, f"hammer threads failed: {errors}"
    return results


class TestHarnessCompileHammer:
    def test_identical_requests_lower_once(self):
        harness = Harness(program_store=None)
        spec = WorkloadSpec(dataset="tiny", network="gcn")
        before = full_lowering_count()
        programs = _hammer(
            lambda _: harness.gnnerator_program(spec))
        assert full_lowering_count() - before == 1
        # One compilation ⇒ one object: every thread shares it.
        assert all(p is programs[0] for p in programs)
        stats = harness.cache_stats()["memo"]
        assert stats["misses"] == 1
        assert stats["hits"] == HAMMER_THREADS - 1

    def test_distinct_requests_lower_once_each(self):
        harness = Harness(program_store=None)
        blocks = [4, 8, 16, 32]
        specs = [WorkloadSpec(dataset="tiny", network="gcn",
                              feature_block=block)
                 for block in blocks for _ in range(3)]
        before = full_lowering_count()
        programs = _hammer(lambda i: harness.gnnerator_program(specs[i]),
                           n=len(specs))
        assert full_lowering_count() - before == len(blocks)
        by_block: dict[int, set[int]] = {}
        for spec, program in zip(specs, programs):
            by_block.setdefault(spec.feature_block,
                                set()).add(id(program))
        assert all(len(ids) == 1 for ids in by_block.values())

    def test_concurrent_cycles_match_serial_run(self):
        """The §4 invariant under threads: locking changes wall time
        only — concurrent simulations report the exact cycles a fresh
        serial harness computes."""
        spec = WorkloadSpec(dataset="tiny", network="gcn")
        serial = Harness(program_store=None).gnnerator_result(spec)
        harness = Harness(program_store=None)
        results = _hammer(lambda _: harness.gnnerator_result(spec))
        assert {r.cycles for r in results} == {serial.cycles}

    def test_gat_params_identity_preserved(self):
        """params() must hand every thread the same Parameters object,
        so every caller of one workload sees the same weights."""
        harness = Harness(program_store=None)
        spec = WorkloadSpec(dataset="tiny", network="gat")
        params = _hammer(lambda _: harness.params(spec))
        assert all(p is params[0] for p in params)


class TestDatasetCacheHammer:
    def test_same_name_loads_once_and_shares_object(self):
        loads: list[str] = []
        load_lock = threading.Lock()

        def loader(name: str):
            with load_lock:
                loads.append(name)
            from repro.graph.datasets import load_dataset

            return load_dataset(name)

        cache = DatasetCache(loader=loader)
        graphs = _hammer(lambda _: cache.get("tiny"))
        assert loads == ["tiny"]
        assert all(g is graphs[0] for g in graphs)

    def test_distinct_names_load_in_parallel(self):
        started = threading.Barrier(2)

        def loader(name: str):
            # Both loads must be in flight at once — a cache-wide lock
            # held across loading would deadlock this barrier.
            started.wait(10.0)
            from repro.graph.datasets import load_dataset

            return load_dataset(name)

        cache = DatasetCache(loader=loader)
        names = ["tiny", "cora"]
        graphs = _hammer(lambda i: cache.get(names[i]), n=2)
        assert graphs[0].name != graphs[1].name


class TestShardGridHammer:
    def test_same_plan_builds_one_grid_object(self, small_graph,
                                              tiny_config):
        from repro.graph.partition import plan_shards

        grids = _hammer(lambda _: plan_shards(small_graph,
                                              tiny_config.graph,
                                              block=8))
        assert all(g is grids[0] for g in grids)

    def test_store_loads_race_plans_within_the_memo_bound(self,
                                                          tmp_path):
        """Program-store loads on request threads enter grids into the
        graph's memo while the same threads plan over the graph: the
        memo never outgrows its bound and holds only this graph's
        grids. (Loads evict the plan's own entry, so plans may rebuild:
        one grid per key is promised only while the entry lives.)"""
        from repro.compiler.store import ProgramStore
        from repro.config.overrides import apply_overrides
        from repro.config.platforms import gnnerator_config
        from repro.graph import datasets
        from repro.graph.partition import (
            _GRID_CACHE_MAX_ENTRIES,
            plan_shards,
        )

        spec = WorkloadSpec(dataset="tiny", network="gcn",
                            hidden_dim=16)
        base = gnnerator_config(feature_block=spec.feature_block)
        configs = [apply_overrides(base, {
            "graph.src_feature_buffer_bytes": 1024 + 256 * step,
            "graph.dst_feature_buffer_bytes": 1024 + 256 * step})
            for step in range(HAMMER_THREADS)]
        store = ProgramStore(tmp_path, code_version="v1")
        writer = Harness(program_store=store)
        for config in configs:
            writer.gnnerator_program(spec, config)
        datasets._synthesize.cache_clear()  # the reader's own graph
        reader = Harness(program_store=store)
        graph = reader.graph("tiny")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = _hammer(lambda i: (
                reader.gnnerator_program(spec, configs[i]),
                plan_shards(graph, base.graph, block=8)))
        finally:
            sys.setswitchinterval(interval)
        assert store.stats["hits"] == HAMMER_THREADS
        memo = graph._shard_grid_cache
        assert len(memo) <= _GRID_CACHE_MAX_ENTRIES
        assert all(grid.graph is graph for grid in memo.values())
        assert {grid.interval_size for _, grid in results} == {
            results[0][1].interval_size}


    def test_first_touches_of_a_loaded_grid_build_once(self, tmp_path,
                                                       monkeypatch):
        """Eight threads first-touch one unbuilt, store-loaded grid at
        once, through different reads: one sort, one set of arrays."""
        from repro.compiler.store import ProgramStore
        from repro.graph import datasets
        from repro.obs.spans import tracing

        monkeypatch.setenv("REPRO_VERIFY", "0")  # would build on load
        spec = WorkloadSpec(dataset="tiny", network="gcn",
                            hidden_dim=16)
        store = ProgramStore(tmp_path, code_version="v1")
        Harness(program_store=store).gnnerator_program(spec)
        datasets._synthesize.cache_clear()  # the reader's own graph
        program = Harness(program_store=store).gnnerator_program(spec)
        grid = next(iter(program.grids.values()))
        assert not grid.built
        reads = (lambda: grid._order,
                 lambda: grid.shard(0, 0).edge_ids.base,
                 lambda: grid.nonempty_shards()[0].edge_ids.base,
                 lambda: grid.num_edges and grid._order)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with tracing() as tracer:
                orders = _hammer(lambda i: reads[i % len(reads)](), n=8)
        finally:
            sys.setswitchinterval(interval)
        assert all(order is grid._order for order in orders)
        assert [record.name for record in tracer.spans] == ["plan-shards"]


class TestLoweringMemoHammer:
    @pytest.mark.parametrize("network", ["gcn", "gat"])
    def test_independent_harnesses_share_weight_memos_safely(
            self, network):
        """Two harnesses compiling the same dataset concurrently stress
        the per-graph memos the lowering reads (shard grids and their
        per-shard statistics, shared via the common Graph from the
        dataset loader's own cache); cycles must stay identical."""
        spec = WorkloadSpec(dataset="tiny", network=network)
        serial = Harness(program_store=None).gnnerator_result(spec)
        harnesses = [Harness(program_store=None) for _ in range(4)]
        results = _hammer(
            lambda i: harnesses[i % len(harnesses)]
            .gnnerator_result(spec), n=8)
        assert {r.cycles for r in results} == {serial.cycles}


class TestEnergyMemoHammer:
    def test_threads_filling_one_memo_get_exact_values(self):
        """Threads racing to fill a fresh program's energy memo each
        get the per-op loop's exact values (no lock: every racer
        computes the same tuple)."""
        from repro.eval.energy import estimate_energy
        from tests.conftest import energy_oracle

        harness = Harness(program_store=None)
        spec = WorkloadSpec(dataset="cora", network="graphsage")
        program = harness.gnnerator_program(spec)
        result = harness.gnnerator_result(spec)
        oracle = energy_oracle(program, result)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = _hammer(lambda _: estimate_energy(program, result),
                              n=8)
        finally:
            sys.setswitchinterval(interval)
        for report in reports:
            assert report == oracle
            assert list(report.breakdown.items()) == list(
                oracle.breakdown.items())


class TestStoreCountsHammer:
    def test_concurrent_gets_lose_no_count(self, tmp_path):
        """Eight threads making 3,000 gets each on one result cache,
        switching threads every microsecond: every get is counted, as
        the daemon's cache hit and miss series report them."""
        from repro.sweep.cache import ResultCache

        cache = ResultCache(tmp_path, code_version="v1")
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(lambda _: [cache.get("ab" * 32) for _ in range(3000)],
                    n=8)
        finally:
            sys.setswitchinterval(interval)
        assert cache.stats == {"hits": 0, "misses": 24000}
