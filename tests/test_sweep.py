"""Tests for the parallel sweep engine: plans, cache, scheduler,
runner, and the ``sweep`` CLI subcommand."""

import dataclasses
import json
import os
import sys
import threading
from contextlib import contextmanager, nullcontext

import pytest

from repro.cli import main
from repro.config.overrides import (
    candidate_config,
    fig5_overrides,
    freeze_overrides,
)
from repro.config.platforms import next_generation_variants
from repro.config.workload import WorkloadSpec
from repro.eval.experiments import fig3_speedups, table1_dataflow_costs
from repro.eval.harness import Harness
from repro.obs.spans import tracing
from repro.sweep import (
    DatasetCache,
    NullCache,
    PointResult,
    ResultCache,
    SweepError,
    SweepPlan,
    SweepPlanError,
    SweepPoint,
    SweepResult,
    SweepRunner,
    build_plan,
    cache_key,
    code_version_hash,
    fig3_plan,
    fig4_plan,
    fig5_plan,
    point_for,
    smoke_plan,
    table1_plan,
    table5_plan,
)
from repro.sweep.dist import FileQueueScheduler
from repro.sweep.runner import ProcessPoolScheduler, _worker_context

CORA_GCN = WorkloadSpec(dataset="cora", network="gcn")

#: What a pool worker reports (:func:`_report_start_probe`). A forked
#: worker sees whatever the parent set at run time; a spawned one
#: re-imports this module and sees this value.
_START_PROBE = "imported"


def _report_start_probe(point):
    return _START_PROBE


@contextmanager
def _extra_thread():
    """Keep one parked extra Python thread alive, like the serve
    daemon's request threads."""
    release = threading.Event()
    parked = threading.Thread(target=release.wait, daemon=True)
    parked.start()
    try:
        yield
    finally:
        release.set()
        parked.join()


@pytest.fixture(scope="module")
def smoke_result():
    """One shared serial run of the smoke plan for result-shape tests."""
    return SweepRunner().run(smoke_plan())


# ---------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------
class TestPlans:
    def test_fig3_plan_covers_all_platforms(self):
        plan = fig3_plan()
        assert len(plan) == 36  # 9 workloads x 4 platform points
        platforms = {p.platform for p in plan}
        assert platforms == {"gnnerator", "gpu", "hygcn"}

    def test_fig4_plan_always_includes_baseline(self):
        plan = fig4_plan(blocks=(128,))
        blocks = {p.feature_block for p in plan}
        assert blocks == {64, 128}

    def test_fig5_plan_has_dense_autotune_candidates(self):
        """The doubled Dense Engine is two override sets, B = 128 and
        B = 64, each rebuilding the variant at that block; the other
        designs are one set each, beside the baseline."""
        plan = fig5_plan(hidden_dims=(16,))
        assert len(plan) == 3 * (1 + 4)
        dense = dict(fig5_overrides()["more-dense-compute"])
        assert dense["feature_block"] == 128
        sets = {p.config_overrides for p in plan
                if p.config_overrides
                and "dense.rows" in dict(p.config_overrides)}
        assert sets == {freeze_overrides({**dense, "feature_block": block})
                        for block in (128, 64)}
        variant = next_generation_variants()["more-dense-compute"]
        for overrides in sets:
            config = candidate_config(64, overrides)
            assert config == dataclasses.replace(
                variant, name=config.name,
                feature_block=config.feature_block)

    def test_plans_deduplicate_points(self):
        point = point_for(CORA_GCN)
        plan = SweepPlan("dup", (point, point))
        assert len(plan) == 1

    def test_point_validates_eagerly(self):
        with pytest.raises(SweepPlanError):
            SweepPoint(dataset="cora", network="gcn", platform="tpu")
        with pytest.raises(SweepPlanError):
            SweepPoint(dataset="cora", network="gcn", metric="flops")
        with pytest.raises(ValueError, match="hidden_dim"):
            SweepPoint(dataset="cora", network="gcn", hidden_dim=0)

    def test_baseline_platform_points_are_normalised(self):
        """GPU/HyGCN latencies ignore dataflow knobs, so their points
        collapse onto one cache entry."""
        a = point_for(CORA_GCN, "gpu")
        b = point_for(CORA_GCN.with_block(None), "gpu")
        assert a == b

    def test_build_plan_registry(self):
        for name in ("fig3", "fig4", "fig5", "table1", "table5",
                     "smoke", "all"):
            assert len(build_plan(name)) > 0
        with pytest.raises(SweepPlanError):
            build_plan("fig9")

    def test_build_plan_seeds_every_point(self):
        plan = build_plan("smoke", seed=7)
        assert all(p.seed == 7 for p in plan)


# ---------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------
class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        assert cache.get(key) is None
        cache.put(key, {"schema": 1, "status": "ok",
                        "metrics": {"seconds": 1.5}})
        record = cache.get(key)
        assert record["metrics"]["seconds"] == 1.5
        assert cache.stats == {"hits": 1, "misses": 1}
        other = cache.key_for(point_for(CORA_GCN.with_block(32)).payload())
        cache.put(other, {"schema": 1, "status": "ok", "metrics": {}})
        assert len(cache) == 2

    def test_get_and_put_are_spans(self, tmp_path):
        """Result-cache reads and writes show in a trace as their own
        spans, not as their caller's self time."""
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        with tracing() as tracer:
            cache.get(key)
            cache.put_metrics(key, {}, {"seconds": 1.0})
            assert cache.cached_metrics(key) == {"seconds": 1.0}
        names = [record.name for record in tracer.spans]
        assert sorted(names) == ["cache-get", "cache-get", "cache-put"]

    def test_key_changes_with_config(self):
        base = point_for(CORA_GCN).payload()
        other = point_for(CORA_GCN.with_block(32)).payload()
        assert cache_key(base, "v1") != cache_key(other, "v1")

    def test_key_changes_with_code_version(self):
        payload = point_for(CORA_GCN).payload()
        assert cache_key(payload, "v1") != cache_key(payload, "v2")

    def test_key_changes_with_seed(self):
        a = point_for(CORA_GCN).payload()
        b = point_for(CORA_GCN, seed=1).payload()
        assert cache_key(a, "v1") != cache_key(b, "v1")

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        cache.put(key, {"schema": 1, "status": "ok", "metrics": {}})
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get(key) is None
        assert not path.exists()

    def test_code_version_hash_is_stable(self):
        assert code_version_hash() == code_version_hash()
        assert len(code_version_hash()) == 64

    def test_code_version_tracks_source_edits(self, tmp_path):
        """A long-lived process that edits source must get a fresh code
        hash from the next ResultCache it constructs (regression: the
        hash used to be ``lru_cache``d for the process lifetime)."""
        code = tmp_path / "code"
        code.mkdir()
        module = code / "module.py"
        module.write_text("VALUE = 1\n")
        first = ResultCache(tmp_path / "cache", code_root=code)
        module.write_text("VALUE = 2\n")
        second = ResultCache(tmp_path / "cache", code_root=code)
        assert first.code_version != second.code_version
        payload = point_for(CORA_GCN).payload()
        assert first.key_for(payload) != second.key_for(payload)

    def test_code_version_fast_path_reuses_digest(self, tmp_path):
        """Unchanged trees hit the mtime/size snapshot fast path."""
        code = tmp_path / "code"
        code.mkdir()
        (code / "module.py").write_text("VALUE = 1\n")
        assert (ResultCache(tmp_path / "a", code_root=code).code_version
                == ResultCache(tmp_path / "b", code_root=code)
                .code_version)

    def test_get_tolerates_concurrent_removal(self, tmp_path,
                                              monkeypatch):
        """Two workers racing on a corrupt entry: the loser's
        ``os.remove`` fails because the winner already dropped the file
        — that must read as a miss, never an exception."""
        import repro.sweep.cache as cache_module

        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        cache.put(key, {"schema": 1, "status": "ok", "metrics": {}})
        path = cache._path(key)
        path.write_text('{"schema": 1, "status"')  # truncated write

        real_remove = os.remove

        def racing_remove(target):
            real_remove(target)  # the sibling worker wins the race...
            real_remove(target)  # ...and ours raises FileNotFoundError

        monkeypatch.setattr(cache_module.os, "remove", racing_remove)
        assert cache.get(key) is None
        assert not path.exists()

    def test_put_failure_leaves_no_partial_file(self, tmp_path,
                                                monkeypatch):
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())

        class Unserialisable:
            pass

        with pytest.raises(TypeError):
            cache.put(key, {"schema": 1, "bad": Unserialisable()})
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []
        assert cache.get(key) is None


class TestDatasetCache:
    def test_caches_per_instance(self):
        calls = []

        def loader(name):
            calls.append(name)
            return object()

        cache = DatasetCache(loader=loader)
        assert cache.get("cora") is cache.get("cora")
        assert calls == ["cora"]
        other = DatasetCache(loader=loader)
        other.get("cora")
        assert calls == ["cora", "cora"]


# ---------------------------------------------------------------------
# Runner: caching behaviour
# ---------------------------------------------------------------------
class TestRunnerCaching:
    PLAN = SweepPlan("mini", (
        point_for(CORA_GCN),
        point_for(CORA_GCN, "hygcn"),
    ))

    def test_cold_then_warm(self, tmp_path):
        cold = SweepRunner(cache=ResultCache(tmp_path)).run(self.PLAN)
        assert cold.ok and cold.misses == 2 and cold.hits == 0
        warm = SweepRunner(cache=ResultCache(tmp_path)).run(self.PLAN)
        assert warm.ok and warm.misses == 0 and warm.hits == 2
        assert all(r.cached for r in warm.results)
        for point in self.PLAN:
            assert (warm.seconds_for(point)
                    == cold.seconds_for(point))

    def test_config_change_invalidates(self, tmp_path):
        runner = SweepRunner(cache=ResultCache(tmp_path))
        runner.run(self.PLAN)
        changed = SweepPlan("mini32", (point_for(CORA_GCN.with_block(32)),))
        result = SweepRunner(cache=ResultCache(tmp_path)).run(changed)
        assert result.misses == 1 and result.hits == 0

    def test_code_change_invalidates(self, tmp_path):
        SweepRunner(cache=ResultCache(tmp_path, code_version="a")) \
            .run(self.PLAN)
        rerun = SweepRunner(cache=ResultCache(tmp_path, code_version="b")) \
            .run(self.PLAN)
        assert rerun.misses == 2 and rerun.hits == 0

    def test_unwritable_cache_loses_no_point(self, tmp_path):
        """A cache directory that cannot be created (it would sit under
        a regular file) skips its writes; every point still comes back
        computed and ok."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = ResultCache(blocker / "cache")
        result = SweepRunner(cache=cache).run(self.PLAN)
        assert result.ok and result.misses == 2
        assert all(r.metrics["seconds"] > 0 for r in result.results)
        assert len(cache) == 0

    def test_null_cache_never_persists(self, tmp_path):
        cache = NullCache()
        first = SweepRunner(cache=cache).run(self.PLAN)
        second = SweepRunner(cache=cache).run(self.PLAN)
        assert first.misses == second.misses == 2
        assert not any(r.cached for r in second.results)


# ---------------------------------------------------------------------
# Runner: scheduling, determinism, failure isolation
# ---------------------------------------------------------------------
class TestScheduling:
    def test_parallel_matches_serial_exactly(self, tmp_path):
        plan = smoke_plan()
        serial = SweepRunner(jobs=1).run(plan)
        parallel = SweepRunner(jobs=4).run(plan)
        assert serial.ok and parallel.ok
        for point in plan:
            assert (serial.result_for(point).metrics
                    == parallel.result_for(point).metrics)

    def test_results_preserve_plan_order(self, smoke_result):
        assert ([r.point for r in smoke_result.results]
                == list(smoke_plan().points))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failure_is_isolated_per_point(self, jobs):
        plan = SweepPlan("faulty", (
            point_for(CORA_GCN),
            SweepPoint(dataset="no-such-dataset", network="gcn"),
            point_for(CORA_GCN, "hygcn"),
        ))
        result = SweepRunner(jobs=jobs).run(plan)
        statuses = [r.status for r in result.results]
        assert statuses == ["ok", "error", "ok"]
        assert result.errors == 1
        bad = result.results[1]
        assert "no-such-dataset" in bad.error
        with pytest.raises(SweepError):
            result.metrics_for(bad.point)

    def test_failed_points_are_not_cached(self, tmp_path):
        plan = SweepPlan("faulty", (
            SweepPoint(dataset="no-such-dataset", network="gcn"),))
        cache = ResultCache(tmp_path)
        SweepRunner(cache=cache).run(plan)
        assert len(cache) == 0
        rerun = SweepRunner(cache=ResultCache(tmp_path)).run(plan)
        assert rerun.misses == 1

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SweepRunner(jobs=0)

    def test_truncated_cache_entries_recompute_under_jobs_4(self,
                                                            tmp_path):
        """Half-written records (e.g. a worker killed mid-write before
        atomic puts) must read as misses for every one of 4 workers and
        be healed by the rerun's puts."""
        plan = smoke_plan()
        seed_cache = ResultCache(tmp_path, code_version="v1")
        for point in plan:
            key = seed_cache.key_for(point.payload())
            path = seed_cache._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text('{"schema": 1, "metr')  # truncated record
        result = SweepRunner(
            jobs=4, cache=ResultCache(tmp_path, code_version="v1")
        ).run(plan)
        assert result.ok
        assert result.hits == 0 and result.misses == len(plan)
        warm = SweepRunner(
            cache=ResultCache(tmp_path, code_version="v1")).run(plan)
        assert warm.ok and warm.hits == len(plan) and warm.misses == 0


class TestStartMethod:
    """Workers fork from a single-threaded parent on Linux and spawn
    otherwise; either way results match ``jobs=1``."""

    POINTS = tuple(SweepPoint(dataset="tiny", network=network)
                   for network in ("gcn", "gat", "gin", "graphsage"))

    def probe(self, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "_START_PROBE",
                            "set-at-run-time")
        return ProcessPoolScheduler(
            jobs=2, worker_fn=_report_start_probe).run(self.POINTS)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="workers fork only on Linux")
    def test_forks_when_only_the_main_thread_runs(self, monkeypatch):
        assert threading.active_count() == 1, threading.enumerate()
        assert _worker_context().get_start_method() == "fork"
        assert self.probe(monkeypatch) == ["set-at-run-time"] * 4

    def test_spawns_while_another_thread_runs(self, monkeypatch):
        with _extra_thread():
            assert _worker_context().get_start_method() == "spawn"
            results = self.probe(monkeypatch)
        assert results == ["imported"] * 4

    def test_spawns_off_linux(self, monkeypatch):
        monkeypatch.setattr(sys, "platform", "darwin")
        assert _worker_context().get_start_method() == "spawn"

    @pytest.mark.parametrize("extra_thread", [False, True],
                             ids=["main-thread-only",
                                  "extra-thread-alive"])
    def test_filequeue_workers_follow_the_same_rule(
            self, extra_thread, monkeypatch):
        started = []
        start = FileQueueScheduler._start

        def recording_start(scheduler, queue_dir, worker_id):
            process = start(scheduler, queue_dir, worker_id)
            started.append(process._start_method)
            return process

        monkeypatch.setattr(FileQueueScheduler, "_start", recording_start)
        points = self.POINTS[:2]
        with _extra_thread() if extra_thread else nullcontext():
            results = FileQueueScheduler(jobs=1, poll_s=0.01).run(points)
        forks = sys.platform == "linux" and not extra_thread
        assert started == ["fork" if forks else "spawn"]
        serial = ProcessPoolScheduler(jobs=1).run(points)
        assert [r.metrics for r in results] == [r.metrics
                                                for r in serial]


# ---------------------------------------------------------------------
# Result serialisation
# ---------------------------------------------------------------------
class TestSweepResult:
    def test_to_json_shape(self, smoke_result):
        data = json.loads(smoke_result.to_json())
        assert data["plan"] == "smoke"
        assert data["errors"] == 0
        assert data["cache"] == {"hits": 0, "misses": 6}
        assert len(data["points"]) == 6
        first = data["points"][0]
        assert first["status"] == "ok"
        assert first["metrics"]["seconds"] > 0
        assert first["point"]["dataset"] == "cora"

    def test_to_csv_shape(self, smoke_result):
        lines = smoke_result.to_csv().strip().splitlines()
        assert len(lines) == 7  # header + 6 points
        assert lines[0].startswith("label,dataset,network,platform")
        assert "cora,gcn,gnnerator" in lines[1]

    def test_unknown_point_raises(self, smoke_result):
        with pytest.raises(KeyError):
            smoke_result.result_for(point_for(
                WorkloadSpec(dataset="pubmed", network="gcn")))

    def test_lookups_compare_each_point_at_most_once(self, monkeypatch):
        """A DSE generation looks up every one of its points: N lookups
        must cost O(N) point comparisons, not a scan each."""
        points = [SweepPoint(dataset="cora", network="gcn", seed=seed)
                  for seed in range(60)]
        sweep = SweepResult(
            plan="many", results=[PointResult(p, metrics={"seconds": i})
                                  for i, p in enumerate(points)],
            jobs=1, hits=0, misses=len(points), elapsed_s=0.0)
        compared = []
        equal = SweepPoint.__eq__

        def counting_eq(self, other):
            compared.append(self)
            return equal(self, other)

        monkeypatch.setattr(SweepPoint, "__eq__", counting_eq)
        # Equal but distinct objects, as a DSE candidate's points are.
        seconds = [sweep.seconds_for(dataclasses.replace(p))
                   for p in points]
        assert seconds == list(range(len(points)))
        assert len(compared) <= len(points)

    def test_duplicate_points_resolve_to_the_first_result(self):
        point = SweepPoint(dataset="cora", network="gcn")
        first = PointResult(point, metrics={"seconds": 1.0})
        sweep = SweepResult(
            plan="dup", results=[first, PointResult(point, status="error")],
            jobs=1, hits=0, misses=2, elapsed_s=0.0)
        assert sweep.result_for(point) is first


# ---------------------------------------------------------------------
# Experiments route through the engine
# ---------------------------------------------------------------------
class TestExperimentsIntegration:
    def test_fig3_via_cached_runner_is_identical(self, tmp_path):
        """A cached, sharded fig3 equals the default serial path —
        the engine changes wall-clock, never numbers."""
        serial = fig3_speedups()
        cached = fig3_speedups(
            runner=SweepRunner(jobs=2, cache=ResultCache(tmp_path)))
        warm = fig3_speedups(
            runner=SweepRunner(cache=ResultCache(tmp_path)))
        for a, b, c in zip(serial.rows, cached.rows, warm.rows):
            assert a.speedup_blocked == b.speedup_blocked
            assert a.speedup_blocked == c.speedup_blocked
            assert a.speedup_no_blocking == c.speedup_no_blocking

    def test_table1_traffic_points_skip_simulation(self):
        plan = table1_plan(dataset="cora")
        assert all(p.metric == "traffic" for p in plan)
        rows = table1_dataflow_costs(dataset="cora", feature_block=None)
        assert all(row.matches for row in rows)

    def test_table5_plan_omits_gpu(self):
        assert all(p.platform != "gpu" for p in table5_plan())

    def test_shared_harness_is_reused(self):
        harness = Harness()
        runner = SweepRunner(harness=harness)
        runner.run(SweepPlan("one", (point_for(CORA_GCN),)))
        assert "cora" in harness._datasets

    def test_seeded_harness_is_honoured(self):
        """A caller-supplied harness with a non-default seed must
        actually compute the points (plan points are re-seeded to
        match, as the serial path historically did)."""
        from repro.eval.experiments import table5_hygcn

        harness = Harness(seed=5)
        table5_hygcn(harness=harness)
        assert "cora" in harness._datasets


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------
class TestSweepCli:
    def test_sweep_json_output_file(self, tmp_path, capsys):
        out = tmp_path / "smoke.json"
        assert main(["sweep", "smoke", "--cache-dir",
                     str(tmp_path / "cache"), "--format", "json",
                     "--output", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["plan"] == "smoke" and data["errors"] == 0
        summary = capsys.readouterr().out
        assert "6 points" in summary and str(out) in summary

    def test_sweep_warm_rerun_recomputes_nothing(self, tmp_path, capsys):
        args = ["sweep", "smoke", "--cache-dir", str(tmp_path / "cache"),
                "--jobs", "2", "--format", "json"]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["cache"]["misses"] == 6
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["cache"] == {"hits": 6, "misses": 0}
        assert ([p["metrics"] for p in cold["points"]]
                == [p["metrics"] for p in warm["points"]])

    def test_sweep_no_cache_leaves_no_files(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["sweep", "smoke", "--no-cache", "--cache-dir",
                     str(cache_dir), "--format", "csv"]) == 0
        assert not cache_dir.exists()
        out = capsys.readouterr().out
        assert out.startswith("label,")

    def test_sweep_with_unwritable_cache_dir_exits_zero(self, tmp_path,
                                                        capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["sweep", "smoke", "--cache-dir",
                     str(blocker / "cache"), "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["errors"] == 0 and result["cache"]["misses"] == 6

    def test_sweep_table_format(self, tmp_path, capsys):
        assert main(["sweep", "smoke", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Sweep — smoke" in out and "cora-gcn" in out

    def test_sweep_rejects_unknown_plan(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fig9"])

    def test_sweep_rejects_bad_jobs(self):
        with pytest.raises(SystemExit):
            main(["sweep", "smoke", "--jobs", "0"])

    def test_sweep_exit_code_on_point_failure(self, monkeypatch, capsys):
        faulty = SweepPlan("faulty", (
            SweepPoint(dataset="no-such-dataset", network="gcn"),))
        monkeypatch.setattr("repro.serve.protocol.build_plan",
                            lambda name, seed=0, networks=None: faulty)
        assert main(["sweep", "smoke", "--no-cache"]) == 1
        assert "error" in capsys.readouterr().out
