"""Tests for the parallel sweep engine: plans, cache, scheduler,
runner, and the ``sweep`` CLI subcommand."""

import dataclasses
import json
import os
import socket
import sys
import threading
import zlib
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

import repro.sweep.runner as runner_module
from repro.cli import main
from repro.compiler.store import PROGRAM_CACHE_ENV
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
from repro.sweep.cache import SCHEMA_VERSION
from repro.sweep.dist import FileQueueScheduler
from repro.sweep.plan import METRIC_DSE
from repro.sweep.runner import ProcessPoolScheduler, _worker_context

CORA_GCN = WorkloadSpec(dataset="cora", network="gcn")

#: What a pool worker reports (:func:`_report_start_probe`). A forked
#: worker sees whatever the parent set at run time; a spawned one
#: re-imports this module and sees this value.
_START_PROBE = "imported"


def _report_start_probe(point):
    return _START_PROBE


def _segments(root) -> list:
    """Every result-cache segment under ``root``, sorted."""
    return sorted(Path(root).rglob("*.log"))


def _line_keys(root) -> list:
    """The key of every line of every segment under ``root``."""
    return [line.split(b" ", 1)[0].decode()
            for path in _segments(root)
            for line in path.read_bytes().splitlines()]


def _frame(key: str, body: bytes) -> bytes:
    """One segment line as the cache appends it."""
    return b"%s %08x %s\n" % (key.encode(), zlib.crc32(body), body)


def _ok_body(seconds: float = 1.0) -> bytes:
    return json.dumps({"schema": SCHEMA_VERSION, "status": "ok",
                       "metrics": {"seconds": seconds}}).encode()


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
        cache.put(key, {"schema": SCHEMA_VERSION, "status": "ok",
                        "metrics": {"seconds": 1.5}})
        record = cache.get(key)
        assert record["metrics"]["seconds"] == 1.5
        assert cache.stats == {"hits": 1, "misses": 1}
        other = cache.key_for(point_for(CORA_GCN.with_block(32)).payload())
        cache.put(other, {"schema": SCHEMA_VERSION, "status": "ok",
                          "metrics": {}})
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
        """A line whose CRC fails is a miss and leaves the index: the
        recomputed record is appended, and a fresh reader takes it."""
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        cache.put_metrics(key, {}, {"seconds": 1.0})
        (segment,) = _segments(tmp_path)
        segment.write_bytes(segment.read_bytes().replace(b"1.0", b"1.5"))
        reader = ResultCache(tmp_path, code_version="v1")
        assert reader.get(key) is None
        reader.put_metrics(key, {}, {"seconds": 1.0})
        assert _line_keys(tmp_path) == [key, key]
        assert reader.cached_metrics(key) == {"seconds": 1.0}
        assert ResultCache(tmp_path, code_version="v1").cached_metrics(
            key) == {"seconds": 1.0}

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
        """A segment removed between the directory scan and its read (a
        concurrent ``rm -rf`` of the cache) reads as a miss, never an
        exception; this process's next append starts a new segment."""
        import builtins

        import repro.sweep.cache as cache_module

        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        cache.put_metrics(key, {}, {"seconds": 1.0})
        (segment,) = _segments(tmp_path)

        def racing_open(path, *args, **kwargs):
            os.remove(path)  # the sibling wins the race...
            return builtins.open(path, *args, **kwargs)  # ...ours fails

        monkeypatch.setattr(cache_module, "open", racing_open,
                            raising=False)
        reader = ResultCache(tmp_path, code_version="v1")
        assert reader.get(key) is None
        assert not segment.exists()
        monkeypatch.undo()
        reader.put_metrics(key, {}, {"seconds": 1.0})
        assert _segments(tmp_path) == [segment]
        assert ResultCache(tmp_path, code_version="v1").cached_metrics(
            key) == {"seconds": 1.0}

    def test_put_failure_leaves_no_partial_file(self, tmp_path,
                                                monkeypatch):
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())

        class Unserialisable:
            pass

        with pytest.raises(TypeError):
            cache.put(key, {"schema": SCHEMA_VERSION,
                            "bad": Unserialisable()})
        leftovers = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert leftovers == []
        assert cache.get(key) is None

    def test_a_torn_tail_is_read_once_completed(self, tmp_path):
        """A segment whose last line is still being written: the line
        reads as a miss until its writer finishes it."""
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        line = _frame(key, _ok_body())
        segment = tmp_path / "v1" / "elsewhere-1.log"
        segment.parent.mkdir()
        segment.write_bytes(line[:-20])
        assert cache.get(key) is None
        with open(segment, "ab") as handle:
            handle.write(line[-20:])
        assert cache.cached_metrics(key) == {"seconds": 1.0}
        assert len(cache) == 1

    def test_a_reused_pid_ends_a_torn_segment_first(self, tmp_path):
        """A segment named for this pid that ends torn (an earlier
        process with the same pid died mid-line): the first append ends
        that line, so the torn record is a miss and the new one reads."""
        cache = ResultCache(tmp_path, code_version="v1")
        torn = cache.key_for(point_for(CORA_GCN).payload())
        key = cache.key_for(point_for(CORA_GCN, "hygcn").payload())
        segment = (tmp_path / "v1"
                   / f"{socket.gethostname()}-{os.getpid()}.log")
        segment.parent.mkdir()
        segment.write_bytes(_frame(torn, _ok_body())[:-20])
        cache.put_metrics(key, {}, {"seconds": 2.0})
        assert segment.read_bytes().count(b"\n") == 2
        fresh = ResultCache(tmp_path, code_version="v1")
        assert fresh.get(torn) is None
        assert fresh.cached_metrics(key) == {"seconds": 2.0}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_appends_to_its_own_segment(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        parent = cache.key_for(point_for(CORA_GCN).payload())
        child = cache.key_for(point_for(CORA_GCN, "hygcn").payload())
        cache.put_metrics(parent, {}, {"seconds": 1.0})
        (mine,) = _segments(tmp_path)
        before = mine.read_bytes()
        pid = os.fork()
        if pid == 0:  # the child: leave without running pytest's exit
            status = 1
            try:
                cache.put_metrics(child, {}, {"seconds": 2.0})
                status = 0
            finally:
                os._exit(status)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert mine.read_bytes() == before
        assert [path.name for path in _segments(tmp_path)
                if path != mine] == [f"{socket.gethostname()}-{pid}.log"]
        assert cache.cached_metrics(child) == {"seconds": 2.0}

    def test_a_segment_written_again_is_read_from_its_start(self,
                                                            tmp_path):
        """A segment deleted and written again, shorter than what a
        reader had read of it, is read again from its start."""
        writer = ResultCache(tmp_path, code_version="v1")
        keys = [writer.key_for(point_for(CORA_GCN.with_block(block))
                               .payload()) for block in (8, 16, 32)]
        for key in keys[:2]:
            writer.put_metrics(key, {}, {"seconds": 1.0})
        reader = ResultCache(tmp_path, code_version="v1")
        assert len(reader) == 2
        (segment,) = _segments(tmp_path)
        segment.unlink()
        writer.put_metrics(keys[2], {}, {"seconds": 2.0})
        assert _line_keys(tmp_path) == keys[2:]
        assert reader.cached_metrics(keys[2]) == {"seconds": 2.0}

    def test_a_cache_does_not_read_back_its_own_appends(self, tmp_path,
                                                        monkeypatch):
        """Lines this cache appended are indexed as written: its next
        misses open no segment to read them back."""
        import repro.sweep.cache as cache_module

        cache = ResultCache(tmp_path, code_version="v1")
        one = cache.key_for(point_for(CORA_GCN).payload())
        two = cache.key_for(point_for(CORA_GCN, "hygcn").payload())
        cache.put_metrics(one, {}, {"seconds": 1.0})

        def refuse(*args, **kwargs):
            raise AssertionError("a segment was read back")

        monkeypatch.setattr(cache_module, "open", refuse, raising=False)
        assert cache.get(two) is None
        cache.put_metrics(two, {}, {"seconds": 2.0})
        assert cache.cached_metrics(one) == {"seconds": 1.0}

    def test_two_caches_in_one_process_share_a_segment(self, tmp_path):
        first = ResultCache(tmp_path, code_version="v1")
        second = ResultCache(tmp_path, code_version="v1")
        one = first.key_for(point_for(CORA_GCN).payload())
        two = first.key_for(point_for(CORA_GCN, "hygcn").payload())
        first.put_metrics(one, {}, {"seconds": 1.0})
        second.put_metrics(two, {}, {"seconds": 2.0})
        assert first.cached_metrics(two) == {"seconds": 2.0}
        assert second.cached_metrics(one) == {"seconds": 1.0}
        assert len(_segments(tmp_path)) == 1
        assert _line_keys(tmp_path) == [one, two]


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
        """A segment holding a truncated record for every point, its
        CRC that of the whole record, and ending in a torn line: every
        point misses, the pool's parent appends each recomputed record,
        and a fresh reader takes those over the damaged lines."""
        plan = smoke_plan()
        seed_cache = ResultCache(tmp_path, code_version="v1")
        whole = _ok_body()
        damaged = b"".join(
            b"%s %08x %s\n" % (seed_cache.key_for(point.payload()).encode(),
                               zlib.crc32(whole), whole[:20])
            for point in plan)
        (tmp_path / "v1").mkdir()
        (tmp_path / "v1" / "elsewhere-1.log").write_bytes(damaged[:-30])
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


def _dse_points(dataset, overrides, networks=("gcn", "gat")):
    return tuple(SweepPoint(dataset=dataset, network=network,
                            metric=METRIC_DSE, config_overrides=override)
                 for network in networks for override in overrides)


def _log_worker_spans(monkeypatch, log):
    """Make every ``run_point`` of a forked pool worker (which inherits
    this patch) append the spans its point recorded to ``log``."""
    real = runner_module.run_point

    def traced(point, harness):
        with tracing() as tracer:
            result = real(point, harness)
        spans = [[r.name, r.attrs.get("structure")] for r in tracer.spans]
        with open(log, "a") as handle:
            handle.write(json.dumps({
                "label": point.label, "pid": os.getpid(), "spans": spans,
                "overrides": point.config_overrides}) + "\n")
        return result

    monkeypatch.setattr(runner_module, "run_point", traced)


def _worker_spans(log) -> list[dict]:
    lines = log.read_text().splitlines() if log.exists() else []
    return [json.loads(line) for line in lines]


def _metrics(result) -> list:
    return [(r.status, r.metrics) for r in result.results]


class TestWarmPool:
    """A pool forked for a runner starts from the runner's harness,
    which resolved every point's geometry and loaded every structure
    the program store names; spawned workers start cold."""

    #: Cost and buffer variants of Table IV's structures on cora.
    VARIANTS = [(("graph.num_gpes", 16),), (("dense.cols", 32),),
                (("graph.edge_buffer_bytes", 4194304),)]

    def serial(self, plan):
        return SweepRunner(jobs=1, harness=Harness(program_store=None)
                           ).run(plan)

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="workers fork only on Linux")
    def test_forked_workers_start_warm(self, tmp_path, monkeypatch):
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        log = tmp_path / "spans.jsonl"
        _log_worker_spans(monkeypatch, log)
        runner = SweepRunner(jobs=2)
        first = SweepPlan("first", _dse_points("cora", [()]))
        assert runner.run(first).ok
        spans = [entry["spans"] for entry in _worker_spans(log)]
        # Nothing was stored: the workers lower, on geometries the
        # parent resolved.
        assert all(["lower", None] in each for each in spans)
        assert not any(["geometry", None] in each for each in spans)
        log.unlink()
        # Variants of the stored structures, and one new geometry.
        fresh = (("feature_block", 32),)
        plan = SweepPlan("second", _dse_points("cora",
                                               self.VARIANTS + [fresh]))
        result = runner.run(plan)
        entries = _worker_spans(log)
        assert len(entries) == len(plan)
        assert {entry["pid"] for entry in entries} != {os.getpid()}
        assert _metrics(result) == _metrics(self.serial(plan))
        for entry in entries:
            spans = entry["spans"]
            assert ["geometry", None] not in spans, entry["label"]
            if entry["overrides"] != [list(pair) for pair in fresh]:
                assert ["store-get", True] not in spans, entry["label"]
                assert ["lower", None] not in spans, entry["label"]

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="workers fork only on Linux")
    def test_new_runners_start_cold(self, tmp_path, monkeypatch):
        """Two runners in one process, over two fresh stores: each
        lowers (and so stores) its own structures."""
        plan = SweepPlan("cold", _dse_points("cora", [()] + self.VARIANTS))
        results = []
        for name in ("a", "b"):
            monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / name))
            results.append(_metrics(SweepRunner(jobs=2).run(plan)))
            # cora gcn's and gat's structures, lowered by this runner
            names = list((tmp_path / name).rglob("*.structure"))
            assert len(names) == 2
        assert results[0] == results[1] == _metrics(self.serial(plan))

    def test_spawned_workers_start_cold(self, tmp_path, monkeypatch):
        """With another thread alive the pool spawns: no warm-up runs,
        no harness is pickled, and results equal jobs=1's. The parent
        stores the records, in its one segment."""
        def refuse(self, protocol):
            raise AssertionError("a harness was pickled")

        monkeypatch.setattr(Harness, "__reduce_ex__", refuse)
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        plan = SweepPlan("spawned", _dse_points("tiny", [(), (
            ("graph.num_gpes", 16),)]))
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path / "r"))
        with _extra_thread():
            result = runner.run(plan)
        assert runner._harnesses == {}
        assert _metrics(result) == _metrics(self.serial(plan))
        assert len(ResultCache(tmp_path / "r")) == len(plan)
        assert [path.name for path in _segments(tmp_path / "r")] == [
            f"{socket.gethostname()}-{os.getpid()}.log"]

    def test_points_without_overrides_are_not_warmed(self, tmp_path,
                                                     monkeypatch):
        """A figure sweep's points compile fixed workloads, whose whole
        programs the store serves to the workers: the parent resolves
        no geometry and loads nothing for them."""
        monkeypatch.setenv(PROGRAM_CACHE_ENV, str(tmp_path / "ps"))
        plan = SweepPlan("fixed", tuple(
            point_for(WorkloadSpec(dataset="tiny", network=network))
            for network in ("gcn", "gat")))
        assert SweepRunner(jobs=2).run(plan).ok  # stores both programs
        runner = SweepRunner(jobs=2)
        with tracing() as tracer:
            assert runner.run(plan).ok
        assert not {"pool-warm", "geometry", "store-get"} & {
            r.name for r in tracer.spans}
        assert runner._harnesses == {}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_unresolvable_geometry_is_its_points_error(self, jobs):
        """A weight buffer too small for one weight row fails its point
        (in its worker at jobs 2, past the warm-up); its batch runs."""
        plan = SweepPlan("faulty", _dse_points("cora", [
            (), (("dense.weight_buffer_bytes", 8),)], networks=("gcn",)))
        result = SweepRunner(jobs=jobs).run(plan)
        assert [r.status for r in result.results] == ["ok", "error"]
        assert "weight buffer" in result.results[1].error


class TestWorkerRecords:
    """Each record is appended once, by the process that stores it: the
    inline runner, the pool's parent as it collects each chunk, or the
    fleet worker that computed it (the coordinator's put finds it)."""

    PLAN = SweepPlan("records", _dse_points("tiny", [
        (), (("graph.num_gpes", 16),), (("dense.rows", 32),)]))

    def test_every_scheduler_leaves_the_same_records(self, tmp_path):
        SweepRunner(jobs=1, cache=ResultCache(tmp_path / "serial")
                    ).run(self.PLAN)
        SweepRunner(jobs=2, cache=ResultCache(tmp_path / "pool")
                    ).run(self.PLAN)
        fleet = FileQueueScheduler(jobs=2, cache_dir=str(tmp_path / "fleet"),
                                   poll_s=0.01)
        SweepRunner(cache=ResultCache(tmp_path / "fleet"),
                    scheduler=fleet).run(self.PLAN)
        expected = ResultCache(tmp_path / "serial").records()
        assert len(expected) == len(self.PLAN)
        for name in ("serial", "pool", "fleet"):
            assert ResultCache(tmp_path / name).records() == expected, name
            assert sorted(_line_keys(tmp_path / name)) == sorted(
                expected), name
        mine = f"{socket.gethostname()}-{os.getpid()}.log"
        assert [path.name for path in _segments(tmp_path / "pool")] == [
            mine]
        assert mine not in {path.name
                            for path in _segments(tmp_path / "fleet")}

    def test_a_present_entry_is_not_rewritten(self, tmp_path):
        """A put of a key already in the log appends nothing, from this
        cache or a fresh one: the segment's bytes stay, and the record
        is not even encoded."""
        cache = ResultCache(tmp_path, code_version="v1")
        key = cache.key_for(point_for(CORA_GCN).payload())
        assert cache.put(key, {"schema": SCHEMA_VERSION, "status": "ok",
                               "metrics": {}})
        (segment,) = _segments(tmp_path)
        before = segment.read_bytes()

        class Unserialisable:
            pass

        for writer in (cache, ResultCache(tmp_path, code_version="v1")):
            assert writer.put(key, {"bad": Unserialisable()})
        assert segment.read_bytes() == before

    def test_a_dropped_entry_is_written_again(self, tmp_path):
        """A line that fails its CRC, or holds no successful point's
        record of this schema, is a miss: the recomputed record is
        appended, and a fresh reader takes it over the bad line."""
        key = ResultCache(tmp_path, code_version="v1").key_for(
            point_for(CORA_GCN).payload())
        records = ({"schema": SCHEMA_VERSION - 1, "status": "ok",
                    "metrics": {}},
                   {"schema": SCHEMA_VERSION, "status": "error",
                    "metrics": {}},
                   {"schema": SCHEMA_VERSION, "status": "ok"})
        damages = ([_frame(key, b"{not json"),
                    _frame(key, _ok_body()).replace(b"1.0", b"1.5")]
                   + [_frame(key, json.dumps(r).encode()) for r in records])
        for index, damage in enumerate(damages):
            root = tmp_path / str(index)
            (root / "v1").mkdir(parents=True)
            (root / "v1" / "elsewhere-1.log").write_bytes(damage)
            cache = ResultCache(root, code_version="v1")
            assert cache.cached_metrics(key) is None, damage
            cache.put_metrics(key, {}, {"seconds": 1.0})
            assert cache.cached_metrics(key) == {"seconds": 1.0}
            assert ResultCache(root, code_version="v1").cached_metrics(
                key) == {"seconds": 1.0}, damage


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
