"""Tests for the distributed sweep backend end to end: the
``Scheduler`` contract, :class:`FileQueueScheduler` parity with serial
execution, free resume from the queue directory, quarantine surfacing,
the ``repro worker`` CLI (including SIGTERM drain), ``--scheduler``
flag validation on sweep AND dse, and the full fault-injection
campaign behind ``repro chaos-sweep``."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.metrics import parse_prometheus, series_value
from repro.sweep import Scheduler, SweepPlan, SweepPoint, SweepRunner
from repro.sweep.cache import ResultCache
from repro.sweep.dist import (
    SCHEDULER_NAMES,
    FileQueue,
    FileQueueScheduler,
    run_chaos,
)
from repro.sweep.runner import ProcessPoolScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent


def _tiny_plan() -> SweepPlan:
    return SweepPlan("dist-test", (
        SweepPoint(dataset="tiny", network="gcn", hidden_dim=8,
                   feature_block=8),
        SweepPoint(dataset="tiny", network="gcn", hidden_dim=16,
                   feature_block=8),
        SweepPoint(dataset="tiny", network="graphsage", hidden_dim=8,
                   feature_block=8),
    ))


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    return env


class TestSchedulerContract:
    def test_both_backends_satisfy_the_protocol(self):
        assert isinstance(ProcessPoolScheduler(jobs=2), Scheduler)
        assert isinstance(FileQueueScheduler(jobs=0), Scheduler)
        assert ProcessPoolScheduler(jobs=2).name == "pool"
        assert FileQueueScheduler(jobs=0).name == "filequeue"
        assert set(SCHEDULER_NAMES) == {"pool", "filequeue"}

    def test_rejects_negative_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            FileQueueScheduler(jobs=-1)

    def test_empty_plan_is_a_noop(self, tmp_path):
        scheduler = FileQueueScheduler(
            jobs=2, queue_dir=str(tmp_path / "q"))
        assert scheduler.run([]) == []
        assert not (tmp_path / "q").exists()  # nothing even created


class TestFileQueueScheduler:
    def test_fleet_matches_serial_and_resume_recomputes_nothing(
            self, tmp_path):
        plan = _tiny_plan()
        serial = SweepRunner(
            cache=ResultCache(tmp_path / "serial-cache")).run(plan)
        queue_dir = tmp_path / "queue"
        scheduler = FileQueueScheduler(
            jobs=2, queue_dir=str(queue_dir),
            cache_dir=str(tmp_path / "fleet-cache"),
            poll_s=0.05, stall_timeout_s=120.0)
        runner = SweepRunner(cache=ResultCache(tmp_path / "fleet-cache"),
                             scheduler=scheduler)
        fleet = runner.run(plan)
        assert [r.point for r in fleet.results] == list(plan.points)
        for ours, theirs in zip(fleet.results, serial.results):
            assert ours.ok and theirs.ok
            assert json.dumps(ours.metrics, sort_keys=True) == \
                json.dumps(theirs.metrics, sort_keys=True)
        # Resume: the queue directory IS the campaign state. Every
        # point is already terminal, so a restarted coordinator must
        # republish nothing — done/ records stay byte-identical.
        done_before = {p.name: (p.stat().st_mtime_ns, p.read_bytes())
                       for p in (queue_dir / "done").glob("*.json")}
        assert len(done_before) == len(plan.points)
        again = runner.run(plan)
        done_after = {p.name: (p.stat().st_mtime_ns, p.read_bytes())
                      for p in (queue_dir / "done").glob("*.json")}
        assert done_after == done_before
        assert [r.metrics for r in again.results] == \
            [r.metrics for r in fleet.results]

    def test_persistent_queue_reopens_for_new_work_after_close(
            self, tmp_path):
        # Regression: run() leaves the campaign-complete marker behind
        # in a persistent queue_dir. A second run dispatching NEW
        # (cache-miss) points must clear it — otherwise every spawned
        # worker sees is_closed() and exits before claiming, and the
        # coordinator stalls until stall_timeout_s. This is the path
        # every iterative `dse --scheduler filequeue` generation hits.
        queue_dir = tmp_path / "queue"
        scheduler = FileQueueScheduler(
            jobs=1, queue_dir=str(queue_dir),
            cache_dir=str(tmp_path / "cache"),
            poll_s=0.05, stall_timeout_s=120.0)
        first = scheduler.run([
            SweepPoint(dataset="tiny", network="gcn", hidden_dim=8,
                       feature_block=8)])
        assert first[0].ok
        assert FileQueue(queue_dir).is_closed()  # marker left behind
        second = scheduler.run([
            SweepPoint(dataset="tiny", network="gcn", hidden_dim=16,
                       feature_block=8)])
        assert second[0].ok

    def test_unwritable_cache_costs_no_worker(self, tmp_path):
        """A worker whose result cache cannot be written (its directory
        would sit under a regular file) skips the write and completes
        every point; no worker dies, so none is respawned."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        queue_dir = tmp_path / "q"
        scheduler = FileQueueScheduler(
            jobs=1, queue_dir=str(queue_dir),
            cache_dir=str(blocker / "cache"),
            poll_s=0.05, stall_timeout_s=5.0)
        plan = _tiny_plan()
        results = scheduler.run(plan.points)
        assert all(result.ok for result in results)
        assert scheduler.stats.respawned == 0
        done = list((queue_dir / "done").glob("*.json"))
        assert len(done) == len(plan.points)

    def test_quarantined_point_surfaces_as_error_result(self, tmp_path):
        # Unknown datasets pass plan-time validation and fail at load
        # time inside the worker — the queue retries then quarantines,
        # and the sweep reports it like any per-point failure.
        plan = SweepPlan("poisoned", (
            SweepPoint(dataset="tiny", network="gcn", hidden_dim=8,
                       feature_block=8),
            SweepPoint(dataset="no-such-dataset", network="gcn"),
        ))
        scheduler = FileQueueScheduler(
            jobs=1, queue_dir=str(tmp_path / "q"),
            cache_dir=str(tmp_path / "cache"),
            max_attempts=2, backoff_base_s=0.02, backoff_cap_s=0.05,
            poll_s=0.05, stall_timeout_s=120.0)
        result = SweepRunner(cache=ResultCache(tmp_path / "cache"),
                             scheduler=scheduler).run(plan)
        good, bad = result.results
        assert good.ok
        assert bad.status == "error"
        assert "no-such-dataset" in bad.error
        failed = list((tmp_path / "q" / "failed").glob("*.json"))
        assert len(failed) == 1
        record = json.loads(failed[0].read_text())
        assert record["attempts"] == 2  # full retry budget spent
        assert "Traceback" in record["error"]

    def test_runner_routes_misses_through_injected_scheduler(
            self, tmp_path):
        calls = []

        class Recording:
            name = "recording"

            def run(self, points):
                calls.append(list(points))
                return FileQueueScheduler(
                    jobs=1, cache_dir=str(tmp_path / "cache"),
                    poll_s=0.05, stall_timeout_s=120.0).run(points)

        runner = SweepRunner(cache=ResultCache(tmp_path / "cache"),
                             scheduler=Recording())
        plan = _tiny_plan()
        runner.run(plan)
        assert calls == [list(plan.points)]
        calls.clear()
        runner.run(plan)  # warm: every point cache-hits, no dispatch
        assert calls == []


def _ignore_sigterm_and_sleep(started):
    """Child target simulating a worker whose graceful drain outlives
    the SIGTERM grace period (must be module-level / picklable)."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    started.set()
    time.sleep(60.0)


class TestJoinEscalation:
    def test_join_kills_worker_that_outlives_sigterm_grace(self):
        # The worker's SIGTERM handler is a graceful drain that
        # finishes the in-flight point first; _join must escalate to
        # SIGKILL so a slow point never leaks a live non-daemon child
        # past run() (whose temp-queue path rmtree's the queue dir).
        context = multiprocessing.get_context("fork")
        started = context.Event()
        process = context.Process(target=_ignore_sigterm_and_sleep,
                                  args=(started,), daemon=False)
        process.start()
        try:
            assert started.wait(30.0)
            FileQueueScheduler(jobs=0)._join([process], timeout=0.1)
            assert not process.is_alive()
        finally:
            if process.is_alive():
                process.kill()
            process.join(timeout=5.0)


class TestWorkerCli:
    def test_worker_without_manifest_exits_with_hint(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--queue-dir", str(tmp_path / "nope")])
        assert "no queue manifest" in str(excinfo.value)
        assert "worker:" in str(excinfo.value)

    def test_worker_drains_on_sigterm(self, tmp_path, capsys):
        # Stage a real queue with work, attach one external worker
        # process, let it finish the backlog, then SIGTERM it: the
        # drain path must exit 0 with a claims summary, leaving the
        # queue consistent for the (absent) coordinator.
        queue = FileQueue(tmp_path / "q",
                          cache_dir=str(tmp_path / "cache"))
        plan = _tiny_plan()
        cache = ResultCache(tmp_path / "cache")
        for point in plan.points:
            queue.enqueue(cache.key_for(point.payload()),
                          point.payload())
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--queue-dir", str(tmp_path / "q"), "--worker-id", "ext-1",
             "--poll", "0.05"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_worker_env(), cwd=str(tmp_path))
        try:
            deadline = time.monotonic() + 120.0
            while (queue.stats()["done"] < len(plan.points)
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert queue.stats()["done"] == len(plan.points)
            process.send_signal(signal.SIGTERM)
            out, err = process.communicate(timeout=30.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        assert "ext-1 exiting" in out
        assert "3 computed" in out
        assert queue.stats()["leased"] == 0
        for task_id in queue.states():
            assert queue.result(task_id)[0] == "done"

    def test_worker_exits_when_queue_closes(self, tmp_path):
        queue = FileQueue(tmp_path / "q")
        queue.close()
        process = subprocess.run(
            [sys.executable, "-m", "repro", "worker",
             "--queue-dir", str(tmp_path / "q"), "--poll", "0.05"],
            capture_output=True, text=True, timeout=60.0,
            env=_worker_env(), cwd=str(tmp_path))
        assert process.returncode == 0, process.stderr
        assert "0 claim(s)" in process.stdout


class TestSchedulerFlagValidation:
    """``--scheduler`` must exit 2 naming the valid backends, on sweep
    AND dse alike (ISSUE satellite)."""

    def _expect_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for needle in ("pool", "filequeue"):
            assert needle in err, f"{needle!r} missing from: {err}"

    def test_sweep_rejects_unknown_scheduler(self, capsys):
        self._expect_usage_error(
            capsys, ["sweep", "smoke", "--scheduler", "slurm"])

    def test_dse_rejects_unknown_scheduler(self, capsys):
        self._expect_usage_error(
            capsys, ["dse", "--scheduler", "kubernetes"])

    def test_sweep_rejects_bad_lease_ttl(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "smoke", "--scheduler", "filequeue",
                  "--lease-ttl", "0"])
        assert excinfo.value.code == 2
        assert "must be > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "dse"])
    def test_jobs_zero_requires_filequeue(self, command):
        # jobs=0 is the external-fleet coordinator mode; it has no
        # meaning for the in-process pool.
        argv = [command, "smoke"] if command == "sweep" else [command]
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--jobs", "0"])
        assert "requires --scheduler filequeue" in str(excinfo.value)

    def test_worker_rejects_bad_kill_after(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker", "--queue-dir", "q",
                  "--chaos-kill-after", "0"])
        assert excinfo.value.code == 2


class TestChaosCampaign:
    """The full fault-injection harness: SIGKILLed workers, corrupted
    lease/task files, an orphan tmp and a poison point — the campaign
    must complete with results cycle-identical to a serial run and the
    failure modes visible as ``repro_fleet_*`` metrics."""

    def test_campaign_survives_every_injected_fault(self, tmp_path):
        report = run_chaos(str(tmp_path), lease_ttl_s=1.5,
                           stall_timeout_s=120.0)
        assert report.ok, report.render()
        assert report.restart_misses == 0
        parsed = parse_prometheus(report.metrics_text)
        assert series_value(
            parsed, "repro_fleet_lease_expiries_total") >= 1
        assert series_value(parsed, "repro_fleet_retries_total") >= 1
        assert series_value(parsed, "repro_fleet_quarantined_total") >= 1
        assert series_value(
            parsed, "repro_fleet_corrupt_files_total") >= 2
        assert series_value(parsed, "repro_fleet_tasks",
                            state="leased") == 0
        assert series_value(parsed, "repro_fleet_tasks",
                            state="pending") == 0

    def test_chaos_sweep_cli_exits_zero_and_reports(self, tmp_path,
                                                    capsys):
        workdir = tmp_path / "campaign"
        assert main(["chaos-sweep", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "chaos: OK" in out
        assert "expiries: 1" in out
        assert "restart recomputed: 0" in out
