"""Deterministic fault-injection harness for the fleet.

``run_chaos`` stages one small campaign and injects every failure mode
the lease protocol claims to survive, at deterministic points:

* **Worker SIGKILLed mid-point** — two victim workers started with
  ``--chaos-kill-after 1`` each claim one task and kill themselves
  while holding the lease (no handler runs, nothing is released).
* **Corrupted lease file** — one victim's orphaned lease is
  overwritten with garbage bytes, so the reaper must take the
  quarantine-and-re-enqueue path instead of the expiry path.
* **Corrupted task file** — one pending task file is truncated to
  garbage before any worker starts; the first claimant must move it
  aside and the coordinator must re-enqueue the id.
* **Writer crashed between tmp-write and replace** — an orphan
  ``.*.tmp`` file is pre-seeded in ``pending/``; every scan must
  ignore it.
* **Poison point** — one point references an unknown dataset, fails
  on every attempt, and must end quarantined in ``failed/`` with its
  traceback instead of wedging the campaign.
* **Damaged result records** — after the campaign, the survivor's
  result segment is truncated in the middle of its last line; after
  the restart that recomputes that point, one byte of the record the
  coordinator appended for it, in its own segment, is flipped.

The harness then asserts the three properties the subsystem is for:
every valid point completes with metrics *byte-identical* to a serial
``SweepRunner(jobs=1)`` baseline; each injected failure is visible as
a dedicated ``repro_fleet_*`` metric scraped through the obs
registry; and a restarted coordinator on the warm cache recomputes
exactly the damaged points, byte-identical again, and then nothing.
Failures are collected into a :class:`ChaosReport` rather than
raised, so ``repro chaos-sweep`` can print the full picture before
exiting non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import (
    MetricRegistry,
    parse_prometheus,
    render_prometheus,
    series_value,
)
from repro.sweep.cache import ResultCache
from repro.sweep.dist.metrics import register_fleet_metrics
from repro.sweep.dist.queue import FileQueue, _read_json
from repro.sweep.dist.scheduler import FileQueueScheduler
from repro.sweep.plan import SweepPlan, SweepPoint
from repro.sweep.runner import SweepRunner

#: Unknown-dataset point that must quarantine, never complete.
POISON_DATASET = "chaos-poison"


def chaos_plan() -> tuple[SweepPlan, SweepPlan]:
    """``(full, valid)`` plans: a tiny-gcn grid plus one poison point.

    The grid is deliberately small (sub-second per point) so the
    harness's wall-clock is dominated by the faults it waits out, not
    the compute.
    """
    valid = [
        SweepPoint(dataset="tiny", network="gcn", hidden_dim=8,
                   feature_block=8),
        SweepPoint(dataset="tiny", network="gcn", hidden_dim=8,
                   feature_block=None),
        SweepPoint(dataset="tiny", network="gcn", hidden_dim=16,
                   feature_block=8),
        SweepPoint(dataset="tiny", network="graphsage", hidden_dim=8,
                   feature_block=8),
    ]
    poison = SweepPoint(dataset=POISON_DATASET, network="gcn",
                        hidden_dim=8, feature_block=8)
    return (SweepPlan("chaos", tuple(valid + [poison])),
            SweepPlan("chaos-valid", tuple(valid)))


@dataclass
class ChaosReport:
    """Everything one campaign observed, plus the verdict."""

    problems: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    metrics_text: str = ""
    elapsed_s: float = 0.0
    points: int = 0
    #: Points whose records each restart found damaged, and the points
    #: it recomputed; they must agree.
    damaged: list = field(default_factory=list)
    restart_misses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)

    def render(self) -> str:
        lines = [f"chaos campaign: {self.points} point(s) in "
                 f"{self.elapsed_s:.1f}s"]
        for name in ("expiries", "retries", "failures", "quarantined",
                     "corrupt"):
            lines.append(f"  {name}: {self.stats.get(name, '?')}")
        lines.append(f"  restarts recomputed: "
                     f"{', '.join(map(str, self.restart_misses))} "
                     f"point(s), damaged "
                     f"{', '.join(map(str, self.damaged))}")
        if self.ok:
            lines.append("chaos: OK — every fault survived, results "
                         "cycle-identical to the serial run")
        else:
            lines.append(f"chaos: FAILED ({len(self.problems)} "
                         f"problem(s))")
            lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def _worker_command(queue_dir: str, worker_id: str,
                    kill_after: int | None = None) -> list:
    command = [sys.executable, "-m", "repro", "worker",
               "--queue-dir", queue_dir, "--worker-id", worker_id,
               "--poll", "0.05"]
    if kill_after is not None:
        command += ["--chaos-kill-after", str(kill_after)]
    return command


def _worker_env() -> dict:
    """Subprocess env that can ``import repro`` even when the package
    is run from a source tree rather than installed."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[3])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (package_root if not existing
                         else package_root + os.pathsep + existing)
    return env


def _spawn_worker(queue_dir: str, worker_id: str,
                  kill_after: int | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        _worker_command(queue_dir, worker_id, kill_after),
        env=_worker_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _await_victims(victims: list, report: ChaosReport,
                   timeout_s: float) -> None:
    """Victim workers SIGKILL themselves after their first claim; a
    victim exiting any other way means the fault was not injected."""
    for worker_id, process in victims:
        try:
            process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
            report.problems.append(
                f"victim {worker_id} did not die within {timeout_s}s")
            continue
        if process.returncode != -9:
            report.problems.append(
                f"victim {worker_id} exited {process.returncode}, "
                f"expected SIGKILL (-9): "
                f"{(process.stderr.read() or '')[-300:]}")


def _check_identical(report: ChaosReport, result, baseline, plan,
                     when: str) -> None:
    """Every point of ``plan`` in ``result`` is ok, with metrics
    byte-identical to the serial ``baseline``'s."""
    for point in plan.points:
        outcome = result.result_for(point)
        if not outcome.ok:
            report.problems.append(
                f"point {point.label} failed {when}: "
                f"{(outcome.error or '').splitlines()[0]}")
            continue
        expected = baseline.result_for(point).metrics
        if (json.dumps(outcome.metrics, sort_keys=True)
                != json.dumps(expected, sort_keys=True)):
            report.problems.append(
                f"cycle drift on {point.label} {when}: fleet "
                f"{outcome.metrics} != serial {expected}")


def _damage_last_line(segment: Path, tear: bool) -> None:
    """Fault: truncate ``segment`` in the middle of its last line, or
    flip one bit of that line's record, leaving valid JSON that its CRC
    no longer matches."""
    data = bytearray(segment.read_bytes())
    if tear:
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        del data[(start + len(data)) // 2:]
    else:
        data[-4] ^= 0x01  # the "k" of the record's "ok"}
    segment.write_bytes(bytes(data))


def run_chaos(workdir: str, *, lease_ttl_s: float = 1.5,
              stall_timeout_s: float = 120.0) -> ChaosReport:
    """Run the full fault-injection campaign under ``workdir``."""
    start = time.monotonic()
    report = ChaosReport()
    workdir_path = Path(workdir)
    queue_dir = str(workdir_path / "queue")
    chaos_cache = str(workdir_path / "chaos-cache")
    baseline_cache = str(workdir_path / "baseline-cache")
    full_plan, valid_plan = chaos_plan()
    report.points = len(full_plan.points)

    # Serial ground truth, fully isolated cache.
    baseline = SweepRunner(jobs=1,
                           cache=ResultCache(baseline_cache)).run(valid_plan)
    report.check(baseline.ok, "serial baseline failed — environment "
                              "problem, not a fleet problem")

    # Stage the queue before any worker exists, so faults can be
    # injected at exact protocol states.
    queue = FileQueue(queue_dir, lease_ttl_s=lease_ttl_s,
                      max_attempts=3, backoff_base_s=0.05,
                      backoff_cap_s=0.2, cache_dir=chaos_cache)
    keyer = ResultCache(chaos_cache)
    payloads = {keyer.key_for(point.payload()): point.payload()
                for point in full_plan.points}
    queue.ensure(payloads)

    # Fault: torn writer — an orphan tmp the scans must never match.
    orphan = queue.pending_dir / ".deadbeef.json.12345.1.tmp"
    orphan.write_text('{"schema": 1, "id": "dead')

    # Fault: corrupted task file (first valid task in scan order).
    victim_task = sorted(queue.pending_dir.glob("*.json"))[0]
    victim_task.write_text("not json {{{")

    # Fault: two workers die holding leases.
    victims = [("victim-a", _spawn_worker(queue_dir, "victim-a",
                                          kill_after=1)),
               ("victim-b", _spawn_worker(queue_dir, "victim-b",
                                          kill_after=1))]
    _await_victims(victims, report, timeout_s=60.0)

    # Fault: one orphaned lease is corrupted (reaper must quarantine
    # it); the other is left intact (reaper must expire it).
    leases = {path: _read_json(path)
              for path in sorted(queue.leases_dir.glob("*.json"))}
    report.check(len(leases) == 2,
                 f"expected 2 orphaned leases, found {len(leases)}")
    corrupted_lease = next(
        (path for path, record in leases.items()
         if record and record.get("worker") == "victim-b"), None)
    if corrupted_lease is not None:
        corrupted_lease.write_bytes(b"\x00garbage\x00" * 3)
    else:
        report.problems.append("victim-b left no readable lease to "
                               "corrupt")

    # Recovery: one survivor plus the coordinator (jobs=0 — every
    # point is computed by the external fleet, i.e. the survivor).
    survivor = _spawn_worker(queue_dir, "survivor")
    scheduler = FileQueueScheduler(jobs=0, queue_dir=queue_dir,
                                   cache_dir=chaos_cache,
                                   poll_s=0.05,
                                   stall_timeout_s=stall_timeout_s)
    runner = SweepRunner(cache=ResultCache(chaos_cache),
                         scheduler=scheduler)
    try:
        result = runner.run(full_plan)
    finally:
        try:
            survivor.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            survivor.kill()
            survivor.wait()
            report.problems.append("survivor did not exit after the "
                                   "queue closed")

    # Verdict 1: completeness + cycle-identical results.
    _check_identical(report, result, baseline, valid_plan, "under chaos")
    poison = full_plan.points[-1]
    poison_outcome = result.result_for(poison)
    report.check(not poison_outcome.ok,
                 "poison point unexpectedly succeeded")
    report.check(queue.state_of(keyer.key_for(poison.payload()))
                 == "failed",
                 "poison point is not quarantined in failed/")

    # Verdict 2: every fault is visible as a repro_ metric.
    registry = MetricRegistry()
    register_fleet_metrics(registry, queue)
    report.metrics_text = render_prometheus(registry)
    parsed = parse_prometheus(report.metrics_text)
    report.stats = queue.stats()
    checks = (("repro_fleet_lease_expiries_total", 1,
               "no lease expiry observed (reaper never fired?)"),
              ("repro_fleet_retries_total", 1,
               "no retry observed"),
              ("repro_fleet_failures_total", 1,
               "no worker failure observed"),
              ("repro_fleet_quarantined_total", 1,
               "poison point not counted as quarantined"),
              ("repro_fleet_corrupt_files_total", 2,
               "corrupted task+lease files not both quarantined"))
    for name, minimum, problem in checks:
        value = series_value(parsed, name)
        if value < minimum:
            report.problems.append(f"{problem} ({name}={value})")
    for state, want_zero in (("pending", True), ("leased", True)):
        value = series_value(parsed, "repro_fleet_tasks", state=state)
        if want_zero and value != 0:
            report.problems.append(
                f"{value:.0f} task(s) left {state} after completion")
    report.check(orphan.exists(),
                 "orphan tmp file was consumed by a scan (atomicity "
                 "leak: scans must only match *.json)")

    # Verdict 3: a restarted coordinator recomputes exactly the points
    # whose records were damaged, then nothing. The fleet stored every
    # record, so the coordinator's put appended none.
    def restart(damaged: int) -> None:
        report.damaged.append(damaged)
        result = SweepRunner(
            cache=ResultCache(chaos_cache),
            scheduler=FileQueueScheduler(jobs=0, queue_dir=queue_dir,
                                         cache_dir=chaos_cache,
                                         poll_s=0.05,
                                         stall_timeout_s=stall_timeout_s),
        ).run(valid_plan)
        report.restart_misses.append(result.misses)
        _check_identical(report, result, baseline, valid_plan,
                         "after a restart")

    ours = f"-{os.getpid()}.log"
    torn = sorted(Path(chaos_cache).glob("*/*.log"))
    report.check(len(torn) == 1 and not torn[0].name.endswith(ours),
                 f"expected only the survivor's result segment, found "
                 f"{[path.name for path in torn]}")
    for segment in torn[:1]:
        _damage_last_line(segment, tear=True)
    restart(len(torn[:1]))
    flipped = sorted(Path(chaos_cache).glob(f"*/*{ours}"))
    for segment in flipped:
        _damage_last_line(segment, tear=False)
    restart(len(flipped))
    restart(0)
    report.check(report.restart_misses == report.damaged,
                 f"restarted coordinator recomputed "
                 f"{report.restart_misses} point(s), expected exactly "
                 f"the damaged {report.damaged}")

    report.elapsed_s = time.monotonic() - start
    return report
