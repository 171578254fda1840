"""FileQueueScheduler: the crash-tolerant distributed sweep backend.

Implements the :class:`~repro.sweep.runner.Scheduler` contract —
``run(points) -> list[PointResult]`` in input order — on top of the
shared-directory :class:`~repro.sweep.dist.queue.FileQueue`. The
coordinator enqueues every point as a content-addressed task (ids are
:meth:`ResultCache.key_for` of the point payload, so a task id *is*
the result-cache key), optionally spawns local worker processes, and
then drives a supervision loop: reap expired leases, re-enqueue ids
that vanished (corrupt-file recovery), respawn dead local workers
while work remains, and detect stalls. External workers joined with
``repro worker --queue-dir ...`` participate identically — ``jobs=0``
runs a coordinator with no local workers at all.

Resume is free: the queue directory *is* the campaign state. A
restarted coordinator re-ensures the same task ids, finds the
completed ones already in ``done/``, and only the unfinished points
ever reach a worker.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field

from repro.sweep.cache import result_cache_at
from repro.sweep.dist.queue import FileQueue
from repro.sweep.dist.worker import run_worker
from repro.sweep.runner import (
    PointResult,
    SweepError,
    _preload_datasets,
    _worker_context,
)

#: Scheduler backends selectable via ``repro sweep/dse --scheduler``.
SCHEDULER_NAMES = ("pool", "filequeue")


def _fleet_worker(queue_dir: str, worker_id: str) -> None:
    """Module-level process target (spawn must be able to pickle it)."""
    run_worker(queue_dir, worker_id=worker_id)


@dataclass
class FleetStats:
    """Coordinator-side accounting for one ``run`` call."""

    spawned: int = 0
    respawned: int = 0
    reaped: int = 0
    reenqueued: int = 0
    supervision_rounds: int = 0
    worker_ids: list = field(default_factory=list)


class FileQueueScheduler:
    """Run sweep points through a shared-directory work queue.

    ``jobs`` local workers are started per ``run`` call (``jobs=0``
    coordinates an external fleet only), forked or spawned by the
    process pool's rule (:func:`~repro.sweep.runner._worker_context`).
    ``queue_dir=None`` uses a private temporary queue torn down
    afterwards; pass a real path to make the campaign resumable and
    joinable by other hosts.
    """

    name = "filequeue"

    def __init__(self, jobs: int = 2, *,
                 queue_dir: str | None = None,
                 cache_dir: str | None = None,
                 lease_ttl_s: float = 30.0,
                 max_attempts: int = 3,
                 backoff_base_s: float = 0.25,
                 backoff_cap_s: float = 30.0,
                 poll_s: float = 0.05,
                 stall_timeout_s: float = 600.0,
                 max_respawns: int | None = None) -> None:
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {jobs}")
        self.jobs = jobs
        self.queue_dir = queue_dir
        self.cache_dir = cache_dir
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.poll_s = poll_s
        self.stall_timeout_s = stall_timeout_s
        # Enough budget to replace every seat through max_attempts
        # crash rounds, but finite so a crash-looping fleet terminates.
        self.max_respawns = (max_respawns if max_respawns is not None
                             else jobs * max_attempts)
        self.stats = FleetStats()

    # -- Scheduler contract -------------------------------------------
    def run(self, points) -> list[PointResult]:
        points = list(points)
        if not points:
            return []
        self.stats = FleetStats()
        queue_dir = self.queue_dir
        cleanup = queue_dir is None
        if cleanup:
            queue_dir = tempfile.mkdtemp(prefix="repro-fleet-")
        queue = FileQueue(queue_dir,
                          lease_ttl_s=self.lease_ttl_s,
                          max_attempts=self.max_attempts,
                          backoff_base_s=self.backoff_base_s,
                          backoff_cap_s=self.backoff_cap_s,
                          cache_dir=self.cache_dir)
        # A previous run over this directory left its campaign-complete
        # marker behind (run() closes the queue on exit). Clear it, or
        # every worker — freshly spawned or externally attached — sees
        # is_closed() and exits before claiming, and any new cache-miss
        # point stalls the coordinator until stall_timeout_s.
        queue.reopen()
        keyer = result_cache_at(self.cache_dir)
        order = [(keyer.key_for(point.payload()), point)
                 for point in points]
        payloads = {task_id: point.payload() for task_id, point in order}
        queue.ensure(payloads)
        if self.jobs:
            _preload_datasets(points)
        workers = [self._start(queue_dir, f"fleet-w{index}")
                   for index in range(min(self.jobs, len(points)))]
        try:
            self._drive(queue, payloads, workers, queue_dir)
        finally:
            queue.close()
            self._join(workers)
        results = self._collect(queue, order)
        if cleanup:
            shutil.rmtree(queue_dir, ignore_errors=True)
        return results

    # -- fleet management ---------------------------------------------
    def _start(self, queue_dir: str, worker_id: str):
        process = _worker_context().Process(target=_fleet_worker,
                                            args=(queue_dir, worker_id),
                                            daemon=False)
        process.start()
        self.stats.spawned += 1
        self.stats.worker_ids.append(worker_id)
        return process

    def _join(self, workers, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        for process in workers:
            if process is None:
                continue
            process.join(timeout=max(deadline - time.monotonic(), 0.1))
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                # SIGTERM is a graceful drain — a worker mid-point can
                # outlive the grace period. Escalate so no live child
                # leaks past run() (the temp-queue path deletes the
                # queue directory right after this).
                process.kill()
                process.join(timeout=5.0)

    def _drive(self, queue: FileQueue, payloads: dict,
               workers: list, queue_dir: str) -> None:
        """Supervise until every task id is terminal.

        Progress (any new terminal task, or a reaped lease) resets the
        stall clock; a fleet making none for ``stall_timeout_s`` —
        e.g. ``jobs=0`` with no external worker attached — raises
        instead of spinning forever.
        """
        ids = sorted(payloads)
        stall_deadline = time.monotonic() + self.stall_timeout_s
        last_terminal = -1
        while True:
            self.stats.supervision_rounds += 1
            reaped = queue.reap()
            self.stats.reaped += reaped
            states = queue.states()
            terminal = sum(1 for task_id in ids
                           if states.get(task_id) in ("done", "failed"))
            if terminal == len(ids):
                return
            if terminal != last_terminal or reaped:
                last_terminal = terminal
                stall_deadline = time.monotonic() + self.stall_timeout_s
            missing = {task_id: payloads[task_id] for task_id in ids
                       if task_id not in states}
            if missing:  # task file quarantined as corrupt: re-enqueue
                self.stats.reenqueued += queue.ensure(missing)
            self._respawn_dead(workers, queue, queue_dir)
            if time.monotonic() > stall_deadline:
                stuck = [task_id[:12] for task_id in ids
                         if states.get(task_id) not in ("done", "failed")]
                raise SweepError(
                    f"fleet stalled: {len(stuck)} point(s) made no "
                    f"progress for {self.stall_timeout_s:.0f}s "
                    f"(queue {queue_dir}, stuck ids {stuck[:5]}...); "
                    f"attach workers with: repro worker --queue-dir "
                    f"{queue_dir}")
            time.sleep(self.poll_s)

    def _respawn_dead(self, workers: list, queue: FileQueue,
                      queue_dir: str) -> None:
        for index, process in enumerate(workers):
            if process is None or process.is_alive():
                continue
            process.join()
            workers[index] = None
            if self.stats.respawned < self.max_respawns:
                self.stats.respawned += 1
                workers[index] = self._start(
                    queue_dir, f"fleet-w{index}r{self.stats.respawned}")

    # -- result collection --------------------------------------------
    def _collect(self, queue: FileQueue, order) -> list[PointResult]:
        results = []
        for task_id, point in order:
            state, record = queue.result(task_id)
            if state == "done":
                results.append(PointResult(point,
                                           metrics=record["metrics"]))
            elif state == "failed":
                results.append(PointResult(
                    point, status="error",
                    error=record.get("error") or "quarantined"))
            else:  # unreachable once _drive returned; belt and braces
                results.append(PointResult(
                    point, status="error",
                    error=f"point never reached a terminal state "
                          f"(task {task_id[:12]})"))
        return results
