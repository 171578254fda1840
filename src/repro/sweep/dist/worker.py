"""Fleet worker: claim → compute → publish, with heartbeats and drain.

One worker is a loop over :meth:`FileQueue.claim`. For every claimed
task it probes the shared :class:`~repro.sweep.cache.ResultCache`
first (a point another worker — or a previous campaign — already
computed completes without touching a harness), computes the miss with
the same :func:`~repro.sweep.runner.run_point` path the in-process
schedulers use, publishes ok results to both the cache and ``done/``,
and routes errors through the queue's retry/quarantine policy.

Liveness is a daemon heartbeat thread touching the current lease's
mtime every TTL/4, so a worker is declared dead only after missing
several beats. Graceful drain mirrors ``repro serve``: SIGTERM sets a
stop flag, the in-flight point runs to completion and is published,
and no further task is claimed. SIGKILL is the crash case the lease
protocol exists for — the orphaned lease expires and a survivor
re-runs the point.

``kill_after`` is the chaos hook: the worker SIGKILLs *itself* after
claiming its Nth task, deterministically reproducing "died holding a
lease, point not finished" for the fault-injection harness.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass

from repro.sweep.cache import result_cache_at
from repro.sweep.dist.queue import FileQueue, Task
from repro.sweep.plan import SweepPoint
from repro.sweep.runner import _harness_for, run_point


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker did before it exited."""

    claims: int = 0
    computed: int = 0
    cached: int = 0
    failed: int = 0

    def summary(self) -> str:
        return (f"{self.claims} claim(s): {self.computed} computed, "
                f"{self.cached} from cache, {self.failed} failed")


def point_from_payload(payload: dict) -> SweepPoint:
    """Rebuild a :class:`SweepPoint` from its JSON payload.

    ``SweepPoint.__post_init__`` re-validates and re-canonicalises
    (``config_overrides`` comes back as lists; ``freeze_overrides``
    restores the tuple form), so a payload corrupted into something
    invalid raises here and flows into the retry/quarantine path.
    """
    return SweepPoint(**payload)


def _heartbeat(queue: FileQueue, current: dict, interval: float,
               stop: threading.Event) -> None:
    while not stop.wait(interval):
        task_id = current.get("id")
        if task_id is not None:
            queue.renew(task_id)


def worker_loop(queue: FileQueue, *,
                worker_id: str | None = None,
                stop: threading.Event | None = None,
                poll_s: float = 0.2,
                max_idle_s: float | None = None,
                kill_after: int | None = None,
                reap: bool = True) -> WorkerStats:
    """Serve the queue until it closes, ``stop`` is set, or the worker
    has been idle for ``max_idle_s``. Returns this worker's stats.

    ``reap=True`` lets idle workers return expired leases themselves —
    reaping is idempotent, so a pure ``repro worker`` fleet makes
    progress even between coordinator polls.
    """
    worker_id = worker_id or default_worker_id()
    stop = stop if stop is not None else threading.Event()
    cache = result_cache_at(queue.cache_dir)
    harnesses: dict[int, object] = {}
    stats = WorkerStats()
    current: dict = {"id": None}
    hb_stop = threading.Event()
    interval = max(queue.lease_ttl_s / 4.0, 0.02)
    heartbeat = threading.Thread(
        target=_heartbeat, args=(queue, current, interval, hb_stop),
        daemon=True)
    heartbeat.start()
    idle_since = time.monotonic()
    try:
        while not stop.is_set():
            if queue.is_closed():
                break
            task = queue.claim(worker_id)
            if task is None:
                if reap:
                    queue.reap()
                idle = time.monotonic() - idle_since
                if max_idle_s is not None and idle >= max_idle_s:
                    break
                stop.wait(poll_s)
                continue
            idle_since = time.monotonic()
            stats.claims += 1
            current["id"] = task.id
            if kill_after is not None and stats.claims >= kill_after:
                # Chaos: die holding the lease, mid-point. SIGKILL on
                # purpose — no handler runs, nothing is released.
                os.kill(os.getpid(), signal.SIGKILL)
            try:
                _process(queue, cache, harnesses, task, worker_id, stats)
            finally:
                current["id"] = None
    finally:
        hb_stop.set()
        heartbeat.join(timeout=2.0)
    return stats


def _process(queue: FileQueue, cache, harnesses: dict, task: Task,
             worker_id: str, stats: WorkerStats) -> None:
    """One claimed task end to end; never raises (errors become
    retry/quarantine transitions)."""
    try:
        key = cache.key_for(task.payload)
        metrics = cache.cached_metrics(key)
        if metrics is not None:
            queue.complete(task, metrics, cached=True, worker=worker_id)
            stats.cached += 1
            return
        point = point_from_payload(task.payload)
        result = run_point(point, _harness_for(point.seed, harnesses))
    except Exception as exc:  # undecodable payload, cache I/O, ...
        detail = (f"{type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc()}")
        queue.fail(task, detail, worker=worker_id)
        stats.failed += 1
        return
    if result.ok:
        cache.put_metrics(key, task.payload, result.metrics)
        queue.complete(task, result.metrics, worker=worker_id)
        stats.computed += 1
    else:
        queue.fail(task, result.error or "point failed", worker=worker_id)
        stats.failed += 1


def run_worker(queue_dir: str, *,
               worker_id: str | None = None,
               poll_s: float = 0.2,
               max_idle_s: float | None = None,
               kill_after: int | None = None,
               install_sigterm: bool = True) -> WorkerStats:
    """Process entry point (CLI and scheduler-spawned workers): attach
    to an existing queue, install the SIGTERM drain handler, and serve.

    Must stay module-level and picklable: a spawned child re-imports
    it (a forked one inherits it; see
    :func:`repro.sweep.runner._worker_context`).
    """
    stop = threading.Event()
    if install_sigterm:
        def _drain(signum, frame):
            stop.set()

        signal.signal(signal.SIGTERM, _drain)
    queue = FileQueue.open(queue_dir)
    return worker_loop(queue, worker_id=worker_id, stop=stop,
                       poll_s=poll_s, max_idle_s=max_idle_s,
                       kill_after=kill_after)
