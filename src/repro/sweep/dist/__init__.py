"""Crash-tolerant distributed sweep execution (DESIGN.md §10).

A campaign is a directory of task files
(:mod:`repro.sweep.dist.queue`); workers claim tasks by atomic rename,
keep them alive with heartbeat mtimes, and append results to the
content-addressed ResultCache (:mod:`repro.sweep.dist.worker`); a
coordinator supervises — reaping expired leases, retrying with capped
backoff, quarantining poison points — behind the standard
:class:`~repro.sweep.runner.Scheduler` contract
(:mod:`repro.sweep.dist.scheduler`). Fleet health is scraped from the
task files themselves (:mod:`repro.sweep.dist.metrics`), and the whole
failure surface is exercised deterministically by the fault-injection
harness (:mod:`repro.sweep.dist.chaos`, ``repro chaos-sweep``).
"""

from repro.sweep.dist.chaos import ChaosReport, chaos_plan, run_chaos
from repro.sweep.dist.metrics import register_fleet_metrics
from repro.sweep.dist.queue import FileQueue, QueueError, Task
from repro.sweep.dist.scheduler import (
    SCHEDULER_NAMES,
    FileQueueScheduler,
    FleetStats,
)
from repro.sweep.dist.worker import (
    WorkerStats,
    default_worker_id,
    run_worker,
    worker_loop,
)

__all__ = [
    "ChaosReport",
    "chaos_plan",
    "run_chaos",
    "register_fleet_metrics",
    "FileQueue",
    "QueueError",
    "Task",
    "SCHEDULER_NAMES",
    "FileQueueScheduler",
    "FleetStats",
    "WorkerStats",
    "default_worker_id",
    "run_worker",
    "worker_loop",
]
