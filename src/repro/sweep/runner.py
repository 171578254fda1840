"""Sharded execution of sweep plans with persistent caching.

Three layers:

* :func:`run_point` — compute one point on one harness, capturing any
  failure as an ``error`` result instead of raising (per-point failure
  isolation: one bad point never kills a 100-point sweep).
* :class:`ProcessPoolScheduler` — shard points across worker
  processes. Each worker keeps one :class:`~repro.eval.harness.Harness`
  per seed, every point carries its own seed, and results come back in
  plan order, so ``--jobs 4`` is byte-identical to ``--jobs 1``.
  Workers are forked when that is safe and spawned otherwise (see
  :func:`_worker_context`); either way they exit when the batch ends.
* :class:`SweepRunner` — probe the :class:`ResultCache` first, compute
  only the misses (inline or through a :class:`Scheduler`), persist
  the fresh results, and return a :class:`SweepResult` with per-run
  hit/miss accounting and JSON/CSV serialisation.

Schedulers are pluggable: anything satisfying the :class:`Scheduler`
protocol (``run(points) -> list[PointResult]`` in input order) can
back a ``SweepRunner`` — the in-process :class:`ProcessPoolScheduler`
here, or the crash-tolerant distributed
:class:`~repro.sweep.dist.FileQueueScheduler`.
"""

from __future__ import annotations

import csv
import io
import json
import multiprocessing
import sys
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol, runtime_checkable

from repro.sweep.cache import NullCache
from repro.sweep.plan import (
    METRIC_DSE,
    METRIC_TRAFFIC,
    SweepPlan,
    SweepPoint,
)


class SweepError(RuntimeError):
    """A sweep result required by a caller failed to compute."""


@runtime_checkable
class Scheduler(Protocol):
    """Anything that can compute a batch of sweep points.

    Contract: ``run(points)`` returns one :class:`PointResult` per
    input point **in input order**, converting per-point failures into
    ``error`` results rather than raising, and computing each point
    deterministically from ``(point, point.seed)`` so the backend
    choice never changes a number. ``name`` is the CLI-facing backend
    label (``--scheduler <name>``).
    """

    name: str

    def run(self, points) -> "list[PointResult]":
        ...  # pragma: no cover - protocol signature only


@dataclass
class PointResult:
    """Outcome of one point: metrics on success, the error otherwise."""

    point: SweepPoint
    status: str = "ok"
    metrics: dict = field(default_factory=dict)
    error: str | None = None
    #: True when served from the persistent cache without recomputing.
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def seconds(self) -> float | None:
        return self.metrics.get("seconds")


def evaluate_point(point: SweepPoint, harness) -> dict:
    """Compute one point's metrics on ``harness`` (may raise); a
    GNNerator point runs on the config it built at plan time."""
    spec = point.spec
    if point.platform == "gpu":
        return {"seconds": harness.gpu_seconds(spec)}
    if point.platform == "hygcn":
        return {"seconds": harness.hygcn_seconds(spec)}
    config = point.config
    if point.metric == METRIC_DSE:
        return harness.gnnerator_dse_metrics(spec, config)
    if point.metric == METRIC_TRAFFIC:
        program = harness.gnnerator_program(spec, config)
        return {
            "num_operations": program.num_operations,
            "total_dram_bytes": program.total_dram_bytes,
            "dram_bytes_by_purpose": program.dram_bytes_by_purpose(),
        }
    result = harness.gnnerator_result(spec, config)
    return {
        "seconds": result.seconds,
        "cycles": result.cycles,
        "num_operations": result.num_operations,
        "total_dram_bytes": result.total_dram_bytes,
        "dram_bytes_by_purpose": result.dram_bytes_by_purpose,
    }


def run_point(point: SweepPoint, harness) -> PointResult:
    """Compute one point, converting any exception into an error
    result so sibling points keep running."""
    try:
        return PointResult(point, metrics=evaluate_point(point, harness))
    except Exception as exc:  # per-point failure isolation
        detail = (f"{type(exc).__name__}: {exc}\n"
                  f"{traceback.format_exc()}")
        return PointResult(point, status="error", error=detail)


# ---------------------------------------------------------------------
# Worker-process plumbing (must be module-level for pickling)
# ---------------------------------------------------------------------
#: One harness per seed per worker process; graphs, models, params and
#: compiled programs materialise once per process, not once per point —
#: DSE candidates that share a *compile-relevant* config projection
#: reuse the compiled software outright (see ``Harness._compiled``:
#: DRAM/frequency-only variants map to one program), candidates that
#: differ only in compute knobs re-cost one lowered structure, and the
#: rest still share the memoized shard grids hanging off the graph
#: object. Each worker's default
#: harness additionally consults the persistent compiled-program store
#: (``.program-cache``), which all workers — and all later processes —
#: share: a program any worker compiles is published once, atomically,
#: and every other worker's compile becomes a disk load.
_WORKER_HARNESSES: dict[int, object] = {}


def _harness_for(seed: int, store: dict):
    harness = store.get(seed)
    if harness is None:
        from repro.eval.harness import Harness

        harness = store[seed] = Harness(seed=seed)
    return harness


def _worker_run(point: SweepPoint) -> PointResult:
    return run_point(point, _harness_for(point.seed, _WORKER_HARNESSES))


def _run_chunk(worker_fn, chunk: list) -> list:
    """Run one chunk of points inside a worker process."""
    return [worker_fn(point) for point in chunk]


def _worker_context():
    """The multiprocessing context sweep workers start from: ``fork``
    when it is safe, ``spawn`` otherwise.

    Fork if and only if this is Linux and the caller runs no other
    Python thread. A forked worker starts in milliseconds with the
    parent's imports and loaded graphs already in memory, where a
    spawned one re-imports ``repro`` (~0.3 s) and reloads every
    dataset. Both conditions guard against inheriting broken state:

    * repro's memos are guarded by Python locks (the per-graph grid
      lock, the harness compile locks, the cache locks). A child forked
      while another thread holds one inherits it held and deadlocks at
      its first compile. The serve daemon runs ``"jobs" > 1`` sweeps
      from its request threads, so it spawns.
    * on macOS, system frameworks (numpy's Accelerate) are not
      fork-safe, and CPython defaults to spawn there.

    Native BLAS pool threads are not Python threads and do not count:
    fork with numpy loaded was CPython's Linux default until 3.14.
    ``ProcessPoolExecutor`` forks all of its workers before its manager
    thread starts (CPython gh-90622), so the check holds for the whole
    pool. Forking stays cheap in memory because cached feature matrices
    are read-only memory maps (:mod:`repro.graph.datasets`): the parent
    holds graph structure, not features, and no worker reads them.
    """
    method = ("fork" if sys.platform == "linux"
              and threading.active_count() == 1 else "spawn")
    return multiprocessing.get_context(method)


def _preload_datasets(points) -> None:
    """Load every swept dataset once, in the parent.

    Forked workers inherit the loaded graphs, so none of them reads a
    dataset again. Spawned workers share nothing in memory, but the
    first load of a dataset writes the persistent on-disk cache
    (``.dataset-cache/``), so warming it here means N workers each pay
    a ~tens-of-ms cache read instead of racing N full syntheses (a
    cold Pubmed costs ~2.4s, a cold reddit-s ~10s). Unknown datasets
    are skipped: the owning point must fail *in its worker* so the
    error stays isolated to that point.
    """
    from repro.graph.datasets import load_dataset

    for name in sorted({point.dataset for point in points}):
        try:
            load_dataset(name)
        except Exception:
            pass


class ProcessPoolScheduler:
    """Shard points across worker processes, preserving plan order.

    Determinism: every point carries its own seed and workers derive
    all state from (point, seed), so results do not depend on how the
    pool interleaves work. Failures come back as error results, not
    exceptions.

    Start method: each ``run`` starts a fresh pool from
    :func:`_worker_context` — forked from a single-threaded parent on
    Linux, so workers inherit the parent's imports and the graphs
    :func:`_preload_datasets` loaded; spawned otherwise (the serve
    daemon's request threads, macOS, Windows). The pool shuts down
    before ``run`` returns, so no worker outlives its batch.

    Interrupts: a Ctrl-C used to leave workers running to
    completion — ``pool.map`` consumed results inside a ``with`` block
    whose ``__exit__`` is ``shutdown(wait=True)``, so the parent
    *blocked in teardown* until every queued point finished (a
    100-point DSE sweep kept burning CPU for minutes after the user
    gave up). ``run`` now submits cancellable per-chunk futures and on
    ``KeyboardInterrupt`` cancels everything not yet started, SIGTERMs
    the worker processes, and tears the pool down without waiting; the
    interrupt propagates so the CLI can exit 130.

    ``worker_fn`` is a test seam: it must be a picklable module-level
    callable taking one point (a spawned worker re-imports it; a forked
    one inherits it). The interrupt regression test injects a blocking
    function to prove workers actually die.
    """

    name = "pool"

    def __init__(self, jobs: int = 2, worker_fn=_worker_run) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.worker_fn = worker_fn

    def run(self, points) -> list[PointResult]:
        points = list(points)
        if not points:
            return []
        if self.jobs == 1 or len(points) == 1:
            store: dict[int, object] = {}
            return [run_point(p, _harness_for(p.seed, store))
                    for p in points]
        workers = min(self.jobs, len(points))
        # ~4 chunks per worker keeps the tail balanced while each
        # worker gets enough points per IPC round trip; ceil-div so a
        # short plan never degenerates to chunksize 0.
        chunksize = max(1, -(-len(points) // (workers * 4)))
        chunks = [points[i:i + chunksize]
                  for i in range(0, len(points), chunksize)]
        _preload_datasets(points)
        pool = ProcessPoolExecutor(max_workers=workers,
                                   mp_context=_worker_context())
        futures = []
        try:
            futures = [pool.submit(_run_chunk, self.worker_fn, chunk)
                       for chunk in chunks]
            results: list[PointResult] = []
            for future in futures:
                results.extend(future.result())
        except KeyboardInterrupt:
            for future in futures:
                future.cancel()
            # The executor offers no public "stop now": terminate the
            # worker processes directly so blocked points die instead
            # of running to completion after the user hit Ctrl-C.
            for process in list((pool._processes or {}).values()):
                process.terminate()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown()
        return results


@dataclass
class SweepResult:
    """All point results of one sweep run plus run accounting."""

    plan: str
    results: list[PointResult]
    jobs: int
    hits: int
    misses: int
    elapsed_s: float

    @property
    def num_points(self) -> int:
        return len(self.results)

    @property
    def errors(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.errors == 0

    @cached_property
    def _by_point(self) -> dict[SweepPoint, PointResult]:
        """Each point's first result, indexed once: a DSE generation
        looks up every one of its points."""
        index: dict[SweepPoint, PointResult] = {}
        for result in self.results:
            index.setdefault(result.point, result)
        return index

    def result_for(self, point: SweepPoint) -> PointResult:
        result = self._by_point.get(point)
        if result is None:
            raise KeyError(f"no result for point {point.label}")
        return result

    def metrics_for(self, point: SweepPoint) -> dict:
        result = self.result_for(point)
        if not result.ok:
            raise SweepError(
                f"sweep point {point.label} failed: {result.error}")
        return result.metrics

    def seconds_for(self, point: SweepPoint) -> float:
        return self.metrics_for(point)["seconds"]

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "plan": self.plan,
            "jobs": self.jobs,
            "num_points": self.num_points,
            "errors": self.errors,
            "cache": {"hits": self.hits, "misses": self.misses},
            "elapsed_s": self.elapsed_s,
            "points": [{
                "point": result.point.payload(),
                "label": result.point.label,
                "status": result.status,
                "cached": result.cached,
                "error": result.error,
                "metrics": result.metrics,
            } for result in self.results],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    #: Flat column order of :meth:`to_csv`.
    CSV_FIELDS = ("label", "dataset", "network", "platform",
                  "feature_block", "traversal", "hidden_dim", "metric",
                  "seed", "status", "cached", "seconds", "cycles",
                  "total_dram_bytes", "error")

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=self.CSV_FIELDS)
        writer.writeheader()
        for result in self.results:
            row = {key: value for key, value in result.point.payload().items()
                   if key in self.CSV_FIELDS}
            row["label"] = result.point.label
            row["status"] = result.status
            row["cached"] = result.cached
            row["seconds"] = result.metrics.get("seconds")
            row["cycles"] = result.metrics.get("cycles")
            row["total_dram_bytes"] = result.metrics.get("total_dram_bytes")
            row["error"] = ((result.error or "").splitlines() or [""])[0]
            writer.writerow(row)
        return out.getvalue()

    def summary(self) -> str:
        return (f"{self.plan}: {self.num_points} points "
                f"({self.hits} cached, {self.misses} computed, "
                f"{self.errors} errors) in {self.elapsed_s:.1f}s "
                f"at jobs={self.jobs}")


class SweepRunner:
    """Cache-aware front door: probe, compute misses, persist, report.

    ``scheduler`` overrides how cache misses are computed: pass any
    :class:`Scheduler` (e.g. the distributed
    :class:`~repro.sweep.dist.FileQueueScheduler`) and every miss is
    routed through it; otherwise misses run inline (``jobs=1``) or on
    a :class:`ProcessPoolScheduler`. Hit/miss accounting and cache
    persistence are identical across backends, so a restarted campaign
    recomputes exactly the unfinished points whichever scheduler runs.
    """

    def __init__(self, jobs: int = 1, cache=None, harness=None,
                 scheduler: "Scheduler | None" = None) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.cache = cache if cache is not None else NullCache()
        self.scheduler = scheduler
        self._harnesses: dict[int, object] = {}
        if harness is not None:
            self._harnesses[harness.seed] = harness

    def run(self, plan: SweepPlan) -> SweepResult:
        start = time.monotonic()
        results: list[PointResult | None] = []
        pending: list[tuple[int, SweepPoint, dict, str]] = []
        for point in plan.points:
            payload = point.payload()
            key = self.cache.key_for(payload)
            metrics = self.cache.cached_metrics(key)
            if metrics is not None:
                results.append(PointResult(point, metrics=metrics,
                                           cached=True))
            else:
                pending.append((len(results), point, payload, key))
                results.append(None)
        if pending:
            missed = [point for _, point, _, _ in pending]
            if self.scheduler is not None:
                computed = self.scheduler.run(missed)
            elif self.jobs > 1 and len(missed) > 1:
                computed = ProcessPoolScheduler(self.jobs).run(missed)
            else:
                computed = [run_point(p, _harness_for(p.seed,
                                                      self._harnesses))
                            for p in missed]
            for (index, _, payload, key), result in zip(pending,
                                                        computed):
                results[index] = result
                if result.ok:
                    self.cache.put_metrics(key, payload, result.metrics)
        return SweepResult(
            plan=plan.name,
            results=results,
            jobs=self.jobs,
            hits=len(plan.points) - len(pending),
            misses=len(pending),
            elapsed_s=time.monotonic() - start,
        )
