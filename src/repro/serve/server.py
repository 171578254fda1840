"""The HTTP frontend and shared state of ``repro serve``.

Process layout (DESIGN.md §7): ONE daemon process holds every warm
cache — the thread-safe :class:`~repro.eval.harness.Harness` (datasets
pinned and memmapped, compiled-program memo), the persistent
ProgramStore and the sweep ResultCache handles. HTTP handler threads
(one per connection, stdlib ``ThreadingHTTPServer``) do no simulation
work themselves: they validate, submit to the bounded
:class:`~repro.serve.workqueue.WorkQueue`, and block on the job's
completion event. The queue's worker threads run the executors of
:mod:`.protocol` (the ones the CLI calls in process) against the
shared harness; ``sweep``/``dse`` requests with ``jobs > 1``
additionally fan out to worker *processes* through the existing
:class:`~repro.sweep.runner.ProcessPoolScheduler`, which spawns them
here: the daemon's threads rule out fork.
"""

from __future__ import annotations

import itertools
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.logs import JsonLogger
from repro.obs.metrics import MetricRegistry, render_prometheus
from repro.serve.protocol import (
    ENDPOINTS,
    ProtocolError,
    ServeRequest,
    execute_dse,
    execute_perf,
    execute_run,
    execute_sweep,
    parse_request,
)
from repro.serve.workqueue import (
    JobExpired,
    QueueClosed,
    QueueFull,
    WorkQueue,
)

#: Handler threads give up on a job after this long (HTTP 500). Far
#: above any legitimate request; guards a wedged worker from leaking
#: connections forever.
DEFAULT_REQUEST_TIMEOUT_S = 600.0


class ServeState:
    """Everything the daemon shares across requests."""

    def __init__(self, seed: int = 0, workers: int = 2, depth: int = 32,
                 cache_dir: str = ".sweep-cache",
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
                 log_level: str = "info") -> None:
        from repro.eval.harness import Harness
        from repro.sweep import result_cache_at

        self.harness = Harness(seed=seed)
        self.seed = seed
        self.request_timeout_s = request_timeout_s
        self.queue = WorkQueue(workers=workers, depth=depth)
        self.started_at = time.monotonic()
        self._counter_lock = threading.Lock()
        self.request_counts = {endpoint: 0 for endpoint in ENDPOINTS}
        self.logger = JsonLogger(level=log_level)
        #: Monotonic per-daemon request ids ("req-000001", ...), minted
        #: at POST arrival and echoed in every response payload and
        #: per-request log line — including 429/500, so a client can
        #: quote the id when reporting a failure.
        self.request_ids = itertools.count(1)
        # One ResultCache for the daemon's lifetime (it hashes the code
        # tree at construction), shared by every sweep/dse request and
        # scraped as the "result-cache" layer of the cache metrics.
        self.result_cache = result_cache_at(cache_dir)
        self.metrics = MetricRegistry()
        self._build_metrics()
        # The shared executors over the daemon's warm harness and result
        # cache, each returning its JSON payload. Indirection so tests
        # can wrap one (e.g. to gate its start and observe coalescing
        # deterministically).
        self.executors = {
            "run": lambda request: execute_run(request, self.harness)[0],
            "sweep": lambda request: execute_sweep(
                request, self.harness, self.result_cache).to_dict(),
            "dse": lambda request: execute_dse(
                request, self.harness, self.result_cache).to_dict(),
            "perf": lambda request: execute_perf(
                request, self.harness.program_store),
        }

    def _build_metrics(self) -> None:
        """Register the daemon's instrument set (DESIGN.md §8).

        Direct instruments (request counter, latency histograms) are
        incremented by the handler; everything that already has a
        source of truth — queue counters, cache hit/miss pairs, the
        lowering counter — is exposed through callback instruments
        that read it at scrape time, so nothing is double-counted.
        """
        from repro.compiler.lowering import full_lowering_count

        m, q = self.metrics, self.queue
        self.requests_total = m.counter(
            "repro_requests_total",
            "HTTP requests by endpoint and response status",
            labels=("endpoint", "status"))
        self.request_latency = m.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (arrival to response)",
            labels=("endpoint",))
        self.queue_wait = m.histogram(
            "repro_request_queue_wait_seconds",
            "Time a job waited in the work queue before a worker "
            "picked it up")
        m.gauge("repro_queue_depth",
                "Jobs waiting in the work queue",
                fn=lambda: len(q._pending))
        m.gauge("repro_queue_running",
                "Jobs currently executing on queue workers",
                fn=lambda: q._running)
        m.counter("repro_queue_submitted_total",
                  "Jobs accepted into the work queue",
                  fn=lambda: q.submitted)
        m.counter("repro_queue_coalesced_total",
                  "Requests that attached to an identical in-flight job",
                  fn=lambda: q.coalesced)
        m.counter("repro_queue_rejected_total",
                  "Requests rejected with HTTP 429 (queue full)",
                  fn=lambda: q.rejected)
        m.counter("repro_queue_completed_total",
                  "Jobs that finished without error",
                  fn=lambda: q.completed)
        m.counter("repro_queue_errors_total",
                  "Jobs whose executor raised",
                  fn=lambda: q.errors)
        m.counter("repro_queue_expired_total",
                  "Jobs answered 504: queued past their timeout_s "
                  "deadline, never executed",
                  fn=lambda: q.expired)
        m.counter("repro_full_lowerings_total",
                  "Complete workload lowerings in this process",
                  fn=full_lowering_count)
        m.gauge("repro_datasets_pinned",
                "Datasets held in the harness memory cache",
                fn=lambda: len(self.harness._datasets))
        m.gauge("repro_uptime_seconds",
                "Seconds since the daemon started",
                fn=lambda: time.monotonic() - self.started_at)
        m.counter("repro_cache_hits_total",
                  "Cache hits by layer", labels=("layer",),
                  fn=self._cache_series("hits"))
        m.counter("repro_cache_misses_total",
                  "Cache misses by layer", labels=("layer",),
                  fn=self._cache_series("misses"))

    def _cache_layers(self) -> dict[str, dict]:
        """Hit/miss dicts for every cache layer the daemon touches."""
        from repro.graph.datasets import disk_cache_stats

        caches = self.harness.cache_stats()
        layers = {
            "harness-memo": caches["memo"],
            "harness-structure": caches["structure"],
            "dataset-disk": disk_cache_stats(),
            "result-cache": self.result_cache.stats,
        }
        if "store" in caches:
            layers["program-store"] = store = caches["store"]
            layers["program-store-structure"] = {
                "hits": store["structure_hits"],
                "misses": store["structure_misses"]}
        return layers

    def _cache_series(self, field: str):
        def read() -> dict[tuple, float]:
            return {(layer,): float(stats[field])
                    for layer, stats in sorted(self._cache_layers()
                                               .items())}
        return read

    def render_metrics(self) -> str:
        return render_prometheus(self.metrics)

    # -- request flow --------------------------------------------------
    def submit(self, request: ServeRequest):
        """Queue one parsed request; returns ``(job, coalesced)``."""
        with self._counter_lock:
            self.request_counts[request.endpoint] += 1
        executor = self.executors[request.endpoint]
        return self.queue.submit(request.key(),
                                 lambda: executor(request),
                                 timeout_s=request.timeout_s)

    # -- introspection -------------------------------------------------
    def stats(self) -> dict:
        from repro.compiler.lowering import full_lowering_count
        from repro.graph.datasets import disk_cache_stats

        with self._counter_lock:
            counts = dict(self.request_counts)
        caches = self.harness.cache_stats()
        caches["full_lowerings"] = full_lowering_count()
        caches["dataset_disk"] = disk_cache_stats()
        caches["datasets_pinned"] = len(self.harness._datasets)
        return {
            "uptime_s": round(time.monotonic() - self.started_at, 3),
            "seed": self.seed,
            "queue": self.queue.stats(),
            "requests": counts,
            "caches": caches,
        }

    def drain(self, timeout: float | None = 30.0) -> bool:
        return self.queue.stop(drain=True, timeout=timeout)


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON-over-HTTP adapter; all policy lives in ServeState."""

    server_version = "repro-serve/1.0"

    @property
    def state(self) -> ServeState:
        return self.server.state  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 (stdlib name)
        # Stdlib access-log lines (one per request, connection noise)
        # go through the structured logger at debug level instead of
        # being written raw to stderr — `--log-level debug` shows them.
        self.state.logger.debug("http", client=self.address_string(),
                                message=format % args)

    def _respond(self, code: int, payload: dict,
                 headers: dict[str, str] | None = None) -> None:
        self._respond_text(code, json.dumps(payload, sort_keys=True)
                           + "\n", "application/json", headers)

    def _respond_text(self, code: int, text: str, content_type: str,
                      headers: dict[str, str] | None = None) -> None:
        body = text.encode()
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        try:
            self.wfile.write(body)
        except BrokenPipeError:
            pass  # client went away; nothing to salvage

    # -- GET -----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
        if self.path == "/healthz":
            self._respond(200, {"status": "ok"})
        elif self.path == "/stats":
            self._respond(200, self.state.stats())
        elif self.path == "/metrics":
            self._respond_text(
                200, self.state.render_metrics(),
                "text/plain; version=0.0.4; charset=utf-8")
        else:
            self._respond(404, {"error": f"unknown path {self.path!r}; "
                                         f"GET serves /healthz, "
                                         f"/stats, /metrics"})

    # -- POST ----------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 (stdlib casing)
        state = self.state
        request_id = f"req-{next(state.request_ids):06d}"
        endpoint = self.path.lstrip("/")
        label = endpoint if endpoint in ENDPOINTS else "unknown"
        started = time.monotonic()

        def finish(code: int, payload: dict,
                   headers: dict[str, str] | None = None,
                   level: str = "info", **log_fields) -> None:
            payload["request_id"] = request_id
            self._respond(code, payload, headers)
            elapsed_s = time.monotonic() - started
            state.requests_total.inc(endpoint=label, status=str(code))
            state.request_latency.observe(elapsed_s, endpoint=label)
            state.logger.log(level, "request", request_id=request_id,
                             endpoint=label, status=code,
                             elapsed_ms=round(elapsed_s * 1e3, 3),
                             **log_fields)

        if endpoint not in ENDPOINTS:
            finish(404, {"error": f"unknown endpoint {self.path!r}; "
                                  f"POST serves {', '.join(ENDPOINTS)}"},
                   level="warning", path=self.path)
            return
        length = self.headers.get("Content-Length") or "0"
        if not length.isdecimal():
            # rfile.read(-1) reads to EOF: a client that keeps its socket
            # open would hold this thread until it closes.
            finish(400, {"error": "Content-Length must be an integer "
                                  ">= 0"},
                   level="warning", error="bad-content-length")
            return
        try:
            body = json.loads(self.rfile.read(int(length)).decode()
                              or "{}")
        except (ValueError, UnicodeDecodeError):
            finish(400, {"error": "request body is not valid JSON"},
                   level="warning", error="invalid-json")
            return
        try:
            request = parse_request(endpoint, body)
        except ProtocolError as exc:
            finish(400, {"error": str(exc)}, level="warning",
                   error=str(exc))
            return
        try:
            job, coalesced = state.submit(request)
        except QueueFull as exc:
            finish(429, {"error": str(exc),
                         "retry_after_s": exc.retry_after},
                   headers={"Retry-After": str(exc.retry_after)},
                   level="warning", key=str(request.key()),
                   retry_after_s=exc.retry_after)
            return
        except QueueClosed:
            finish(503, {"error": "daemon is draining; "
                                  "not accepting new work"},
                   level="warning", key=str(request.key()))
            return
        if not job.event.wait(state.request_timeout_s):
            finish(500, {"error": "request timed out in the work "
                                  "queue"},
                   level="error", key=str(request.key()),
                   error="timeout", coalesced=coalesced)
            return
        queue_wait_ms = service_ms = None
        if job.started_at is not None:
            queue_wait_ms = round(
                (job.started_at - job.submitted_at) * 1e3, 3)
            state.queue_wait.observe(job.started_at - job.submitted_at)
        if job.service_s is not None:
            service_ms = round(job.service_s * 1e3, 3)
        if isinstance(job.error, JobExpired):
            finish(504, {"error": str(job.error)},
                   level="warning", key=str(request.key()),
                   error=str(job.error), coalesced=coalesced)
            return
        if job.error is not None:
            finish(500, {"error": f"{type(job.error).__name__}: "
                                  f"{job.error}"},
                   level="error", key=str(request.key()),
                   error=f"{type(job.error).__name__}: {job.error}",
                   queue_wait_ms=queue_wait_ms, service_ms=service_ms,
                   coalesced=coalesced)
            return
        elapsed_ms = (time.monotonic() - started) * 1e3
        cache_tier = (job.result.get("cache_tier")
                      if isinstance(job.result, dict) else None)
        finish(200, {"result": job.result,
                     "coalesced": coalesced,
                     "elapsed_ms": round(elapsed_ms, 3)},
               key=str(request.key()), coalesced=coalesced,
               queue_wait_ms=queue_wait_ms, service_ms=service_ms,
               cache_tier=cache_tier)


class ServeServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that joins its handler threads on close.

    ``daemon_threads = False`` + ``block_on_close = True`` means
    :meth:`server_close` waits for every in-flight response to be
    written — the second half of the SIGTERM drain (the first half is
    :meth:`ServeState.drain`, which finishes the queued jobs those
    handlers are waiting on).
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(self, address, state: ServeState,
                 handler=_Handler) -> None:
        super().__init__(address, handler)
        self.state = state


def make_server(state: ServeState, host: str = "127.0.0.1",
                port: int = 0) -> ServeServer:
    """Bind the daemon (``port=0`` picks a free port)."""
    return ServeServer((host, port), state)


def serve(host: str = "127.0.0.1", port: int = 8177, seed: int = 0,
          workers: int = 2, depth: int = 32,
          cache_dir: str = ".sweep-cache",
          log_level: str = "info",
          ready_line=print) -> int:
    """Run the daemon until SIGTERM/SIGINT; returns the exit code.

    Must be called from the main thread (signal handlers). Prints one
    machine-parseable ready line — ``serving on http://HOST:PORT`` —
    once the socket is bound, which the loadtest harness and the CI
    smoke job wait for.
    """
    state = ServeState(seed=seed, workers=workers, depth=depth,
                       cache_dir=cache_dir, log_level=log_level)
    httpd = make_server(state, host, port)
    bound_host, bound_port = httpd.server_address[:2]
    got = {"signum": None}

    def _initiate_shutdown(signum, frame) -> None:
        got["signum"] = signum
        # serve_forever must be stopped from another thread — calling
        # shutdown() from this handler (which interrupted the serving
        # loop itself) would deadlock.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _initiate_shutdown),
        signal.SIGINT: signal.signal(signal.SIGINT, _initiate_shutdown),
    }
    ready_line(f"serving on http://{bound_host}:{bound_port} "
               f"(workers={workers}, depth={depth}, seed={seed})",
               flush=True)
    try:
        httpd.serve_forever(poll_interval=0.1)
        drained = state.drain()
        httpd.server_close()  # joins handler threads (responses out)
    finally:
        for signum, old in previous.items():
            signal.signal(signum, old)
    name = {signal.SIGTERM: "SIGTERM",
            signal.SIGINT: "SIGINT"}.get(got["signum"], "shutdown")
    outcome = "cleanly" if drained else "with stuck workers"
    ready_line(f"{name}: drained {outcome} after "
               f"{state.queue.completed} completed request(s)",
               flush=True)
    if not drained:
        return 1
    return 130 if got["signum"] == signal.SIGINT else 0
