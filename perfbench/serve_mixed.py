"""serve-mixed: the ``repro serve`` daemon under a seeded request mix.

A daemon subprocess (2 queue workers, private program store and result
cache) is driven from this one process over at most ``nproc`` (<= 2)
connections, both processes on one CPU:

* **cold start** — launch with an empty store until the popular set has
  been served once (every request a compile and a store write);
* **set-up** — launch over the populated store until the popular set has
  been served once (store reads);
* **warm passes** — one caller walks the popular set on the warm daemon;
* **open loop** — Poisson arrivals at a fixed rate, each request timed
  from its *scheduled* send time (printed, with the generator's
  lateness; traced, its ``/metrics`` deltas give the ``serve.*``
  layers). The mix is mostly ``run`` requests over a popular set
  that fits the daemon's 64-program memo (4 graphs x
  5 networks x 2 blocks); one in ten carries a DRAM-only override (a
  new coalesced plan on a cached program), the share of one-knob moves
  of the ``default`` design space that move its DRAM knob (one knob of
  ten); one in ``MEMO_MISS_EVERY`` (0.5%) is a novel dense shape (a cold
  compile and store write), rare enough to lie beyond p99, whose cost
  ``cold_s`` reports; and one ``sweep`` and one ``dse`` job at fixed
  points each hold a queue worker. The popular set, the novel shapes
  and the jobs' programs together fit the memo, so nothing is evicted
  and every memo-miss count is fixed by the seed;
* **closed loop** — one caller sends warm ``run`` requests over the
  popular set back to back, with a micro reference sample between two
  requests (the daemon idle): ``p50_ms``, ``p95_ms`` and ``ops_per_s``,
  calibrated as the in-process loops of the other workloads are. On a
  shared 2-vCPU host, open-loop percentiles and two-caller capacity
  follow the host's scheduling stalls (ten-seed spreads of 0.44 and
  0.23).

Every 200 response's cycles must equal this process's own harness result
for the same request; a mismatch, 429, 5xx or timeout is a failed
operation and counts as missing any latency limit.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time

from repro.accelerator import GNNerator
from repro.config.overrides import apply_overrides
from repro.config.platforms import gnnerator_config
from repro.config.workload import WorkloadSpec
from repro.dse import SPACE_PRESETS, DseEngine, build_strategy
from repro.eval.harness import Harness
from repro.graph import datasets
from repro.models.zoo import NETWORK_NAMES
from repro.obs.metrics import parse_prometheus, series_sum
from repro.sweep import SweepRunner, build_plan

from common import (
    MEMO_MISS_EVERY,
    ROOT,
    BenchFailure,
    Run,
    Samples,
    median,
    percentile,
)

GRAPHS = ("tiny", "cora", "citeseer", "pubmed")
BLOCKS = (32, 64)
NOVEL_GRAPH, NOVEL_NETWORK = "cora", "gcn"
RATE_RPS = 100.0
#: Fixed shares and a fixed set of novel widths keep the mix's cost the
#: same for every seed; the seed orders them and picks the popular
#: entries and DRAM values.
DRAM_KNOB = "dram.bandwidth_bytes_per_s"
#: Open-loop positions (share of the phase) of the two queue-holding jobs,
#: each midway between two novel shapes: with one connection held by a
#: job, a second slow request would stall the generator.
JOB_POSITIONS = (("sweep", 1 / 3), ("dse", 2 / 3))
SWEEP_BODY = {"plan": "smoke", "jobs": 1}
DSE_BODY = {"strategy": "random", "datasets": ["tiny"], "networks": ["gcn"],
            "samples": 4, "jobs": 1}
WORKERS = 2
COLD_STARTS, SETUP_STARTS = 4, 5
#: Warm passes precede each open-loop segment.
WARM_PASSES = 3
REQUEST_TIMEOUT_S = 30.0
#: At least ten samples beyond p99 at full length.
OPEN_LOOP_REQUESTS = 1000
CLOSED_LOOP_REQUESTS = 2000
#: Requests between two reference samples (the daemon idle) in the open
#: loop: about two seconds of arrivals.
OPEN_LOOP_SEGMENT = 200


def _post(port: int, endpoint: str, body: dict):
    """One POST on its own connection; (status, payload or None)."""
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("POST", f"/{endpoint}", json.dumps(body),
                     {"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
        try:
            return response.status, json.loads(raw)
        except ValueError:
            return response.status, None
    except (OSError, http.client.HTTPException):
        return -1, None
    finally:
        conn.close()


def _get(port: int, path: str) -> str:
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        if response.status != 200:
            raise BenchFailure(f"GET {path}: HTTP {response.status}")
        return response.read().decode()
    except (OSError, http.client.HTTPException) as exc:
        raise BenchFailure(f"GET {path}: {exc}") from None
    finally:
        conn.close()


class Daemon:
    """One ``repro serve`` subprocess with private caches."""

    def __init__(self, run: Run, store_dir, tag: str) -> None:
        self.run = run
        self.store_dir = store_dir
        self.results_dir = run.work / f"results-{tag}"
        self.log_path = run.work / f"daemon-{tag}.log"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        env = dict(os.environ, REPRO_PROGRAM_CACHE=str(self.store_dir))
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--host", "127.0.0.1", "--port", "0",
                 "--workers", str(WORKERS),
                 "--seed", str(self.run.seed),
                 "--cache-dir", str(self.results_dir),
                 "--log-level", "warning"],
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in line:
            self.stop()
            raise BenchFailure(f"daemon did not start: {line!r}; see "
                               f"{self.log_path}")
        self.port = int(line.split("serving on http://", 1)[1]
                        .split()[0].rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM), in MB (1e6 B)."""
        status = open(f"/proc/{self.proc.pid}/status").read()
        kib = next(line.split()[1] for line in status.splitlines()
                   if line.startswith("VmHWM:"))
        return int(kib) * 1024 / 1e6

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.proc = None


class Checker:
    """This process's own answers for every request in the mix."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.harness = Harness(seed=seed, program_store=None)
        self.cycles: dict[str, int] = {}
        self.jobs: dict[str, list] = {}
        self.simulate_s: list[float] = []

    @staticmethod
    def key(body: dict) -> str:
        return json.dumps(body, sort_keys=True)

    def expect_run(self, body: dict) -> None:
        key = self.key(body)
        if key in self.cycles:
            return
        block = body["block"]
        spec = WorkloadSpec(dataset=body["dataset"],
                            network=body["network"], feature_block=block,
                            hidden_dim=body.get("hidden_dim", 16))
        config = gnnerator_config(feature_block=block)
        if body.get("overrides"):
            config = apply_overrides(config, body["overrides"])
        program = self.harness.gnnerator_program(spec, config)
        start = time.perf_counter()
        self.cycles[key] = GNNerator(config).simulate(program).cycles
        self.simulate_s.append(time.perf_counter() - start)

    def expect_jobs(self) -> None:
        self.jobs = {"sweep": self.expect_sweep(), "dse": self.expect_dse()}

    def verify(self, endpoint: str, body: dict, status: int,
               payload) -> str:
        """Empty when a response is right, else why not: anything but a
        200 carrying this process's own result is a failure."""
        if status != 200 or payload is None:
            return f"{endpoint}: HTTP {status}"
        result = payload.get("result", {})
        if endpoint == "run":
            want = self.cycles[self.key(body)]
            got = result.get("cycles")
            return "" if got == want else (
                f"run {self.key(body)}: {got} cycles, want {want}")
        view = (self.sweep_view(result) if endpoint == "sweep"
                else self.dse_view(result))
        return "" if view == self.jobs[endpoint] else (
            f"{endpoint}: result differs from this process's own run")

    def expect_sweep(self) -> list:
        result = SweepRunner(jobs=1).run(build_plan(SWEEP_BODY["plan"],
                                                    seed=self.seed))
        return self.sweep_view(json.loads(result.to_json()))

    @staticmethod
    def sweep_view(payload: dict) -> list:
        return [(p["label"], p["status"], p["metrics"])
                for p in payload["points"]]

    def expect_dse(self) -> list:
        strategy = build_strategy(DSE_BODY["strategy"],
                                  samples=DSE_BODY["samples"],
                                  seed=self.seed)
        workloads = [WorkloadSpec(dataset=d, network=n)
                     for d in DSE_BODY["datasets"]
                     for n in DSE_BODY["networks"]]
        result = DseEngine(SPACE_PRESETS["default"](), strategy, workloads,
                           SweepRunner(jobs=1), seed=self.seed).run()
        return self.dse_view(json.loads(result.to_json()))

    @staticmethod
    def dse_view(payload: dict) -> list:
        return [(e["label"], e["objectives"]) for e in payload["frontier"]]


def _popular() -> list[dict]:
    return [{"dataset": d, "network": n, "block": b}
            for d in GRAPHS for n in NETWORK_NAMES for b in BLOCKS]


def build_mix(seed: int, count: int) -> list[tuple[float, str, dict]]:
    """(due offset s, endpoint, body) for the open loop, from the seed."""
    rng = random.Random(f"serve-mixed:{seed}")
    popular = _popular()
    space = SPACE_PRESETS["default"]()
    dram_every, dram_values = len(space.knobs), space.knob(DRAM_KNOB).values
    widths = range(17, 17 + count // MEMO_MISS_EVERY + 1)
    novel_dims = iter(rng.sample(widths, len(widths)))
    mix = []
    clock = 0.0
    for index in range(count):
        if index % MEMO_MISS_EVERY == MEMO_MISS_EVERY // 2:
            body = {"dataset": NOVEL_GRAPH, "network": NOVEL_NETWORK,
                    "block": 64, "hidden_dim": next(novel_dims)}
        elif index % dram_every == dram_every // 2:
            body = dict(rng.choice(popular), overrides={
                DRAM_KNOB: rng.choice(dram_values)})
        else:
            body = dict(rng.choice(popular))
        mix.append((clock, "run", body))
        clock += rng.expovariate(RATE_RPS)
    for endpoint, position in JOB_POSITIONS:
        index = int(count * position)
        body = dict(SWEEP_BODY if endpoint == "sweep" else DSE_BODY,
                    seed=seed)
        mix[index] = (mix[index][0], endpoint, body)
    return mix


class Outcome:
    """One request's timeline and verdict."""

    __slots__ = ("due", "sent", "done", "ok", "server_ms", "what")

    def __init__(self, sent, done, ok, server_ms, what) -> None:
        self.due, self.sent, self.done = sent, sent, done
        self.ok, self.server_ms, self.what = ok, server_ms, what

    @property
    def latency(self) -> float:
        """Seconds from the due time; a failure misses any limit."""
        return self.done - self.due if self.ok else float("inf")


def run(run: Run) -> None:
    # This process and the daemon it starts share one CPU, so the
    # reference samples measure the CPU the daemon runs on: on a shared
    # host two vCPUs are not equally fast at every moment.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for name in GRAPHS:
        datasets.load_dataset(name)  # untimed: synthesize once
    full = run.full and not run.trace
    # A short run still has a traced and an untraced segment.
    mix = build_mix(run.seed, OPEN_LOOP_REQUESTS if run.full
                    else 2 * OPEN_LOOP_SEGMENT)
    popular = _popular()

    checker = Checker(run.seed)
    for body in popular:
        checker.expect_run(body)
    for _, endpoint, body in mix:
        if endpoint == "run":
            checker.expect_run(body)
    checker.expect_jobs()

    daemon: Daemon | None = None

    def call(endpoint: str, body: dict) -> Outcome:
        sent = time.perf_counter()
        status, payload = _post(daemon.port, endpoint, body)
        done = time.perf_counter()
        what = checker.verify(endpoint, body, status, payload)
        return Outcome(sent, done, not what,
                       (payload or {}).get("elapsed_ms"), what)

    def serve_popular(rid: str) -> float:
        """One caller walks the popular set once; seconds."""
        start = time.perf_counter()
        with run.tracer.span("popular-pass", rid):
            for body in popular:
                outcome = call("run", body)
                run.attempt(outcome.ok, outcome.what)
        return time.perf_counter() - start

    def launch(store, tag: str, samples: Samples) -> Daemon:
        """Start a daemon and serve the popular set once, timed from the
        launch; the daemon is left running."""
        nonlocal daemon
        ref_before = run.ref.sample(2)
        daemon = Daemon(run, store, tag)
        start = time.perf_counter()
        daemon.start()
        try:
            serve_popular(tag)
            elapsed = time.perf_counter() - start
            with run.ref.idle_child(daemon.proc.pid):
                samples.add(elapsed, (ref_before + run.ref.sample(2)) / 2)
        except BaseException:
            daemon.stop()
            raise
        return daemon

    # Cold starts over an empty store each; the last store stays
    # populated for the set-up starts, the last of which stays up.
    cold, setup = Samples(), Samples()
    for index in range(COLD_STARTS if full else 1):
        store = run.work / f"store-{index}"
        launch(store, f"cold{index}", cold).stop()
    for index in range(SETUP_STARTS if full else 1):
        daemon.stop()
        launch(store, f"setup{index}", setup)
    try:
        with run.ref.idle_child(daemon.proc.pid):
            traffic = Traffic(run, daemon, call, serve_popular)
            traffic.drive(mix)
            _closed_loop(run, call, popular,
                         CLOSED_LOOP_REQUESTS if run.full else 100)
        daemon_rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    run.timing("setup_s", setup, "s")
    run.timing("cold_s", cold, "s")
    run.timing("warm_s", traffic.warm, "s")
    run.metric("peak_rss_mb", daemon_rss, "MB")
    outcomes = traffic.open
    latencies = [o.latency * 1e3 for o in outcomes]
    late = [(o.sent - o.due) * 1e3 for o in outcomes]
    print(f"serve-mixed: {len(outcomes)} open-loop requests "
          f"({sum(not o.ok for o in outcomes)} failed), raw latency from "
          f"the due time p50 {percentile(latencies, 50):.2f} ms, p99 "
          f"{percentile(latencies, 99):.2f} ms; generator late p99 "
          f"{percentile(late, 99):.2f} ms")
    if run.trace:
        _traced_layers(run, traffic, late, checker)


def _closed_loop(run: Run, call, popular, count: int) -> None:
    """One caller, ``count`` warm requests over the popular set in a
    seeded order (the end-to-end latency percentiles and ops_per_s)."""
    rng = random.Random(f"serve-mixed-closed:{run.seed}")
    bodies = [rng.choice(popular) for _ in range(count)]

    def request(index: int):
        outcome = call("run", bodies[index])
        return outcome.ok, outcome.what

    run.warm_requests(request, count)


class Traffic:
    """Warm passes and open-loop segments on one daemon, interleaved so
    each metric samples the whole run, with a reference sample whenever
    the daemon is idle between them.

    Traced, every other open-loop segment carries spans and is bracketed
    by ``/metrics`` and ``/stats`` scrapes; the untraced segments give
    the tracing overhead."""

    def __init__(self, run: Run, daemon: Daemon, call, serve_popular):
        self.run, self.daemon = run, daemon
        self.call, self.serve_popular = call, serve_popular
        self.warm = Samples()
        self.open: list[Outcome] = []
        self.untraced_open: list[Outcome] = []
        self.deltas: dict[tuple, float] = {}
        self.lowerings = 0

    def drive(self, mix) -> None:
        run = self.run
        after = run.ref.sample(2)
        for index, first in enumerate(range(0, len(mix),
                                             OPEN_LOOP_SEGMENT)):
            for _ in range(WARM_PASSES):
                elapsed = self.serve_popular(f"warm{index}")
                ref, after = after, run.ref.sample(2)
                self.warm.add(elapsed, (ref + after) / 2)
            segment = mix[first:first + OPEN_LOOP_SEGMENT]
            traced = run.trace and index % 2 == 1
            run.tracer.enabled = traced
            before = self._scrape() if traced else None
            done = _open_loop_segment(run, segment, self.call, first)
            if traced:
                self._accumulate(before, self._scrape())
            run.tracer.enabled = run.trace
            after = run.ref.sample(2)
            for outcome in done:
                run.attempt(outcome.ok, outcome.what)
            (self.untraced_open if run.trace and not traced
             else self.open).extend(done)

    def _scrape(self) -> tuple[dict, int]:
        metrics = parse_prometheus(_get(self.daemon.port, "/metrics"))
        stats = json.loads(_get(self.daemon.port, "/stats"))
        return metrics, stats["caches"]["full_lowerings"]

    def _accumulate(self, before, after) -> None:
        for key, value in after[0].items():
            self.deltas[key] = (self.deltas.get(key, 0.0) + value
                                - before[0].get(key, 0.0))
        self.lowerings += after[1] - before[1]


def _open_loop_segment(run: Run, segment, call, first: int
                       ) -> list[Outcome]:
    """Fire each request at its due time over at most ``nproc``
    connections; a request whose slot is busy goes out late and its
    latency still counts from the due time."""
    slots = max(1, min(2, os.cpu_count() or 1))
    outcomes: list[Outcome | None] = [None] * len(segment)
    cursor = iter(range(len(segment)))
    lock = threading.Lock()
    start = time.perf_counter() + 0.01 - segment[0][0]
    errors: list[BaseException] = []

    def sender() -> None:
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                offset, endpoint, body = segment[index]
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                outcome = call(endpoint, body)
                outcome.due = due
                outcomes[index] = outcome
                parent = run.tracer.record(
                    "request", due, outcome.done,
                    rid=f"req{first + index}", endpoint=endpoint)
                run.tracer.record("request.http", outcome.sent,
                                  outcome.done, rid=f"req{first + index}",
                                  parent=parent)
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=sender, name=f"sender-{i}")
               for i in range(slots)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return outcomes


def _traced_layers(run: Run, traffic: Traffic, late, checker) -> None:
    def delta(name: str, **labels) -> float:
        return series_sum(traffic.deltas, name, **labels)

    def mean_ms(histogram: str) -> float:
        count = delta(f"{histogram}_count")
        return delta(f"{histogram}_sum") / count * 1e3 if count else 0.0

    run.metric("serve.queue_wait_ms",
               mean_ms("repro_request_queue_wait_seconds"), "ms")
    run.metric("serve.server_ms",
               mean_ms("repro_request_latency_seconds"), "ms")
    ok = [o for o in traffic.open if o.ok and o.server_ms is not None]
    run.metric("serve.http_ms",
               median((o.done - o.sent) * 1e3 for o in ok)
               - median(o.server_ms for o in ok), "ms")
    # Which requests coalesce depends on their timing; every request that
    # needed no compile or store read was one or the other.
    run.metric("serve.memo_hits_or_coalesced",
               delta("repro_cache_hits_total", layer="harness-memo")
               + delta("repro_queue_coalesced_total"), "count")
    run.metric("serve.full_lowerings", traffic.lowerings, "count")
    run.metric("serve.rejected_429", delta("repro_queue_rejected_total"),
               "count")
    run.metric("sim.simulate_ms", median(checker.simulate_s) * 1e3, "ms")
    run.metric("bench.gen_late_ms", percentile(late, 99), "ms")
    run.metric("bench.ref_ms", run.ref.run_median_s * 1e3, "ms")

    def p50(outcomes) -> float:
        return median(o.latency for o in outcomes)

    run.metric("bench.trace_overhead_frac",
               p50(traffic.open) / p50(traffic.untraced_open) - 1, "frac")
    run.print_self_times()
