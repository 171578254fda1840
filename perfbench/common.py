"""Machinery shared by the three workloads.

* :class:`HostReference` — a fixed host-speed kernel (a pure-Python dict
  build and probe plus a numpy sort) sampled next to every repetition,
  with an idle guard that refuses a sample while anything else in this
  process or any child process could be burning CPU.
* :class:`BenchTracer` — the benchmark's own spans around each call
  into a layer (name, start, end, parent, repetition/request id), merged
  at report time with the program's own ``repro.obs.spans`` spans.
* :class:`Run` — one invocation's state: seed, deadline, operations
  attempted/failed, end-to-end and per-layer metrics, and the final
  JSON line.

Timings are wall-clock seconds from ``time.perf_counter``. A
*calibrated* timing is ``raw * NOMINAL_REF_S / local_ref_s``: the raw
time rescaled to the speed the host had when the reference kernel
measured ``NOMINAL_REF_S``, using reference samples taken right next to
the timed work.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from itertools import count
from pathlib import Path

from common_env import ROOT, THREAD_VARS, WORK, child_pids

BENCH_DIR = ROOT / "perfbench"
#: The benchmark's own constants: the reference kernel's nominal median
#: and the DSE campaign's strategy seed and frontier digest.
PINS = json.loads((BENCH_DIR / "pins.json").read_text())

#: The reference kernel's median on an idle 2-vCPU x86-64 host; only
#: fixes the scale of calibrated seconds, never a pass/fail threshold.
NOMINAL_REF_S = PINS["nominal_ref_ms"] / 1e3

#: ``process_time`` may exceed the sampling thread's ``thread_time`` by
#: clock granularity alone; beyond this share another thread ran.
IDLE_GUARD_SLACK = 0.05
IDLE_GUARD_FLOOR_S = 0.002
#: A refused sample is retried after a pause this many times: an idle
#: daemon's periodic wake-up or a pool worker still exiting must not end
#: a run, but work that keeps running beside the reference does.
IDLE_GUARD_RETRIES, IDLE_GUARD_PAUSE_S = 5, 0.1

#: One warm request in this many misses the program memo: a novel shape
#: (a cold compile) in serve-mixed, a fresh harness (a store read) in the
#: in-process loops. Under 1%, these lie beyond ``p99_ms``, so the tail
#: stays on the warm serving path; what a miss costs shows in ``cold_s``
#: and ``warm_s``.
MEMO_MISS_EVERY = 200

#: Below this many ``--seconds`` a run is a smoke run: one repetition of
#: each phase and short request loops.
FULL_RUN_S = 20


class IdleGuardError(RuntimeError):
    """Something else burned CPU while the reference kernel ran."""


class BenchFailure(RuntimeError):
    """The benchmark could not run to completion (not a wrong result)."""


# ---------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------
def median(values) -> float:
    values = list(values)
    if not values:
        raise BenchFailure("median of no samples")
    return statistics.median(values)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchFailure("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# ---------------------------------------------------------------------
# process accounting
# ---------------------------------------------------------------------
def _resource_tracker_pid() -> int | None:
    """multiprocessing's semaphore bookkeeper: an idle child that lives
    as long as this process once any spawn pool has run."""
    if "multiprocessing.resource_tracker" not in sys.modules:
        return None
    from multiprocessing import resource_tracker

    return getattr(resource_tracker._resource_tracker, "_pid", None)


def live_children() -> list[int]:
    """Pids of this process's live children (the resource tracker
    excluded)."""
    tracker = _resource_tracker_pid()
    alive = []
    for pid in sorted(child_pids() - {tracker}):
        try:
            state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
        except OSError:
            continue
        if state.split()[0] != "Z":
            alive.append(pid)
    return alive


def _cpu_ticks(pid: int) -> int:
    """User plus system clock ticks a live process has used (0 once it
    is gone)."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return 0
    values = fields.split()
    return int(values[11]) + int(values[12])


def cycle_goldens() -> dict[str, int]:
    """Committed cycle counts per ``<dataset>-<network>`` row, from the
    repository's host-performance baseline ``BENCH_host.json``."""
    baseline = json.loads((ROOT / "BENCH_host.json").read_text())
    return {label: row["cycles"]
            for label, row in baseline["workloads"].items()}


def children_peak_rss_mb() -> float:
    """Largest peak RSS among waited-for descendants, in MB."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------
# host-speed reference
# ---------------------------------------------------------------------
class HostReference:
    """The fixed host-speed kernel and its samples for one run.

    The kernel is deliberately independent of the repository: a change
    to the program can never move the yardstick it is measured with. It
    builds and probes a string-keyed dict, then sorts a few MB of
    doubles: on a host whose speed swings with its neighbours' load,
    that slows in step with the workloads' own mix of interpreter,
    allocation and numpy work far more closely than an arithmetic loop.
    The collector is off while it runs, so the size of the benchmark's
    heap never changes the kernel's cost.
    """

    KEYS_N = 50_000
    SORT_N = 200_000
    #: The micro kernel, sampled after every in-process request, is the
    #: same kernel on inputs this many times smaller (about 0.6 ms).
    MICRO = 16

    def __init__(self) -> None:
        import numpy as np

        keys = [f"k{i}" for i in range(self.KEYS_N)]
        data = np.random.default_rng(20210712).random(self.SORT_N)
        self._inputs = {False: (keys, data),
                        True: (keys[:self.KEYS_N // self.MICRO],
                               data[:self.SORT_N // self.MICRO])}
        self._np = np
        #: Full-size samples of the run (``bench.ref_ms``).
        self.samples: list[float] = []
        self._idle: set[int] = set()

    def _kernel(self, micro: bool) -> int:
        keys, data = self._inputs[micro]
        enabled = gc.isenabled()
        gc.disable()
        try:
            table = {key: (i, key) for i, key in enumerate(keys)}
            acc = sum(table[key][0] for key in keys)
            self._np.sort(data)
        finally:
            if enabled:
                gc.enable()
        return acc

    def sample_once(self, micro: bool = False) -> float:
        """One guarded sample (seconds). Raises :class:`IdleGuardError`
        when another thread of this process ran during the sample, or a
        child process is alive around it — except a child registered
        with :meth:`idle_child` (the daemon under test between requests),
        which must then have stayed idle during the sample."""
        children = live_children()
        unexpected = [pid for pid in children if pid not in self._idle]
        if unexpected:
            raise IdleGuardError(
                f"child process(es) {unexpected} alive during a "
                f"reference sample")
        ticks = {pid: _cpu_ticks(pid) for pid in children}
        cpu0, own0 = time.process_time(), time.thread_time()
        start = time.perf_counter()
        self._kernel(micro)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        own = time.thread_time() - own0
        if cpu - own > max(IDLE_GUARD_FLOOR_S, IDLE_GUARD_SLACK * own):
            raise IdleGuardError(
                f"other threads burned {(cpu - own) * 1e3:.1f} ms of CPU "
                f"during a {own * 1e3:.1f} ms reference sample")
        # One clock tick may land on an idle daemon's periodic wake-up; a
        # process that computes during the sample accrues several.
        busy = [pid for pid, before in ticks.items()
                if _cpu_ticks(pid) - before > 1]
        unexpected = [pid for pid in live_children()
                      if pid not in self._idle]
        if busy or unexpected:
            raise IdleGuardError(
                f"child process(es) {busy + unexpected} ran during a "
                f"reference sample")
        if not micro:
            self.samples.append(wall)
        return wall

    @contextmanager
    def idle_child(self, pid: int):
        """Tolerate ``pid`` alive (but idle) during samples."""
        self._idle.add(pid)
        try:
            yield
        finally:
            self._idle.discard(pid)

    def sample(self, n: int = 3) -> float:
        """Median of ``n`` back-to-back guarded samples (seconds)."""
        return median(self._guarded() for _ in range(n))

    def _guarded(self, micro: bool = False) -> float:
        for _ in range(IDLE_GUARD_RETRIES):
            try:
                return self.sample_once(micro)
            except IdleGuardError:
                time.sleep(IDLE_GUARD_PAUSE_S)
        return self.sample_once(micro)

    def micro(self) -> float:
        """One guarded sample of the micro kernel (seconds)."""
        return self._guarded(micro=True)

    @property
    def run_median_s(self) -> float:
        return median(self.samples)


def calibrated(raw_s: float, local_ref_s: float) -> float:
    return raw_s * NOMINAL_REF_S / local_ref_s


def summed(parts) -> tuple[float, float]:
    """One timing made of consecutive ``(raw seconds, local reference)``
    parts: its raw seconds and the single reference that calibrates them
    to the sum of the calibrated parts. Calibrating a long timing part by
    part tracks the host's speed while it ran, not only at its ends."""
    raw = sum(seconds for seconds, _ in parts)
    return raw, raw * NOMINAL_REF_S / sum(calibrated(seconds, ref)
                                          for seconds, ref in parts)


class Samples:
    """Timings of one metric, each with the reference measured next to
    it, so the run can report either the raw or the calibrated median."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.refs: list[float] = []

    def add(self, raw_s: float, local_ref_s: float) -> None:
        self.raw.append(raw_s)
        self.refs.append(local_ref_s)

    def __len__(self) -> int:
        return len(self.raw)

    def median(self, calibrate: bool) -> float:
        if calibrate:
            return median(calibrated(raw, ref)
                          for raw, ref in zip(self.raw, self.refs))
        return median(self.raw)


# ---------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------
class BenchTracer:
    """The benchmark's own spans; a no-op unless ``enabled``.

    Spans nest per thread; each carries the repetition or request id
    of the unit of work it belongs to (``rid``)."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: str = "", **attrs):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        uid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(uid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append({
                    "id": uid, "parent": parent, "name": name,
                    "rid": rid, "start": start, "end": end,
                    "thread": threading.current_thread().name,
                    "attrs": attrs})

    def record(self, name: str, start: float, end: float,
               rid: str = "", parent: int = 0, **attrs) -> int:
        """Add a span timed elsewhere (e.g. one open-loop request)."""
        if not self.enabled:
            return 0
        uid = next(self._ids)
        with self._lock:
            self.spans.append({
                "id": uid, "parent": parent, "name": name, "rid": rid,
                "start": start, "end": end,
                "thread": threading.current_thread().name,
                "attrs": attrs})
        return uid

    def adopt(self, repro_tracer, rid: str = "") -> None:
        """Merge spans collected by ``repro.obs.spans.tracing``.

        Their roots are parented to the innermost benchmark span on the
        same thread whose interval contains them."""
        if not self.enabled:
            return
        records = list(repro_tracer.spans)
        ids = {record.uid: next(self._ids) for record in records}
        own = sorted(self.spans, key=lambda s: s["end"] - s["start"])
        for record in records:
            start = repro_tracer.origin + record.start_s
            end = start + record.dur_s
            if record.parent in ids:
                parent = ids[record.parent]
            else:
                parent = next((s["id"] for s in own
                               if s["thread"] == record.thread
                               and s["start"] <= start
                               and end <= s["end"]), 0)
            self.spans.append({
                "id": ids[record.uid], "parent": parent,
                "name": f"repro.{record.name}", "rid": rid,
                "start": start, "end": end, "thread": record.thread,
                "attrs": {k: str(v) for k, v in record.attrs.items()}})

    def self_times(self) -> dict[str, dict]:
        """Per span name: total, self (total minus child-covered time)
        and count, in seconds."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            children.setdefault(s["parent"], []).append((s["start"],
                                                         s["end"]))
        out: dict[str, dict] = {}
        for s in self.spans:
            covered = 0.0
            cursor = s["start"]
            for lo, hi in sorted(children.get(s["id"], [])):
                lo, hi = max(lo, cursor, s["start"]), min(hi, s["end"])
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = out.setdefault(s["name"],
                                   {"total_s": 0.0, "self_s": 0.0,
                                    "count": 0})
            entry["total_s"] += s["end"] - s["start"]
            entry["self_s"] += s["end"] - s["start"] - covered
            entry["count"] += 1
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]


# ---------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------
class Run:
    """State of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.ref = HostReference()
        self.tracer = BenchTracer(trace)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.full = seconds >= FULL_RUN_S
        self.work = WORK / f"{workload}-{seed}-{os.getpid()}"
        #: perf_counter value when the measuring budget runs out.
        self.deadline = self.started + seconds

    # -- accounting ----------------------------------------------------
    def attempt(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def attempt_many(self, count: int, failed: int, what: str) -> None:
        self.attempted += count
        if failed:
            self.failed += failed
            if len(self.failures) < 20:
                self.failures.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timing(self, name: str, samples: Samples, unit: str,
               scale: float = 1.0, invert: bool = False) -> None:
        """Report the median of ``samples`` (seconds, times ``scale``;
        ``invert`` reports ``scale`` over it, a rate)."""

        def value_of(calibrated_: bool) -> float:
            seconds = samples.median(calibrated_)
            return scale / seconds if invert else seconds * scale

        self.report(name, value_of(False), value_of(True), unit,
                    len(samples))

    def latency_percentiles(self, latencies: list[float],
                            refs: list[float],
                            tail_refs: list[float] | None = None) -> None:
        """``p50_ms``, ``p95_ms`` and ``p99_ms`` of per-request latencies
        (seconds; ``inf`` for a failed request), each with its local
        reference (``tail_refs``, if given, for the tail percentiles)."""
        def adjusted(references):
            return [calibrated(lat, ref)
                    for lat, ref in zip(latencies, references)]

        median_refs = adjusted(refs)
        tail = adjusted(tail_refs) if tail_refs else median_refs
        for name, q in (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99)):
            raw = percentile(latencies, q)
            cal = percentile(median_refs if q == 50 else tail, q)
            if raw == float("inf"):
                raise BenchFailure(f"{name}: over {100 - q}% of "
                                   f"requests failed")
            self.report(name, raw * 1e3, cal * 1e3, "ms", len(latencies))

    def report(self, name: str, raw: float, cal: float, unit: str,
               n: int) -> None:
        """Record the calibrated value; print the raw one beside it."""
        self.metric(name, cal, unit)
        print(f"  {name}: {cal:.6g} {unit} (calibrated; raw {raw:.6g}; "
              f"n={n})", flush=True)

    def warm_requests(self, call, count: int, chunk: int = 200) -> None:
        """Closed loop, one in-process caller: ``count`` warm requests,
        each timed; reports latency percentiles and ``ops_per_s``.
        ``call(i)`` returns ``(ok, failure message)``.

        The median and ``ops_per_s`` are calibrated by each chunk's
        full-size reference samples. A micro reference sample follows
        every request, and the tail percentiles are calibrated by the
        micro samples next to each request (scaled to the run's full-size
        reference), so the tail shows the requests that were slow, not
        the moments the host was."""
        gc.collect()  # the same collector state in every run
        latencies: list[float] = []
        chunk_refs: list[float] = []
        micros: list[float] = []
        per_request = Samples()
        ref = self.ref.sample(2)
        before = self.ref.micro()
        for first in range(0, count, chunk):
            size = min(chunk, count - first)
            busy = 0.0
            for index in range(first, first + size):
                sent = time.perf_counter()
                ok, what = call(index)
                latency = time.perf_counter() - sent
                after = self.ref.micro()
                latencies.append(latency)
                micros.append((before + after) / 2)
                before = after
                busy += latency
                self.attempt(ok, what)
            after = self.ref.sample(2)
            chunk_refs += [(ref + after) / 2] * size
            per_request.add(busy / size, (ref + after) / 2)
            ref = after
        scale = median(per_request.refs) / median(micros)
        self.latency_percentiles(latencies, chunk_refs,
                                 [m * scale for m in micros])
        self.timing("ops_per_s", per_request, "1/s", invert=True)

    def setup_probes(self, count: int) -> Samples:
        """Time ``count`` fresh-interpreter set-ups of this workload."""
        samples = Samples()
        for index in range(count):
            directory = self.work / f"setup-{index}"
            before = self.ref.sample(2)
            raw = timed_subprocess([sys.executable,
                                    str(BENCH_DIR / "setup_probe.py"),
                                    self.workload, str(directory)])
            samples.add(raw, (before + self.ref.sample(2)) / 2)
        return samples

    # -- output --------------------------------------------------------
    def result(self, names: list[str]) -> dict:
        missing = [name for name in names if name not in self.metrics]
        if missing:
            raise BenchFailure(f"metrics not measured: {missing}")
        return {
            "correct": self.failed == 0,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": self.metrics[name][0],
                               "unit": self.metrics[name][1]}
                        for name in names},
        }

    def print_self_times(self) -> None:
        for name, entry in sorted(self.tracer.self_times().items()):
            print(f"  span {name:<40} self {entry['self_s'] * 1e3:10.1f} "
                  f"ms total {entry['total_s'] * 1e3:10.1f} ms "
                  f"n={entry['count']}", flush=True)

    def write_trace(self) -> Path:
        WORK.mkdir(parents=True, exist_ok=True)
        path = WORK / f"trace-{self.workload}-seed{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload, "seed": self.seed,
            "spans": self.tracer.spans}, default=str))
        return path


def start_state(run: Run) -> dict:
    """The recorded start state printed with every run."""
    from repro.eval.hostperf import host_fingerprint

    return {
        **host_fingerprint(),
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "blas_threads": {name: os.environ.get(name)
                         for name in THREAD_VARS},
        "repro_verify": os.environ.get("REPRO_VERIFY"),
        "dse_strategy_seed": PINS["dse"]["strategy_seed"],
    }


def timed_subprocess(argv: list[str], timeout: float = 60.0) -> float:
    """Wall seconds of one child process run to completion."""
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchFailure(f"{argv[1:]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return elapsed
