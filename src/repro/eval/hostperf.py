"""Host-performance benchmark: wall-clock of the load→compile→simulate
path, per workload.

This measures the *framework itself* (Python/numpy time on the host),
not the modeled hardware — the cycle counts it reports are the same
numbers every other path produces and act as a correctness fingerprint.
The measurements seed the repository's performance trajectory: the
first baseline lives in ``BENCH_host.json`` at the repo root and the
``perf-smoke`` CI job fails when ``total_s`` regresses by more than
:data:`DEFAULT_REGRESSION_FACTOR` against it.

Schema of the emitted JSON::

    {"meta": {"python": ..., "numpy": ..., "cpu_count": ...,
              "machine": ..., "system": ...},
     "workloads": {"pubmed-gcn": {"load_s": ..., "compile_s": ...,
                                  "simulate_s": ..., "total_s": ...,
                                  "peak_mb": ..., "cycles": ...}, ...}}

``meta`` is the host fingerprint: wall-time baselines taken on
different machines are not comparable, so ``--check`` warns whenever
the fingerprints differ (cycle comparisons are machine-independent and
always enforced). ``peak_mb`` is the process's lifetime peak RSS after
the workload ran — monotonic across rows, so the *first* large
workload's row is the meaningful bound. The flat pre-fingerprint
layout (workload rows at the top level) is still accepted on read.

``load_s`` times the dataset load with the in-process memo cleared, so
it reflects what a fresh worker process pays (the persistent on-disk
dataset cache stays warm — that cache is part of the system under
measurement). ``compile_s``/``simulate_s`` are cold-harness times; with
``repeat > 1`` every component reports the minimum over repeats.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from repro.accelerator import GNNerator
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph import datasets as dataset_registry
from repro.obs.spans import span
from repro.persist import publish

#: ``--check`` fails when measured total_s exceeds baseline * this.
DEFAULT_REGRESSION_FACTOR = 2.0

#: Workloads measured when the caller does not restrict them.
#: ``flickr`` keeps a simulate-dominated million-edge row in the
#: trajectory; ``reddit-s`` stays opt-in (its cold synthesis alone is
#: ~10s — see the README's "Scaling up" section).
DEFAULT_DATASETS = ("tiny", "cora", "citeseer", "pubmed", "flickr")
DEFAULT_NETWORKS = ("gcn", "gat")


def host_fingerprint() -> dict:
    """Identity of the measuring host, for baseline comparability."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
    }


def peak_rss_mb() -> float:
    """Process-lifetime peak RSS in MB (1e6 bytes).

    Prefers ``/proc/self/status`` VmHWM where available: on Linux,
    ``ru_maxrss`` lives in the signal struct and *survives exec*, so a
    freshly spawned process inherits its parent's peak — VmHWM tracks
    the process's own address space and resets properly.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on macOS.
    if sys.platform == "darwin":
        return peak / 1e6
    return peak * 1024 / 1e6


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def measure_workload(dataset: str, network: str, hidden_dim: int = 16,
                     repeat: int = 1,
                     program_store="default") -> dict:
    """Time one workload's load / compile / simulate on a fresh harness.

    ``program_store`` is forwarded to each repeat's
    :class:`~repro.eval.harness.Harness` — like the dataset disk
    cache, the persistent compiled-program store is part of the system
    under measurement, so ``compile_s`` reports store-load time when
    the store is warm. Pass ``None`` (``repro perf
    --no-program-cache``) to measure pure cold compiles; pass one
    shared :class:`~repro.compiler.store.ProgramStore` across
    workloads to aggregate its hit/miss counters.
    """
    spec = WorkloadSpec(dataset=dataset, network=network,
                        hidden_dim=hidden_dim)
    best: dict[str, float] = {}
    cycles = None
    for _ in range(max(repeat, 1)):
        # Model a cold worker: drop the in-process dataset memo so the
        # load is served by synthesis or the persistent disk cache.
        # (This also makes each repeat's Graph a fresh object, so the
        # compiler's per-graph memos never leak between repeats.)
        dataset_registry._synthesize.cache_clear()
        harness = Harness(program_store=program_store)
        with span("measure", workload=spec.label):
            load_s, graph = _timed(lambda: harness.graph(dataset))
            config = harness._config(spec, None)
            compile_s, program = _timed(
                lambda: harness._compiled(spec, config))
            simulate_s, result = _timed(
                lambda: GNNerator(config).simulate(program))
        if cycles is not None and result.cycles != cycles:
            raise RuntimeError(
                f"{spec.label}: cycles changed between repeats "
                f"({cycles} != {result.cycles}) — simulation is not "
                f"deterministic")
        cycles = result.cycles
        for key, value in (("load_s", load_s), ("compile_s", compile_s),
                           ("simulate_s", simulate_s)):
            best[key] = min(best.get(key, value), value)
    best["total_s"] = (best["load_s"] + best["compile_s"]
                       + best["simulate_s"])
    return {key: round(value, 6) for key, value in best.items()} | {
        "cycles": int(cycles), "peak_mb": round(peak_rss_mb(), 1)}


def measure(datasets=DEFAULT_DATASETS, networks=DEFAULT_NETWORKS,
            hidden_dim: int = 16, repeat: int = 1,
            program_store="default") -> dict[str, dict]:
    """The per-workload rows, one entry per dataset x network.

    The default program-store sentinel is resolved once, so all
    workloads share one store instance and its counters tell the whole
    run's story.
    """
    if program_store == "default":
        from repro.compiler.store import default_program_store

        program_store = default_program_store()
    workloads: dict[str, dict] = {}
    for dataset in datasets:
        for network in networks:
            label = f"{dataset}-{network}"
            workloads[label] = measure_workload(
                dataset, network, hidden_dim=hidden_dim, repeat=repeat,
                program_store=program_store)
    return workloads


def build_payload(workloads: dict[str, dict],
                  caches: dict | None = None) -> dict:
    """Wrap measured rows with the host fingerprint (and, when given,
    the run's cache counters — ``--check`` ignores them; CI parses them
    to assert a warm-store run recompiled nothing)."""
    payload = {"meta": host_fingerprint(), "workloads": workloads}
    if caches is not None:
        payload["caches"] = caches
    return payload


def write_benchmark(payload: dict, path: str | Path) -> Path:
    """Atomically persist a benchmark payload.

    A plain ``write_text`` truncates the target before writing, so an
    interrupted run (Ctrl-C, OOM-kill, crash mid-serialisation) leaves
    a half-written baseline that a later ``--check`` crashes on instead
    of reporting. :func:`repro.persist.publish` leaves the old complete
    file or the new one. A benchmark file is a record, not a cache, so
    a failed write raises.
    """
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    publish(path, lambda handle: handle.write(data))
    return Path(path)


def load_benchmark(path: str | Path) -> dict:
    """Read a benchmark payload, normalising the legacy flat layout
    (workload rows at the top level, no fingerprint) on the fly."""
    payload = json.loads(Path(path).read_text())
    if "workloads" not in payload:
        payload = {"meta": {}, "workloads": payload}
    payload.setdefault("meta", {})
    return payload


def fingerprint_mismatches(measured: dict, baseline: dict) -> list[str]:
    """Human-readable fingerprint differences (empty = same host).

    A baseline with no fingerprint (legacy layout) is treated as
    unknown, which is reported as a single mismatch line.
    """
    have = measured.get("meta") or {}
    want = baseline.get("meta") or {}
    if not want:
        return ["baseline has no host fingerprint (pre-fingerprint "
                "layout); wall-time budgets may come from a different "
                "machine"]
    lines = []
    for key in sorted(set(have) | set(want)):
        if have.get(key) != want.get(key):
            lines.append(f"{key}: measured {have.get(key)!r} vs "
                         f"baseline {want.get(key)!r}")
    return lines


def find_regressions(measured: dict, baseline: dict,
                     factor: float = DEFAULT_REGRESSION_FACTOR,
                     slack: float = 0.0) -> list[str]:
    """Human-readable regression lines (empty = within budget).

    Takes normalised payloads (see :func:`load_benchmark`). Only
    workloads present in both are compared, so a CI smoke run over
    ``tiny,cora`` checks against the full committed baseline. The
    wall-time budget is ``baseline * factor + slack`` — ``slack`` is an
    absolute allowance (seconds) CI grants for machine variance on
    millisecond-scale workloads, where a pure ratio would gate on timer
    noise. Cycle drift is reported too: this benchmark must never
    change the modeled hardware, only host wall time. Callers should
    surface :func:`fingerprint_mismatches` alongside — wall-time
    comparisons across differing hosts are indicative, not conclusive,
    but cycle comparisons always hold.
    """
    lines = []
    measured_rows = measured.get("workloads", {})
    baseline_rows = baseline.get("workloads", {})
    for label in sorted(set(measured_rows) & set(baseline_rows)):
        have, want = measured_rows[label], baseline_rows[label]
        if have.get("cycles") != want.get("cycles"):
            lines.append(
                f"{label}: cycles changed ({want.get('cycles')} -> "
                f"{have.get('cycles')}) — timing must not move cycles")
        budget = want["total_s"] * factor + slack
        if have["total_s"] > budget:
            lines.append(
                f"{label}: total_s {have['total_s']:.4f}s exceeds "
                f"{factor:g}x baseline ({want['total_s']:.4f}s)"
                + (f" + {slack:g}s slack" if slack else ""))
    return lines


def render(payload: dict) -> str:
    """Fixed-width summary table of one benchmark payload."""
    rows = payload.get("workloads", payload)
    header = (f"{'workload':<18} {'load_s':>9} {'compile_s':>10} "
              f"{'simulate_s':>11} {'total_s':>9} {'peak_mb':>8} "
              f"{'cycles':>10}")
    lines = [header, "-" * len(header)]
    for label in sorted(rows):
        row = rows[label]
        lines.append(
            f"{label:<18} {row['load_s']:>9.4f} {row['compile_s']:>10.4f} "
            f"{row['simulate_s']:>11.4f} {row['total_s']:>9.4f} "
            f"{row.get('peak_mb', 0.0):>8.1f} {row['cycles']:>10d}")
    return "\n".join(lines)
