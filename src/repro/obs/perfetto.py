"""Chrome/Perfetto trace-event JSON export.

Serialises one run's telemetry — host spans from a
:class:`~repro.obs.spans.SpanTracer` and the simulated-hardware
timeline from a :class:`~repro.obs.hwtel.HwProbe` — into the
trace-event JSON format that ``chrome://tracing`` and
https://ui.perfetto.dev load directly.

Layout: pid 1 is the **host** process (one tid per Python thread,
complete events with microsecond timestamps); pid 2 is the
**simulated hardware** (one tid per unit carrying the probe's
labelled op slices, cycle timestamps converted at the model's clock
so both processes share the microsecond axis), plus counter tracks
for DRAM bandwidth and port-queue depth.

:func:`validate_trace_events` is the schema check the trace-smoke CI
step and the unit tests run over every emitted file: required fields
per phase type, non-negative ts/dur, and per-(pid, tid) monotonic
timestamps.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.hwtel import HwProbe, bin_windows
from repro.obs.spans import SpanTracer

#: pids of the two rendered processes.
HOST_PID = 1
SIM_PID = 2


def _meta(pid: int, tid: int, what: str, name: str) -> dict:
    return {"name": what, "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": name}}


def build_trace(spans: SpanTracer | None = None,
                probe: HwProbe | None = None,
                frequency_ghz: float = 1.0,
                total_cycles: int | None = None,
                num_windows: int = 48) -> dict:
    """Assemble the trace-event payload.

    The slice tracks are the probe's labelled ``ops``; its DRAM
    bursts and queue samples feed the counter tracks. Cycle ``c``
    renders at ``c / frequency_ghz`` nanoseconds = ``c * 1e-3 /
    frequency_ghz`` microseconds.
    """
    events: list[dict] = []
    cycle_us = 1e-3 / frequency_ghz

    if spans is not None:
        events.append(_meta(HOST_PID, 0, "process_name", "host"))
        tids: dict[str, int] = {}
        for record in sorted(spans.spans, key=lambda s: s.start_s):
            tid = tids.get(record.thread)
            if tid is None:
                tid = tids[record.thread] = len(tids) + 1
                events.append(_meta(HOST_PID, tid, "thread_name",
                                    record.thread))
            events.append({
                "name": record.name, "ph": "X", "cat": "host",
                "pid": HOST_PID, "tid": tid,
                "ts": max(record.start_s, 0.0) * 1e6,
                "dur": max(record.dur_s, 0.0) * 1e6,
                "args": {k: str(v) for k, v in record.attrs.items()},
            })

    if probe is not None:
        events.append(_meta(SIM_PID, 0, "process_name",
                            "simulated-hw"))
        unit_tids = {unit: i + 1 for i, unit in enumerate(
            sorted({unit for unit, _, _, _ in probe.ops}))}
        for unit, tid in unit_tids.items():
            events.append(_meta(SIM_PID, tid, "thread_name", unit))
        for unit, label, start, end in sorted(
                probe.ops, key=lambda s: (unit_tids[s[0]], s[2], s[3])):
            events.append({
                "name": label, "ph": "X", "cat": "sim",
                "pid": SIM_PID, "tid": unit_tids[unit],
                "ts": start * cycle_us,
                "dur": max(end - start, 0) * cycle_us,
                "args": {"cycles": end - start},
            })

    if probe is not None and total_cycles:
        for window in bin_windows(probe, total_cycles,
                                  num_windows=num_windows):
            ts = window["start"] * cycle_us
            width = max(window["end"] - window["start"], 1)
            events.append({
                "name": "dram bytes/cycle", "ph": "C", "pid": SIM_PID,
                "tid": 0, "ts": ts,
                "args": {
                    "read": round(window["dram_read_bytes"] / width, 4),
                    "write": round(window["dram_write_bytes"] / width,
                                   4)},
            })
            events.append({
                "name": "dram queue depth", "ph": "C", "pid": SIM_PID,
                "tid": 0, "ts": ts,
                "args": {"depth": window["queue_peak"]},
            })

    return {"traceEvents": events, "displayTimeUnit": "ms"}


def validate_trace_events(payload: dict) -> list[str]:
    """Schema problems in a trace payload; empty list = valid.

    Checks what the viewers actually require: a ``traceEvents`` list,
    ``name``/``ph``/``pid``/``tid`` on every event, numeric
    non-negative ``ts`` (plus ``dur`` for complete events), ``args``
    on counter/metadata events, and non-decreasing ``ts`` per
    ``(pid, tid)`` slice track.
    """
    problems: list[str] = []
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents is not a list"]
    last_ts: dict[tuple, float] = {}
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event[{i}] is not an object")
            continue
        for fieldname in ("name", "ph", "pid", "tid"):
            if fieldname not in event:
                problems.append(f"event[{i}] missing {fieldname!r}")
        ph = event.get("ph")
        if ph not in ("X", "C", "M", "B", "E", "i"):
            problems.append(f"event[{i}] unknown phase {ph!r}")
            continue
        if ph == "M":
            if "args" not in event:
                problems.append(f"event[{i}] metadata without args")
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event[{i}] bad ts {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event[{i}] bad dur {dur!r}")
            track = (event.get("pid"), event.get("tid"))
            if ts < last_ts.get(track, 0.0):
                problems.append(
                    f"event[{i}] ts {ts} goes backwards on track "
                    f"{track}")
            last_ts[track] = max(last_ts.get(track, 0.0), ts)
        if ph == "C" and not isinstance(event.get("args"), dict):
            problems.append(f"event[{i}] counter without args")
    return problems


def write_perfetto(path, spans=None, probe=None,
                   frequency_ghz: float = 1.0,
                   total_cycles: int | None = None) -> Path:
    """Build, validate and write one trace file; returns the path."""
    payload = build_trace(spans=spans, probe=probe,
                          frequency_ghz=frequency_ghz,
                          total_cycles=total_cycles)
    problems = validate_trace_events(payload)
    if problems:
        raise ValueError("refusing to write an invalid trace: "
                         + "; ".join(problems[:5]))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload) + "\n")
    return out
