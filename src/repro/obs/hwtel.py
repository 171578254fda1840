"""Simulated-hardware telemetry: raw probe events + derived views.

The probe is the *only* thing the simulator knows about telemetry: an
:class:`HwProbe` is four append-only lists. The replay
(:func:`repro.sim.coalesce.run_plan`) fills the first three behind a
``probe is not None`` branch, and ``GNNerator.simulate`` derives the
fourth from them after the run —

* ``busy``  — ``(unit, start, end)`` compute-occupancy windows,
* ``dram``  — ``(unit, direction, grant_cycle, occupancy_cycles,
  num_bytes)`` per burst, recorded when the channel port is granted,
* ``queue`` — ``(unit, cycle, depth)`` per DRAM request: the
  requesting unit and the port-queue depth (holders + waiters) at its
  arrival,
* ``ops``   — ``(unit, label, start, end)`` for every operation that
  occupied its unit (:func:`repro.sim.coalesce.op_slices`): compute
  ops for their cycles, DMAs from request to data delivered.

Everything an operator actually wants — per-engine utilization over
time, DRAM bandwidth per window, queue-occupancy peaks, the pipeline
Gantt chart — is **derived here, after the run**, from those raw
events (:func:`bin_windows`, :func:`render_gantt`). Deriving instead
of sampling inside the replay is a correctness posture, not a
convenience: recording appends to a list and never reads scheduler
state, so enabling a probe cannot reorder events or move a cycle count
(the §4 obligation; ``tests/test_obs.py`` pins probe-on == probe-off
== golden, and the event-driven oracle under ``tests/oracle/`` emits
the same four streams for the same program).
"""

from __future__ import annotations


class HwProbe:
    """Raw event sink of one simulated run."""

    __slots__ = ("busy", "dram", "queue", "ops")

    def __init__(self) -> None:
        self.busy: list[tuple[str, int, int]] = []
        self.dram: list[tuple[str, str, int, int, int]] = []
        self.queue: list[tuple[str, int, int]] = []
        self.ops: list[tuple[str, str, int, int]] = []

    def units(self) -> list[str]:
        return sorted({unit for unit, _, _ in self.busy}
                      | {unit for unit, *_ in self.dram})


def bin_windows(probe: HwProbe, total_cycles: int,
                num_windows: int = 24) -> list[dict]:
    """Bin raw probe events into ``num_windows`` equal cycle windows.

    Each window reports per-unit busy cycles (compute occupancy
    overlapping the window), DRAM read/write bytes (attributed
    proportionally to the burst's occupancy overlap — a burst spanning
    a window edge splits its bytes by time, mirroring how a bandwidth
    meter would see it), DRAM busy cycles, and the peak port-queue
    depth sampled in the window.
    """
    if num_windows < 1:
        raise ValueError(f"num_windows must be >= 1, got {num_windows}")
    span = max(total_cycles, 1)
    width = span / num_windows
    windows = []
    for i in range(num_windows):
        windows.append({
            "start": int(i * width),
            "end": int((i + 1) * width) if i + 1 < num_windows else span,
            "busy_cycles": {},
            "dram_read_bytes": 0.0,
            "dram_write_bytes": 0.0,
            "dram_busy_cycles": 0.0,
            "queue_peak": 0,
        })

    def overlapping(start: float, end: float):
        """Yield (window, overlap_cycles) for one [start, end) event."""
        if end <= start:
            return
        first = min(int(start / width), num_windows - 1)
        for i in range(first, num_windows):
            w = windows[i]
            lo, hi = i * width, (i + 1) * width
            if lo >= end:
                break
            overlap = min(end, hi) - max(start, lo)
            if overlap > 0:
                yield w, overlap

    for unit, start, end in probe.busy:
        for w, overlap in overlapping(start, end):
            w["busy_cycles"][unit] = (w["busy_cycles"].get(unit, 0.0)
                                      + overlap)
    for _unit, direction, start, occupancy, num_bytes in probe.dram:
        end = start + occupancy
        key = ("dram_read_bytes" if direction == "read"
               else "dram_write_bytes")
        for w, overlap in overlapping(start, end):
            w["dram_busy_cycles"] += overlap
            w[key] += num_bytes * (overlap / max(occupancy, 1))
    for _unit, cycle, depth in probe.queue:
        index = min(int(cycle / width), num_windows - 1)
        w = windows[index]
        w["queue_peak"] = max(w["queue_peak"], depth)
    return windows


def summarize_probe(probe: HwProbe, total_cycles: int) -> dict:
    """Whole-run aggregates: per-unit utilization, DRAM bandwidth
    (bytes/cycle) and peak queue depth — the cross-check against the
    coalesced plan's static accounting."""
    span = max(total_cycles, 1)
    busy: dict[str, int] = {}
    for unit, start, end in probe.busy:
        busy[unit] = busy.get(unit, 0) + (end - start)
    read = sum(b for _, d, _, _, b in probe.dram if d == "read")
    write = sum(b for _, d, _, _, b in probe.dram if d == "write")
    dram_busy = sum(occ for _, _, _, occ, _ in probe.dram)
    return {
        "total_cycles": total_cycles,
        "unit_busy_cycles": dict(sorted(busy.items())),
        "unit_utilization": {
            unit: min(cycles / span, 1.0)
            for unit, cycles in sorted(busy.items())},
        "dram_read_bytes": read,
        "dram_write_bytes": write,
        "dram_busy_cycles": dram_busy,
        "dram_bytes_per_cycle": (read + write) / span,
        "queue_peak": max((d for _, _, d in probe.queue), default=0),
    }


def busy_intervals(ops: list[tuple[str, str, int, int]],
                   unit: str) -> list[tuple[int, int]]:
    """Merged ``[start, end)`` windows in which ``unit`` ran an op."""
    merged: list[tuple[int, int]] = []
    for start, end in sorted((start, end) for who, _, start, end in ops
                             if who == unit and end > start):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def overlap_cycles(ops: list[tuple[str, str, int, int]], unit_a: str,
                   unit_b: str) -> int:
    """Cycles during which both units were running an op."""
    intervals_b = busy_intervals(ops, unit_b)
    return sum(max(0, min(end_a, end_b) - max(start_a, start_b))
               for start_a, end_a in busy_intervals(ops, unit_a)
               for start_b, end_b in intervals_b)


def render_gantt(ops: list[tuple[str, str, int, int]],
                 width: int = 72) -> str:
    """ASCII Gantt chart of op slices: one row per unit, '#' where
    the unit was running an op."""
    units = sorted({unit for unit, _, _, _ in ops})
    if not units:
        return "(empty trace)"
    horizon = max(end for _, _, _, end in ops)
    if horizon == 0:
        return "(zero-length trace)"
    scale = horizon / width
    name_width = max(len(u) for u in units)
    lines = [f"{'cycles'.rjust(name_width)} 0{'-' * (width - 8)}{horizon}"]
    for unit in units:
        row = [" "] * width
        for start, end in busy_intervals(ops, unit):
            lo = min(int(start / scale), width - 1)
            hi = min(max(int(end / scale), lo + 1), width)
            for i in range(lo, hi):
                row[i] = "#"
        lines.append(f"{unit.rjust(name_width)} {''.join(row)}")
    return "\n".join(lines)
