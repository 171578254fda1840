"""One telemetry spine: spans, metrics, hardware telemetry, exports.

Three signal families share this package (DESIGN.md §8):

* **Host spans** (:mod:`repro.obs.spans`) — nested wall-clock windows
  around the framework's own phases (dataset load, compile, geometry
  resolution, the structure stage, lowering and its per-stage
  children, the cost pass, re-cost, plan template build, re-timing,
  verification, simulate).
  Disabled by default through a no-op
  null tracer, so instrumented hot paths pay roughly one attribute
  lookup and a no-op context manager.
* **Metrics** (:mod:`repro.obs.metrics`) — a counter/gauge/histogram
  registry with a Prometheus text renderer; the serving daemon exposes
  it as ``GET /metrics`` and absorbs the previously scattered cache
  and queue counters through callback instruments.
* **Simulated-hardware telemetry** (:mod:`repro.obs.hwtel`) — raw
  per-engine busy windows, DRAM bursts and port-queue depth samples
  recorded by the simulator behind an optional probe, labelled per op
  and binned into cycle-time windows after the run. Recording never
  feeds back into scheduling, so enabling it cannot move a cycle
  count.

:mod:`repro.obs.perfetto` serialises spans + telemetry as Chrome
trace-event JSON for ``chrome://tracing`` / https://ui.perfetto.dev.
"""

from repro.obs.hwtel import HwProbe, bin_windows, summarize_probe
from repro.obs.logs import JsonLogger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    parse_prometheus,
    render_prometheus,
    series_sum,
    series_value,
)
from repro.obs.perfetto import (
    build_trace,
    validate_trace_events,
    write_perfetto,
)
from repro.obs.profile import (
    hottest_shards,
    profile_workload,
    render_profile,
)
from repro.obs.spans import (
    NullTracer,
    Span,
    SpanTracer,
    get_tracer,
    set_tracer,
    span,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HwProbe",
    "JsonLogger",
    "MetricRegistry",
    "NullTracer",
    "Span",
    "SpanTracer",
    "bin_windows",
    "build_trace",
    "get_tracer",
    "hottest_shards",
    "parse_prometheus",
    "profile_workload",
    "render_profile",
    "render_prometheus",
    "series_sum",
    "series_value",
    "set_tracer",
    "span",
    "summarize_probe",
    "tracing",
    "validate_trace_events",
    "write_perfetto",
]
