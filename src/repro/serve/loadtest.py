"""Load-test harness: Poisson arrivals against a running daemon.

Models an open-loop traffic source (HP-GNN's sustained-throughput
framing rather than single-run latency): request arrival times are
drawn once from a seeded exponential inter-arrival process, a
dispatcher fires each request at its scheduled time on a thread pool,
and per-request wall-clock latencies are recorded end-to-end (connect →
response body). The report is the served-RPS story ``BENCH_serve.json``
pins:

* p50/p90/p99/max latency (ms, nearest-rank percentiles over OK
  responses),
* achieved RPS (OK responses ÷ span from first dispatch to last
  response),
* outcome counts (ok / 429-rejected / errors),
* the daemon's ``/stats`` delta across the burst — in particular
  ``full_lowerings``, which a warm burst must leave at 0 (the CI
  serve-smoke gate),
* the daemon's ``/metrics`` delta (Prometheus scrape before/after):
  OK requests, latency-histogram samples and per-layer cache hits —
  ``None`` when the target daemon predates the endpoint.

Everything is stdlib (``urllib``); a missing/refused daemon raises
:class:`LoadTestError` with the URL so the operator knows what to
start.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

from repro.eval.hostperf import host_fingerprint

#: Per-request timeout (connect + response), seconds.
DEFAULT_TIMEOUT_S = 60.0


class LoadTestError(RuntimeError):
    """The daemon is unreachable or the burst could not run."""


def _get_json(url: str, timeout: float = 10.0) -> dict:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read().decode())
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise LoadTestError(
            f"cannot reach daemon at {url}: {exc}") from None


def _scrape_metrics(base_url: str, timeout: float = 10.0) -> dict | None:
    """Parsed ``/metrics`` samples, or None when the daemon predates
    the endpoint (the loadtest still works against an old server)."""
    from repro.obs.metrics import MetricError, parse_prometheus

    try:
        url = f"{base_url}/metrics"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            if response.status != 200:
                return None
            return parse_prometheus(response.read().decode())
    except (urllib.error.URLError, OSError, ValueError, MetricError):
        return None


def _metrics_delta(before: dict | None, after: dict | None
                   ) -> dict | None:
    """Before/after difference of the burst-relevant counters."""
    if before is None or after is None:
        return None
    from repro.obs.metrics import series_sum

    def diff(name: str, **labels) -> float:
        return series_sum(after, name, **labels) - series_sum(
            before, name, **labels)

    return {
        "full_lowerings": diff("repro_full_lowerings_total"),
        "coalesced": diff("repro_queue_coalesced_total"),
        "completed": diff("repro_queue_completed_total"),
        "rejected_429": diff("repro_queue_rejected_total"),
        "requests_ok": diff("repro_requests_total", status="200"),
        "latency_observations": diff(
            "repro_request_latency_seconds_count"),
        "cache_hits": {
            layer: diff("repro_cache_hits_total", layer=layer)
            for layer in ("harness-memo", "harness-structure",
                          "program-store", "dataset-disk",
                          "result-cache")},
    }


def _post(url: str, body: dict,
          timeout: float = DEFAULT_TIMEOUT_S) -> tuple[int, dict]:
    """POST one JSON body; returns (status, payload) without raising
    on HTTP error statuses (429/500 are data, not failures)."""
    data = json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read().decode())
    except urllib.error.HTTPError as exc:
        try:
            payload = json.loads(exc.read().decode())
        except ValueError:
            payload = {"error": str(exc)}
        return exc.code, payload
    except (urllib.error.URLError, OSError) as exc:
        raise LoadTestError(f"request to {url} failed: {exc}") from None


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of pre-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil
    return sorted_values[int(rank) - 1]


def run_loadtest(base_url: str, body: dict | None = None,
                 endpoint: str = "run", requests: int = 50,
                 rate: float = 50.0, concurrency: int = 8,
                 seed: int = 0,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> dict:
    """Fire one Poisson burst; returns the benchmark payload.

    ``rate`` is the *offered* load in requests/second (exponential
    inter-arrival gaps, mean ``1/rate``); achieved RPS is reported from
    observed completion times. ``concurrency`` caps in-flight requests
    client-side — if all lanes are busy a scheduled request fires late,
    which shows up as latency, exactly like a saturated client fleet.
    """
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    base_url = base_url.rstrip("/")
    body = dict(body or {"dataset": "tiny", "network": "gcn"})
    url = f"{base_url}/{endpoint}"
    rng = random.Random(seed)
    offsets, clock = [], 0.0
    for _ in range(requests):
        offsets.append(clock)
        clock += rng.expovariate(rate)

    stats_before = _get_json(f"{base_url}/stats")
    metrics_before = _scrape_metrics(base_url)
    outcomes: list[tuple[int, float]] = []
    outcome_lock = threading.Lock()
    start = time.monotonic()
    last_done = start

    def fire(offset: float) -> None:
        nonlocal last_done
        delay = start + offset - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        sent = time.monotonic()
        try:
            status, _ = _post(url, body, timeout=timeout_s)
        except LoadTestError:
            status = -1
        done = time.monotonic()
        with outcome_lock:
            outcomes.append((status, done - sent))
            last_done = max(last_done, done)

    with ThreadPoolExecutor(max_workers=concurrency) as pool:
        list(pool.map(fire, offsets))
    stats_after = _get_json(f"{base_url}/stats")
    metrics_after = _scrape_metrics(base_url)

    ok = sorted(latency for status, latency in outcomes
                if status == 200)
    rejected = sum(1 for status, _ in outcomes if status == 429)
    errors = len(outcomes) - len(ok) - rejected
    span = max(last_done - start, 1e-9)
    latency_ms = None
    if ok:
        latency_ms = {
            "p50": round(percentile(ok, 50) * 1e3, 3),
            "p90": round(percentile(ok, 90) * 1e3, 3),
            "p99": round(percentile(ok, 99) * 1e3, 3),
            "mean": round(sum(ok) / len(ok) * 1e3, 3),
            "max": round(ok[-1] * 1e3, 3),
        }

    def caches(stats: dict) -> dict:
        return stats.get("caches", {})

    def queue(stats: dict) -> dict:
        return stats.get("queue", {})

    delta = {
        "full_lowerings": (caches(stats_after).get("full_lowerings", 0)
                           - caches(stats_before).get("full_lowerings",
                                                      0)),
        "coalesced": (queue(stats_after).get("coalesced", 0)
                      - queue(stats_before).get("coalesced", 0)),
        "completed": (queue(stats_after).get("completed", 0)
                      - queue(stats_before).get("completed", 0)),
        "rejected_429": (queue(stats_after).get("rejected_429", 0)
                         - queue(stats_before).get("rejected_429", 0)),
    }
    return {
        "meta": host_fingerprint(),
        "config": {
            "url": url,
            "endpoint": endpoint,
            "body": body,
            "requests": requests,
            "offered_rate_rps": rate,
            "concurrency": concurrency,
            "seed": seed,
        },
        "latency_ms": latency_ms,
        "achieved_rps": round(len(ok) / span, 2),
        "span_s": round(span, 4),
        "counts": {"ok": len(ok), "rejected_429": rejected,
                   "errors": errors},
        "stats_delta": delta,
        "metrics_delta": _metrics_delta(metrics_before, metrics_after),
        "server_stats": stats_after,
    }


def render(payload: dict) -> str:
    """Human-readable burst summary."""
    config = payload["config"]
    counts = payload["counts"]
    lines = [
        f"loadtest {config['endpoint']} x{config['requests']} "
        f"@ {config['offered_rate_rps']:g} rps offered "
        f"(concurrency {config['concurrency']}, seed {config['seed']})",
        f"  ok {counts['ok']}, 429 {counts['rejected_429']}, "
        f"errors {counts['errors']}; achieved "
        f"{payload['achieved_rps']:g} rps over {payload['span_s']:g}s",
    ]
    latency = payload.get("latency_ms")
    if latency:
        lines.append(
            f"  latency ms: p50 {latency['p50']:g} "
            f"p90 {latency['p90']:g} p99 {latency['p99']:g} "
            f"mean {latency['mean']:g} max {latency['max']:g}")
    delta = payload.get("stats_delta", {})
    lines.append(
        f"  server: {delta.get('full_lowerings', '?')} full "
        f"lowering(s), {delta.get('coalesced', '?')} coalesced, "
        f"{delta.get('completed', '?')} completed during burst")
    metrics = payload.get("metrics_delta")
    if metrics is None:
        lines.append("  /metrics: not available on this daemon")
    else:
        hits = metrics["cache_hits"]
        lines.append(
            f"  /metrics delta: {metrics['requests_ok']:g} ok request(s)"
            f", {metrics['latency_observations']:g} latency sample(s), "
            f"memo hits {hits['harness-memo']:g}, "
            f"store hits {hits['program-store']:g}")
    return "\n".join(lines)
