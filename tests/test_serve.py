"""Tests for the ``repro serve`` daemon: protocol validation, the
coalescing work queue, the HTTP surface, atomic benchmark writes, and
the SIGTERM drain path (subprocess)."""

from __future__ import annotations

import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.serve import (
    JobExpired,
    ProtocolError,
    QueueClosed,
    QueueFull,
    ServeState,
    WorkQueue,
    make_server,
    parse_request,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------
# HTTP plumbing helpers (in-process daemon)
# ---------------------------------------------------------------------
@pytest.fixture()
def daemon(tmp_path):
    """A live in-process daemon on a free port; yields (state, base)."""
    state = ServeState(seed=0, workers=2, depth=8, cache_dir=None,
                       request_timeout_s=60.0)
    # Hermetic: no repo-level .program-cache reads/writes from tests.
    state.harness.program_store = None
    # Capture structured logs instead of spraying pytest's stderr;
    # tests read them back through state.logger._stream.
    state.logger._stream = io.StringIO()
    httpd = make_server(state, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.02},
                              daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        state.queue.stop(drain=False, timeout=5.0)
        httpd.shutdown()
        httpd.server_close()


def _post(url: str, body: dict, timeout: float = 60.0):
    """(status, payload, headers); HTTP error statuses are data."""
    request = urllib.request.Request(
        url, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode()), \
                dict(resp.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode()), \
            dict(exc.headers)


def _get(url: str, timeout: float = 10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


# ---------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------
class TestProtocol:
    def test_run_defaults(self):
        request = parse_request("run", {"dataset": "tiny",
                                        "network": "gcn"})
        assert request.block == 64
        assert request.hidden_dim == 16
        assert request.overrides == ()

    def test_key_is_stable_and_discriminating(self):
        a = parse_request("run", {"dataset": "tiny", "network": "gcn"})
        b = parse_request("run", {"dataset": "tiny", "network": "gcn"})
        c = parse_request("run", {"dataset": "tiny", "network": "gcn",
                                  "block": 32})
        assert a.key() == b.key()
        assert a.key() != c.key()

    def test_unknown_dataset_rejected_eagerly(self):
        with pytest.raises(ProtocolError, match="dataset"):
            parse_request("run", {"dataset": "nope", "network": "gcn"})

    def test_unknown_network_rejected_eagerly(self):
        with pytest.raises(ProtocolError, match="network"):
            parse_request("run", {"dataset": "tiny", "network": "rnn"})

    def test_bad_override_path_rejected_eagerly(self):
        with pytest.raises(ProtocolError):
            parse_request("run", {"dataset": "tiny", "network": "gcn",
                                  "overrides": {"dense.bogus": 4}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="unknown"):
            parse_request("run", {"dataset": "tiny", "network": "gcn",
                                  "blokc": 32})

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(ProtocolError, match="endpoint"):
            parse_request("simulate", {})

    def test_sweep_plan_validated(self):
        with pytest.raises(ProtocolError, match="plan"):
            parse_request("sweep", {"plan": "not-a-plan"})

    def test_sweep_plan_is_built_during_validation(self):
        with pytest.raises(ProtocolError, match="fig3"):
            parse_request("sweep", {"plan": "smoke", "networks": ["gcn"]})

    def test_dse_space_fields_are_part_of_the_key(self):
        base = parse_request("dse", {})
        variants = [{"space": "small"},
                    {"knobs": {"dense.rows": [32, 64]}},
                    {"fig5_check": True}]
        keys = {parse_request("dse", body).key() for body in variants}
        assert len(keys) == 3 and base.key() not in keys

    @pytest.mark.parametrize("body, needle", [
        ({"strategy": "grid"}, "exceeds max_candidates 4096"),
        ({"knobs": {"nope.path": [1, 2]}}, "unknown knob paths"),
        ({"knobs": {"dense.rows": [32, 32]}}, "duplicate values"),
        ({"knobs": {"dense.rows": []}}, "has no values"),
        ({"knobs": {"dense.rows": ["big"]}}, "list of numbers"),
        ({"space": "huge"}, "unknown space 'huge'"),
        ({"strategy": "annealing"}, "unknown strategy 'annealing'"),
        ({"fig5_check": "yes"}, "fig5_check"),
    ])
    def test_bad_dse_space_rejected_eagerly(self, body, needle):
        with pytest.raises(ProtocolError, match=needle.replace("'", ".")):
            parse_request("dse", body)


# ---------------------------------------------------------------------
# Work queue
# ---------------------------------------------------------------------
class TestWorkQueue:
    def test_identical_keys_coalesce_to_one_execution(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        calls = []

        def work():
            gate.wait(5.0)
            calls.append(1)
            return "done"

        job1, coalesced1 = queue.submit(("k",), work)
        # Worker may already be running job1; an identical submit must
        # attach to it either way (inflight covers queued AND running).
        job2, coalesced2 = queue.submit(("k",), work)
        assert not coalesced1 and coalesced2
        assert job2 is job1
        assert job1.waiters == 2
        gate.set()
        assert job1.event.wait(5.0)
        assert job1.result == "done"
        assert calls == [1]
        assert queue.stats()["coalesced"] == 1
        queue.stop(timeout=5.0)

    def test_full_queue_rejects_with_retry_after(self):
        queue = WorkQueue(workers=1, depth=1)
        gate = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            gate.wait(5.0)

        queue.submit(("running",), block)
        assert running.wait(5.0)  # occupies the worker, not the queue
        queue.submit(("queued",), lambda: None)
        with pytest.raises(QueueFull) as excinfo:
            queue.submit(("rejected",), lambda: None)
        assert excinfo.value.retry_after >= 1
        assert queue.stats()["rejected_429"] == 1
        gate.set()
        queue.stop(timeout=5.0)

    def test_worker_survives_job_exception(self):
        queue = WorkQueue(workers=1, depth=4)

        def boom():
            raise RuntimeError("kaput")

        job, _ = queue.submit(("bad",), boom)
        assert job.event.wait(5.0)
        assert isinstance(job.error, RuntimeError)
        ok, _ = queue.submit(("good",), lambda: 42)
        assert ok.event.wait(5.0)
        assert ok.result == 42
        stats = queue.stats()
        assert stats["errors"] == 1 and stats["completed"] == 1
        assert queue.stop(timeout=5.0)

    def test_stop_drains_accepted_work(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        jobs = [queue.submit((i,), lambda i=i: gate.wait(5.0) and i
                             or i)[0]
                for i in range(4)]
        gate.set()
        assert queue.stop(drain=True, timeout=10.0)
        assert all(job.event.is_set() for job in jobs)
        assert queue.stats()["completed"] == 4
        with pytest.raises(QueueClosed):
            queue.submit(("late",), lambda: None)

    def test_stop_without_drain_fails_pending_jobs(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            gate.wait(5.0)

        queue.submit(("running",), block)
        assert running.wait(5.0)
        pending, _ = queue.submit(("pending",), lambda: "never")
        gate.set()
        assert queue.stop(drain=False, timeout=10.0)
        assert pending.event.is_set()
        assert isinstance(pending.error, QueueClosed)


# ---------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------
class TestHttpSurface:
    def test_healthz_and_stats(self, daemon):
        _, base = daemon
        status, payload = _get(f"{base}/healthz")
        assert (status, payload) == (200, {"status": "ok"})
        status, stats = _get(f"{base}/stats")
        assert status == 200
        assert stats["queue"]["workers"] == 2
        assert set(stats["requests"]) == {"run", "sweep", "dse", "perf"}
        assert "full_lowerings" in stats["caches"]

    def test_run_matches_direct_simulation(self, daemon):
        state, base = daemon
        status, payload, _ = _post(f"{base}/run",
                                   {"dataset": "tiny",
                                    "network": "gcn"})
        assert status == 200
        from repro.config.workload import WorkloadSpec

        direct = state.harness.gnnerator_result(
            WorkloadSpec(dataset="tiny", network="gcn"))
        assert payload["result"]["cycles"] == direct.cycles
        assert payload["result"]["workload"] == "tiny-gcn"
        assert payload["coalesced"] is False

    def test_unknown_endpoint_404(self, daemon):
        _, base = daemon
        status, payload, _ = _post(f"{base}/simulate", {})
        assert status == 404
        assert "unknown endpoint" in payload["error"]

    def test_invalid_json_400(self, daemon):
        _, base = daemon
        request = urllib.request.Request(
            f"{base}/run", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_invalid_request_400(self, daemon):
        _, base = daemon
        status, payload, _ = _post(f"{base}/run",
                                   {"dataset": "nope",
                                    "network": "gcn"})
        assert status == 400
        assert "dataset" in payload["error"]

    def test_executor_failure_maps_to_500(self, daemon):
        state, base = daemon

        def boom(request):
            raise RuntimeError("executor exploded")

        state.executors["run"] = boom
        status, payload, _ = _post(f"{base}/run",
                                   {"dataset": "tiny",
                                    "network": "gcn"})
        assert status == 500
        assert "executor exploded" in payload["error"]

    def test_429_with_retry_after_when_queue_full(self, tmp_path):
        state = ServeState(seed=0, workers=1, depth=1, cache_dir=None)
        state.harness.program_store = None
        gate = threading.Event()
        running = threading.Event()
        real = state.executors["run"]

        def gated(request):
            running.set()
            gate.wait(10.0)
            return real(request)

        state.executors["run"] = gated
        httpd = make_server(state, "127.0.0.1", 0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        try:
            responses = []

            def fire(block):
                responses.append(_post(f"{base}/run",
                                       {"dataset": "tiny",
                                        "network": "gcn",
                                        "block": block}))

            # Distinct keys so nothing coalesces: one runs (gated), one
            # queues (fills depth=1), the third must bounce with 429.
            t1 = threading.Thread(target=fire, args=(64,))
            t1.start()
            assert running.wait(10.0)
            t2 = threading.Thread(target=fire, args=(32,))
            t2.start()
            deadline = time.monotonic() + 10.0
            while (state.queue.stats()["pending"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            status, payload, headers = _post(f"{base}/run",
                                             {"dataset": "tiny",
                                              "network": "gcn",
                                              "block": 16})
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert payload["retry_after_s"] >= 1
            gate.set()
            t1.join(30.0)
            t2.join(30.0)
            assert [s for s, _, _ in responses] == [200, 200]
        finally:
            gate.set()
            state.queue.stop(drain=False, timeout=5.0)
            httpd.shutdown()
            httpd.server_close()

    def test_bad_dse_space_is_a_400_before_anything_is_queued(
            self, daemon):
        state, base = daemon
        for body, needle in (({"strategy": "grid"}, "max_candidates"),
                             ({"knobs": {"nope.path": [1, 2]}},
                              "nope.path")):
            status, payload, _ = _post(f"{base}/dse", body)
            assert status == 400 and needle in payload["error"], payload
        assert state.queue.stats()["submitted"] == 0

    @pytest.mark.parametrize("length", ["-1", "twelve"])
    def test_bad_content_length_is_a_400_without_reading_the_body(
            self, daemon, length):
        """A client that sends ``Content-Length: -1`` and keeps its
        socket open gets its 400 at once: the handler never reads."""
        import socket

        _, base = daemon
        host, port = base.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.settimeout(2.0)
            sock.sendall(f"POST /run HTTP/1.1\r\nHost: x\r\n"
                         f"Content-Length: {length}\r\n\r\n".encode())
            reply = b""
            # The daemon answers HTTP/1.0 and closes; a handler stuck
            # reading to EOF would time this out instead.
            while chunk := sock.recv(4096):
                reply += chunk
        head, _, body = reply.decode().partition("\r\n\r\n")
        assert head.startswith("HTTP/1.0 400"), head
        assert "Content-Length" in json.loads(body)["error"]

    def test_perf_returns_the_caches_block(self, daemon):
        _, base = daemon
        status, payload, _ = _post(f"{base}/perf", {})
        assert status == 200
        result = payload["result"]
        assert set(result["workloads"]) == {"tiny-gcn"}
        assert set(result["caches"]) == {"full_lowerings", "dataset_disk",
                                         "program_store"}
        assert result["caches"]["program_store"] is None  # disabled

    def test_draining_queue_maps_to_503(self, daemon):
        state, base = daemon
        state.queue.stop(drain=False, timeout=5.0)
        status, payload, _ = _post(f"{base}/run",
                                   {"dataset": "tiny",
                                    "network": "gcn"})
        assert status == 503


# ---------------------------------------------------------------------
# Observability: /metrics, request ids, structured logs, cache tiers
# ---------------------------------------------------------------------
def _get_text(url: str, timeout: float = 10.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode(), dict(resp.headers)


def _log_lines(state) -> list[dict]:
    return [json.loads(line)
            for line in state.logger._stream.getvalue().splitlines()]


def _settle(ready, timeout: float = 10.0) -> None:
    """Wait until ``ready()``: a handler sends its response before it
    counts and logs the request, so that bookkeeping can lag the reply
    the test has already read."""
    deadline = time.monotonic() + timeout
    while not ready() and time.monotonic() < deadline:
        time.sleep(0.01)


def _logged(state, **fields) -> bool:
    return any(all(line.get(key) == value for key, value in fields.items())
               for line in _log_lines(state))


class TestObservability:
    def test_metrics_is_valid_prometheus_with_core_series(self, daemon):
        from repro.obs.metrics import parse_prometheus, series_sum

        state, base = daemon
        assert _post(f"{base}/run", {"dataset": "tiny",
                                     "network": "gcn"})[0] == 200
        _settle(lambda: _logged(state, event="request", endpoint="run"))
        status, text, headers = _get_text(f"{base}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        parsed = parse_prometheus(text)  # raises on malformed text
        # Queue instruments mirror /stats.
        assert ("repro_queue_depth", ()) in parsed
        assert ("repro_queue_coalesced_total", ()) in parsed
        assert series_sum(parsed, "repro_queue_completed_total") >= 1
        # One sample per cache layer, both directions.
        for field in ("repro_cache_hits_total",
                      "repro_cache_misses_total"):
            layers = {dict(labels)["layer"]
                      for (name, labels) in parsed if name == field}
            assert layers == {"harness-memo", "harness-structure",
                              "dataset-disk", "result-cache"}
        assert series_sum(parsed, "repro_full_lowerings_total") >= 1
        # The latency histogram observed the POST above.
        assert series_sum(parsed, "repro_request_latency_seconds_count",
                          endpoint="run") >= 1
        assert series_sum(parsed,
                          "repro_request_queue_wait_seconds_count") >= 1
        assert series_sum(parsed, "repro_requests_total",
                          endpoint="run", status="200") >= 1
        assert parsed[("repro_uptime_seconds", ())] >= 0

    def test_program_store_layer_appears_when_enabled(self, tmp_path):
        """Both store lookups are layers: by program key, and by
        structure name (a cost variant of a structure another harness
        lowered)."""
        from repro.compiler.store import ProgramStore
        from repro.config.overrides import apply_overrides
        from repro.config.platforms import gnnerator_config
        from repro.config.workload import WorkloadSpec
        from repro.eval.harness import Harness
        from repro.obs.metrics import parse_prometheus, series_sum

        state = ServeState(seed=0, workers=1, depth=4, cache_dir=None)
        store = ProgramStore(tmp_path / "ps")
        state.harness.program_store = store
        state.logger._stream = io.StringIO()
        spec = WorkloadSpec(dataset="tiny", network="gcn")
        base = gnnerator_config(feature_block=spec.feature_block)
        try:
            text = state.render_metrics()
            assert 'layer="program-store"' in text
            assert 'layer="program-store-structure"' in text
            writer = Harness(program_store=ProgramStore(tmp_path / "ps"))
            writer.gnnerator_program(spec, base)
            state.harness.gnnerator_program(spec, apply_overrides(
                base, {"graph.num_gpes": 16}))
            parsed = parse_prometheus(state.render_metrics())
            for layer, hits, misses in (("program-store", 0, 1),
                                        ("program-store-structure", 1, 0)):
                assert series_sum(parsed, "repro_cache_hits_total",
                                  layer=layer) == hits
                assert series_sum(parsed, "repro_cache_misses_total",
                                  layer=layer) == misses
        finally:
            state.queue.stop(drain=False, timeout=5.0)

    def test_every_response_carries_a_request_id(self, daemon):
        state, base = daemon
        _, ok_payload, _ = _post(f"{base}/run", {"dataset": "tiny",
                                                 "network": "gcn"})
        _, notfound, _ = _post(f"{base}/simulate", {})
        _, bad, _ = _post(f"{base}/run", {"dataset": "nope",
                                          "network": "gcn"})
        ids = [p["request_id"] for p in (ok_payload, notfound, bad)]
        assert all(rid.startswith("req-") for rid in ids)
        assert len(set(ids)) == 3, "request ids must be unique"

    def test_run_response_reports_cache_tier(self, daemon):
        _, base = daemon
        _, first, _ = _post(f"{base}/run", {"dataset": "tiny",
                                            "network": "gcn"})
        _, second, _ = _post(f"{base}/run", {"dataset": "tiny",
                                             "network": "gcn"})
        assert first["result"]["cache_tier"] == "compiled"
        assert second["result"]["cache_tier"] == "memo"

    def test_cost_variant_logs_recost_tier_and_structure_hit(self,
                                                            daemon):
        """A request that moves only compute knobs re-costs the first
        request's program: its response and request log say
        ``recost``, and /metrics counts a harness-structure hit."""
        from repro.obs.metrics import parse_prometheus, series_sum

        state, base = daemon
        _post(f"{base}/run", {"dataset": "tiny", "network": "gcn"})
        status, payload, _ = _post(f"{base}/run", {
            "dataset": "tiny", "network": "gcn",
            "overrides": {"graph.num_gpes": 16}})
        assert status == 200
        assert payload["result"]["cache_tier"] == "recost"
        _settle(lambda: _logged(state, request_id=payload["request_id"]))
        (entry,) = [line for line in _log_lines(state)
                    if line.get("request_id") == payload["request_id"]]
        assert entry["cache_tier"] == "recost"
        _, text, _ = _get_text(f"{base}/metrics")
        parsed = parse_prometheus(text)
        assert series_sum(parsed, "repro_cache_hits_total",
                          layer="harness-structure") == 1
        assert series_sum(parsed, "repro_cache_misses_total",
                          layer="harness-structure") == 1

    def test_structured_logs_join_request_to_outcome(self, daemon):
        state, base = daemon
        status, payload, _ = _post(f"{base}/run", {"dataset": "tiny",
                                                   "network": "gcn"})
        assert status == 200
        _settle(lambda: _logged(state, request_id=payload["request_id"]))
        lines = _log_lines(state)
        (entry,) = [line for line in lines
                    if line.get("event") == "request"
                    and line.get("request_id") == payload["request_id"]]
        assert entry["endpoint"] == "run"
        assert entry["status"] == 200
        assert entry["cache_tier"] == "compiled"
        assert entry["queue_wait_ms"] >= 0
        assert entry["service_ms"] >= 0
        assert entry["coalesced"] is False
        assert entry["level"] == "info"

    def test_executor_failure_logs_error_with_request_id(self, daemon):
        state, base = daemon

        def boom(request):
            raise RuntimeError("executor exploded")

        state.executors["run"] = boom
        status, payload, _ = _post(f"{base}/run", {"dataset": "tiny",
                                                   "network": "gcn"})
        assert status == 500
        assert payload["request_id"].startswith("req-")
        _settle(lambda: _logged(state, request_id=payload["request_id"]))
        (entry,) = [line for line in _log_lines(state)
                    if line.get("request_id") == payload["request_id"]]
        assert entry["level"] == "error"
        assert "executor exploded" in entry["error"]

    def test_429_carries_request_id_and_retry_after_log(self, tmp_path):
        state = ServeState(seed=0, workers=1, depth=1, cache_dir=None)
        state.harness.program_store = None
        state.logger._stream = io.StringIO()
        gate = threading.Event()
        running = threading.Event()
        real = state.executors["run"]

        def gated(request):
            running.set()
            gate.wait(10.0)
            return real(request)

        state.executors["run"] = gated
        httpd = make_server(state, "127.0.0.1", 0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        fired = []
        try:
            t1 = threading.Thread(target=lambda: fired.append(_post(
                f"{base}/run", {"dataset": "tiny", "network": "gcn",
                                "block": 64})))
            t1.start()
            assert running.wait(10.0)
            t2 = threading.Thread(target=lambda: fired.append(_post(
                f"{base}/run", {"dataset": "tiny", "network": "gcn",
                                "block": 32})))
            t2.start()
            deadline = time.monotonic() + 10.0
            while (state.queue.stats()["pending"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            status, payload, _ = _post(f"{base}/run",
                                       {"dataset": "tiny",
                                        "network": "gcn",
                                        "block": 16})
            assert status == 429
            assert payload["request_id"].startswith("req-")
            gate.set()
            t1.join(30.0)
            t2.join(30.0)
            _settle(lambda: _logged(state, status=429))
            (entry,) = [line for line in _log_lines(state)
                        if line.get("status") == 429]
            assert entry["request_id"] == payload["request_id"]
            assert entry["retry_after_s"] >= 1
            assert entry["level"] == "warning"
        finally:
            gate.set()
            state.queue.stop(drain=False, timeout=5.0)
            httpd.shutdown()
            httpd.server_close()

    def test_log_level_threshold_filters_debug_http_lines(self, tmp_path):
        state = ServeState(seed=0, workers=1, depth=4, cache_dir=None,
                           log_level="debug")
        state.harness.program_store = None
        state.logger._stream = io.StringIO()
        httpd = make_server(state, "127.0.0.1", 0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        try:
            assert _get(f"{base}/healthz")[0] == 200
            events = {line["event"] for line in _log_lines(state)}
            # At debug the stdlib per-connection lines come through.
            assert "http" in events
        finally:
            state.queue.stop(drain=False, timeout=5.0)
            httpd.shutdown()
            httpd.server_close()


# ---------------------------------------------------------------------
# Coalescing end to end (the acceptance criterion)
# ---------------------------------------------------------------------
class TestCoalescing:
    def test_identical_concurrent_requests_compile_once(self, daemon):
        """8 identical concurrent requests → exactly ONE full lowering
        and 8 bit-identical responses (counter-asserted, like the CI
        smoke job does via /stats)."""
        from repro.compiler.lowering import full_lowering_count

        state, base = daemon
        gate = threading.Event()
        real = state.executors["run"]

        def gated(request):
            gate.wait(30.0)
            return real(request)

        state.executors["run"] = gated
        before = full_lowering_count()
        results = []
        lock = threading.Lock()

        def fire():
            outcome = _post(f"{base}/run", {"dataset": "tiny",
                                            "network": "gcn"})
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Let every request reach the queue while the executor is
        # gated, so all 8 are in flight together.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            stats = state.queue.stats()
            if stats["submitted"] + stats["coalesced"] >= 8:
                break
            time.sleep(0.01)
        gate.set()
        for thread in threads:
            thread.join(60.0)
        assert len(results) == 8
        assert all(status == 200 for status, _, _ in results)
        bodies = {json.dumps(payload["result"], sort_keys=True)
                  for _, payload, _ in results}
        assert len(bodies) == 1, "coalesced responses must be identical"
        assert full_lowering_count() - before == 1
        stats = state.queue.stats()
        assert stats["coalesced"] >= 1
        # /stats mirrors the counter CI asserts on.
        _, served = _get(f"{base}/stats")
        assert served["caches"]["full_lowerings"] \
            == full_lowering_count()

    def test_warm_repeat_request_compiles_nothing(self, daemon):
        from repro.compiler.lowering import full_lowering_count

        _, base = daemon
        status, _, _ = _post(f"{base}/run", {"dataset": "tiny",
                                             "network": "gcn"})
        assert status == 200
        before = full_lowering_count()
        status, payload, _ = _post(f"{base}/run", {"dataset": "tiny",
                                                   "network": "gcn"})
        assert status == 200
        assert full_lowering_count() == before
        assert payload["result"]["cycles"] > 0


# ---------------------------------------------------------------------
# One request path: the CLI and the daemon agree
# ---------------------------------------------------------------------
class TestFrontendParity:
    """Equivalent CLI arguments and JSON bodies build requests with equal
    keys, and the CLI (in process) and the daemon (on its work queue)
    compute equal results from them."""

    @staticmethod
    def _cli(argv, body, endpoint):
        from repro.cli import build_parser, build_request

        request = build_request(build_parser().parse_args(argv))
        assert request.key() == parse_request(endpoint, body).key()

    def test_run(self, daemon, capsys):
        from repro.cli import main

        _, base = daemon
        argv = ["run", "tiny", "gat", "--block", "32", "--hidden-dim", "8"]
        body = {"dataset": "tiny", "network": "gat", "block": 32,
                "hidden_dim": 8}
        self._cli(argv, body, "run")
        assert main(argv) == 0
        status, payload, _ = _post(f"{base}/run", body)
        assert status == 200
        cycles = payload["result"]["cycles"]
        assert f"result:   {cycles} cycles" in capsys.readouterr().out

    def test_sweep(self, daemon, capsys):
        from repro.cli import main

        _, base = daemon
        argv = ["sweep", "smoke", "--no-cache", "--format", "json"]
        self._cli(argv, {"plan": "smoke"}, "sweep")
        assert main(argv) == 0
        cli = json.loads(capsys.readouterr().out)
        status, payload, _ = _post(f"{base}/sweep", {"plan": "smoke"})
        assert status == 200

        def view(result):
            return [(p["label"], p["status"], p["metrics"])
                    for p in result["points"]]

        assert view(cli) == view(payload["result"])

    def test_dse(self, daemon, capsys):
        from repro.cli import main

        _, base = daemon
        argv = ["dse", "--space", "small", "--knob", "dense.rows=32,64",
                "--samples", "4", "--datasets", "tiny", "--no-cache",
                "--format", "json"]
        body = {"space": "small", "knobs": {"dense.rows": [32, 64]},
                "samples": 4, "datasets": ["tiny"]}
        self._cli(argv, body, "dse")
        assert main(argv) == 0
        cli = json.loads(capsys.readouterr().out)
        status, payload, _ = _post(f"{base}/dse", body)
        assert status == 200

        def view(result):
            return [(e["label"], e["objectives"])
                    for e in result["frontier"]]

        assert view(cli) and view(cli) == view(payload["result"])
        assert payload["result"]["knobs"]["dense.rows"] == [32, 64]

    def test_perf(self, daemon, tmp_path, capsys):
        from repro.cli import main

        _, base = daemon
        out = tmp_path / "perf.json"
        argv = ["perf", "--datasets", "tiny,cora", "--networks", "gcn",
                "--output", str(out)]
        body = {"datasets": ["tiny", "cora"], "networks": ["gcn"]}
        self._cli(argv, body, "perf")
        assert main(argv) == 0
        cli = json.loads(out.read_text())
        status, payload, _ = _post(f"{base}/perf", body)
        assert status == 200

        def cycles(result):
            return {label: row["cycles"]
                    for label, row in result["workloads"].items()}

        assert cycles(cli) == cycles(payload["result"])
        assert "caches" in cli and "caches" in payload["result"]


def test_serve_state_imports_no_heavy_module(tmp_path):
    """``python -m repro serve`` imports the CLI, builds its parser and
    then its state: none of them may import a module only some requests
    (or other commands) need."""
    heavy = ("repro.dse", "repro.analysis", "repro.eval.hostperf",
             "repro.sweep.dist")
    code = ("import sys, repro.cli\n"
            "repro.cli.build_parser()\n"
            "from repro.serve import ServeState\n"
            "state = ServeState(cache_dir=None)\n"
            "state.queue.stop(drain=False, timeout=5.0)\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_PROGRAM_CACHE=str(tmp_path / "ps"))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------
# Atomic benchmark writes (repro perf / loadtest --output)
# ---------------------------------------------------------------------
class TestAtomicBenchmarkWrite:
    def test_failed_write_preserves_existing_baseline(self, tmp_path):
        """A serialisation failure mid-write must leave the previous
        baseline intact and no temp litter (the old plain write_text
        truncated the target first)."""
        from repro.eval.hostperf import write_benchmark

        target = tmp_path / "BENCH_host.json"
        target.write_text('{"workloads": {"keep": "me"}}\n')
        with pytest.raises(TypeError):
            write_benchmark({"workloads": object()}, target)
        assert json.loads(target.read_text()) == {
            "workloads": {"keep": "me"}}
        assert list(tmp_path.glob(".*tmp")) == []

    def test_failed_replace_cleans_up_tmp(self, tmp_path, monkeypatch):
        from repro.eval import hostperf

        target = tmp_path / "BENCH_host.json"
        target.write_text('{"old": true}\n')

        def broken_replace(src, dst):
            raise OSError("disk detached mid-publish")

        monkeypatch.setattr(hostperf.os, "replace", broken_replace)
        with pytest.raises(OSError, match="mid-publish"):
            hostperf.write_benchmark({"new": True}, target)
        assert json.loads(target.read_text()) == {"old": True}
        assert list(tmp_path.glob(".*tmp")) == []

    def test_successful_write_round_trips(self, tmp_path):
        from repro.eval.hostperf import load_benchmark, write_benchmark

        target = tmp_path / "BENCH_serve.json"
        payload = {"meta": {"python": "x"}, "workloads": {}}
        write_benchmark(payload, target)
        assert load_benchmark(target)["meta"] == {"python": "x"}
        assert list(tmp_path.glob(".*tmp")) == []


# ---------------------------------------------------------------------
# Loadtest harness
# ---------------------------------------------------------------------
class TestLoadtest:
    def test_loadtest_reports_latency_and_zero_lowerings_warm(
            self, daemon, tmp_path):
        from repro.serve.loadtest import (
            run_loadtest,
            write_serve_benchmark,
        )

        _, base = daemon
        # Warm: first request pays the one compile.
        assert _post(f"{base}/run", {"dataset": "tiny",
                                     "network": "gcn"})[0] == 200
        payload = run_loadtest(base, requests=12, rate=200.0,
                               concurrency=4, seed=7)
        assert payload["counts"]["ok"] == 12
        assert payload["counts"]["errors"] == 0
        assert payload["latency_ms"]["p50"] > 0
        assert payload["latency_ms"]["p99"] >= payload["latency_ms"]["p50"]
        assert payload["stats_delta"]["full_lowerings"] == 0
        assert payload["stats_delta"]["completed"] >= 1
        # The Prometheus scrape delta tells the same warm-burst story.
        metrics = payload["metrics_delta"]
        assert metrics["requests_ok"] == 12
        assert metrics["full_lowerings"] == 0
        assert metrics["latency_observations"] == 12
        assert metrics["cache_hits"]["harness-memo"] >= 1
        out = tmp_path / "BENCH_serve.json"
        write_serve_benchmark(payload, out)
        written = json.loads(out.read_text())
        assert written["counts"]["ok"] == 12
        assert written["metrics_delta"]["requests_ok"] == 12

    def test_loadtest_unreachable_daemon_raises(self):
        from repro.serve.loadtest import LoadTestError, run_loadtest

        with pytest.raises(LoadTestError, match="cannot reach"):
            run_loadtest("http://127.0.0.1:9", requests=1)

    def test_percentile_nearest_rank(self):
        from repro.serve.loadtest import percentile

        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 99) == 4.0
        assert percentile([5.0], 50) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50)


# ---------------------------------------------------------------------
# Daemon lifecycle (subprocess, real signals)
# ---------------------------------------------------------------------
class TestDaemonLifecycle:
    def _spawn(self, tmp_path, *extra):
        env = dict(os.environ,
                   PYTHONPATH=str(REPO_ROOT / "src"),
                   REPRO_PROGRAM_CACHE=str(tmp_path / "ps"),
                   REPRO_DATASET_CACHE=str(tmp_path / "ds"))
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir",
             str(tmp_path / "sweep"), *extra],
            cwd=tmp_path, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)

    def _wait_ready(self, process) -> str:
        line = process.stdout.readline()
        assert "serving on http://" in line, (
            f"daemon did not come up: {line!r}")
        return line.split("http://", 1)[1].split()[0].rstrip("/")

    def test_sigterm_drains_inflight_then_exits_zero(self, tmp_path):
        process = self._spawn(tmp_path)
        try:
            address = self._wait_ready(process)
            status, payload, _ = _post(f"http://{address}/run",
                                       {"dataset": "tiny",
                                        "network": "gcn"},
                                       timeout=120.0)
            assert status == 200 and payload["result"]["cycles"] > 0
            process.send_signal(signal.SIGTERM)
            out, _ = process.communicate(timeout=60.0)
            assert process.returncode == 0, out
            assert "drained cleanly" in out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()

    def test_sigint_exits_130(self, tmp_path):
        process = self._spawn(tmp_path)
        try:
            self._wait_ready(process)
            process.send_signal(signal.SIGINT)
            out, _ = process.communicate(timeout=60.0)
            assert process.returncode == 130, out
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()


# ---------------------------------------------------------------------
# Retry-After cold start + request deadlines (ISSUE satellites)
# ---------------------------------------------------------------------
class TestRetryAfterColdStart:
    """Before any job completes there is no service-time history; the
    estimate must still scale with the backlog via the documented
    default instead of collapsing to the 1-second floor."""

    def test_cold_estimate_scales_with_backlog(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            gate.wait(10.0)

        try:
            queue.submit(("running",), block)
            assert running.wait(10.0)
            assert not queue._durations  # genuinely cold
            one = queue.retry_after_estimate()
            for i in range(3):
                queue.submit((f"q{i}",), lambda: None)
            four = queue.retry_after_estimate()
            default = WorkQueue._DEFAULT_SERVICE_S
            assert one == math.ceil(1 * default)
            assert four == math.ceil(4 * default)
            assert four > one  # backlog-sensitive, not floored
        finally:
            gate.set()
            queue.stop(timeout=10.0)

    def test_real_history_replaces_the_default(self):
        queue = WorkQueue(workers=1, depth=8)
        try:
            job, _ = queue.submit(("fast",), lambda: None)
            assert job.event.wait(5.0)
            deadline = time.monotonic() + 5.0
            while not queue._durations and time.monotonic() < deadline:
                time.sleep(0.01)
            assert queue._durations
            # An (empty) backlog estimated from ~0s history hits the
            # 1s floor rather than the 2s cold default.
            assert queue.retry_after_estimate() == 1
        finally:
            queue.stop(timeout=10.0)


class TestRequestDeadlines:
    def test_timeout_s_validation(self):
        base = {"dataset": "tiny", "network": "gcn"}
        ok = parse_request("run", dict(base, timeout_s=2.5))
        assert ok.timeout_s == 2.5
        assert parse_request("run", dict(base)).timeout_s is None
        for bad in (0, -1, True, "soon", [1]):
            with pytest.raises(ProtocolError, match="timeout_s"):
                parse_request("run", dict(base, timeout_s=bad))

    def test_timeout_s_accepted_by_every_endpoint(self):
        bodies = {
            "run": {"dataset": "tiny", "network": "gcn"},
            "sweep": {"plan": "smoke"},
            "dse": {},
            "perf": {},
        }
        for endpoint, body in bodies.items():
            request = parse_request(endpoint,
                                    dict(body, timeout_s=1.0))
            assert request.timeout_s == 1.0

    def test_timeout_s_is_not_part_of_the_coalescing_key(self):
        body = {"dataset": "tiny", "network": "gcn"}
        patient = parse_request("run", dict(body, timeout_s=60.0))
        hurried = parse_request("run", dict(body, timeout_s=0.5))
        forever = parse_request("run", body)
        assert patient.key() == hurried.key() == forever.key()

    def test_queued_job_past_deadline_expires_unexecuted(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()
        executed = []

        def block():
            running.set()
            gate.wait(10.0)

        try:
            queue.submit(("running",), block)
            assert running.wait(10.0)
            job, _ = queue.submit(("stale",),
                                  lambda: executed.append(1),
                                  timeout_s=0.02)
            time.sleep(0.1)  # deadline passes while still queued
            gate.set()
            assert job.event.wait(10.0)
            assert isinstance(job.error, JobExpired)
            assert executed == []
            assert queue.stats()["expired_504"] == 1
        finally:
            gate.set()
            queue.stop(timeout=10.0)

    def test_started_job_runs_to_completion_despite_deadline(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()

        def slow():
            running.set()
            gate.wait(10.0)
            return "finished"

        try:
            job, _ = queue.submit(("slow",), slow, timeout_s=0.02)
            assert running.wait(10.0)  # started before the deadline
            time.sleep(0.1)
            gate.set()
            assert job.event.wait(10.0)
            assert job.error is None and job.result == "finished"
            assert queue.stats()["expired_504"] == 0
        finally:
            gate.set()
            queue.stop(timeout=10.0)

    def test_coalesced_waiters_keep_the_most_patient_deadline(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()

        def block():
            running.set()
            gate.wait(10.0)

        try:
            queue.submit(("running",), block)
            assert running.wait(10.0)
            job, _ = queue.submit(("shared",), lambda: "v",
                                  timeout_s=1.0)
            first = job.deadline
            assert first is not None
            same, coalesced = queue.submit(("shared",), lambda: "v",
                                           timeout_s=60.0)
            assert coalesced and same is job
            assert job.deadline > first  # extended, never shortened
            _, again = queue.submit(("shared",), lambda: "v",
                                    timeout_s=0.001)
            assert again
            assert job.deadline > first  # impatient waiter can't clip
            queue.submit(("shared",), lambda: "v")  # no timeout at all
            assert job.deadline is None
        finally:
            gate.set()
            queue.stop(timeout=10.0)

    def test_drain_answers_expired_backlog_with_504_not_compute(self):
        queue = WorkQueue(workers=1, depth=8)
        gate = threading.Event()
        running = threading.Event()
        executed = []

        def block():
            running.set()
            gate.wait(10.0)

        try:
            queue.submit(("running",), block)
            assert running.wait(10.0)
            stale, _ = queue.submit(("stale",),
                                    lambda: executed.append(1),
                                    timeout_s=0.02)
            time.sleep(0.1)
            gate.set()
            assert queue.stop(drain=True, timeout=10.0)
            assert isinstance(stale.error, JobExpired)
            assert executed == []
            assert queue.stats()["expired_504"] == 1
        finally:
            gate.set()

    def test_http_504_with_metric_when_deadline_passes_in_queue(
            self, tmp_path):
        from repro.obs.metrics import parse_prometheus, series_value

        state = ServeState(seed=0, workers=1, depth=4, cache_dir=None)
        state.harness.program_store = None
        gate = threading.Event()
        running = threading.Event()
        real = state.executors["run"]

        def gated(request):
            running.set()
            gate.wait(10.0)
            return real(request)

        state.executors["run"] = gated
        httpd = make_server(state, "127.0.0.1", 0)
        base = f"http://127.0.0.1:{httpd.server_address[1]}"
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.02},
                                  daemon=True)
        thread.start()
        try:
            responses = []

            def fire(block, timeout_s):
                body = {"dataset": "tiny", "network": "gcn",
                        "block": block}
                if timeout_s is not None:
                    body["timeout_s"] = timeout_s
                responses.append(_post(f"{base}/run", body,
                                       timeout=60.0))

            t1 = threading.Thread(target=fire, args=(64, None))
            t1.start()
            assert running.wait(10.0)  # occupies the only worker
            t2 = threading.Thread(target=fire, args=(32, 0.05))
            t2.start()
            deadline = time.monotonic() + 10.0
            while (state.queue.stats()["pending"] < 1
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            time.sleep(0.1)  # let the queued request's deadline lapse
            gate.set()
            t1.join(60.0)
            t2.join(60.0)
            by_status = {status: payload
                         for status, payload, _ in responses}
            assert set(by_status) == {200, 504}
            assert "expired" in by_status[504]["error"]
            assert state.queue.stats()["expired_504"] == 1
            status, text, _ = _get_text(f"{base}/metrics")
            assert status == 200
            parsed = parse_prometheus(text)
            assert series_value(
                parsed, "repro_queue_expired_total") == 1
        finally:
            gate.set()
            state.queue.stop(drain=False, timeout=5.0)
            httpd.shutdown()
            httpd.server_close()
