"""Serving-path benchmark: daemon latency under Poisson load.

Boots a ``repro serve`` daemon in-process, fires a warm-up burst, then
measures a sustained Poisson burst end-to-end (client connect →
response body) and writes ``BENCH_serve.json`` — the serving
counterpart of ``BENCH_host.json``. Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py
    PYTHONPATH=src python benchmarks/bench_serve.py \
        --requests 100 --rate 100 --output BENCH_serve.json

Against an *already running* daemon, use the CLI instead
(``repro loadtest --url http://...``) — this script owns its own
daemon so CI gets a hermetic measurement.

A pytest-benchmark variant tracks the warm single-request path
alongside the paper artefacts::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.request


def _booted_daemon(workers: int = 2, depth: int = 32):
    """(httpd, base_url, thread) for a fresh in-process daemon."""
    from repro.serve import ServeState, make_server

    state = ServeState(seed=0, workers=workers, depth=depth,
                       cache_dir=None)
    httpd = make_server(state, "127.0.0.1", 0)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    return httpd, f"http://127.0.0.1:{httpd.server_address[1]}", thread


def _shutdown(httpd) -> None:
    httpd.state.drain(10.0)
    httpd.shutdown()
    httpd.server_close()


def test_serve_warm_run_latency(benchmark):
    """Warm daemon `run` round trip — the p50 < 50ms acceptance path
    (cached program + pinned dataset; only simulate + HTTP remain)."""
    httpd, base, _ = _booted_daemon()
    body = json.dumps({"dataset": "tiny", "network": "gcn"}).encode()

    def post():
        request = urllib.request.Request(
            f"{base}/run", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=60) as response:
            return json.loads(response.read().decode())

    post()  # warm: first request pays the only compile
    try:
        payload = benchmark(post)
        assert payload["result"]["cycles"] > 0
    finally:
        _shutdown(httpd)


def main(argv: list[str] | None = None) -> int:
    from repro.eval.hostperf import write_benchmark
    from repro.serve.loadtest import render, run_loadtest

    parser = argparse.ArgumentParser(
        description="Poisson load test against a fresh in-process "
                    "daemon; writes BENCH_serve.json")
    parser.add_argument("--requests", type=int, default=50)
    parser.add_argument("--rate", type=float, default=50.0)
    parser.add_argument("--concurrency", type=int, default=8)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--depth", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dataset", default="tiny")
    parser.add_argument("--network", default="gcn")
    parser.add_argument("--warmup", type=int, default=4,
                        help="warm-up requests before measuring "
                             "(default 4; the first pays the compile)")
    parser.add_argument("--output", "-o", default="BENCH_serve.json",
                        help="payload destination (empty to skip)")
    args = parser.parse_args(argv)

    httpd, base, _ = _booted_daemon(workers=args.workers,
                                    depth=args.depth)
    body = {"dataset": args.dataset, "network": args.network}
    try:
        if args.warmup:
            run_loadtest(base, body=body, requests=args.warmup,
                         rate=args.rate, concurrency=args.concurrency,
                         seed=args.seed)
        payload = run_loadtest(base, body=body, requests=args.requests,
                               rate=args.rate,
                               concurrency=args.concurrency,
                               seed=args.seed)
    finally:
        _shutdown(httpd)
    print(render(payload))
    if args.output:
        write_benchmark(payload, args.output)
        print(f"wrote {args.output}")
    # A warm burst must never recompile: the daemon's whole point.
    if args.warmup and payload["stats_delta"]["full_lowerings"]:
        print("error: warm burst ran "
              f"{payload['stats_delta']['full_lowerings']} full "
              "lowering(s); expected 0", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
