"""Host-performance benchmark of the GNNerator reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload compile-pipeline --seed 1 \
        --seconds 36 --trace 0

Workloads (see ``BENCHMARK.json`` for the one-line reasons):

* ``compile-pipeline`` — cold and warm ``load -> compile -> simulate`` of
  flickr-gat, flickr-gcn, pubmed-gat and pubmed-gcn
  (:mod:`compile_pipeline`);
* ``dse-campaign`` — a seeded evolutionary DSE campaign on a 2-worker
  pool, cold and then from a warm result cache (:mod:`dse_campaign`);
* ``serve-mixed`` — a ``repro serve`` daemon under an open-loop Poisson
  mix, then one caller's back-to-back warm requests
  (:mod:`serve_mixed`).

Every end-to-end timing (``setup_s``, ``cold_s``, ``warm_s``, ``p50_ms``,
``p95_ms``, ``ops_per_s``) is reported calibrated — raw seconds times
the nominal over the host reference measured next to them (per
repetition, compile row, DSE generation, request or open-loop segment)
— with the raw value printed beside it: on a host whose speed
swings by half between minutes, only the calibrated medians repeat
within their bounds. ``peak_rss_mb`` and the per-layer metrics are raw.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``. Every output is
checked (cycle goldens, a pinned DSE frontier digest, per-request
cycles); any failed operation makes the exit code 1. A run that cannot
measure (no ``src/repro`` next to this directory, a busy host during a
reference sample) exits 2 or 3 without printing a result.

The benchmark only calls public entry points of ``src/repro`` and keeps
all of its state under ``.bench_work/``.
"""

from __future__ import annotations

import sys

from common_env import pin_environment, stop_children_at_exit

if __name__ == "__main__":
    # Before anything imports numpy or multiprocessing. Spawned DSE
    # workers re-import this file as ``__mp_main__`` and inherit the
    # pinned environment instead.
    pin_environment()
    stop_children_at_exit()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import time  # noqa: E402

from common import (  # noqa: E402
    ROOT,
    BenchFailure,
    IdleGuardError,
    Run,
    start_state,
)

WORKLOADS = ("compile-pipeline", "dse-campaign", "serve-mixed")


def _module(workload: str):
    if workload == "compile-pipeline":
        import compile_pipeline as module
    elif workload == "dse-campaign":
        import dse_campaign as module
    else:
        import serve_mixed as module
    return module


#: ``src/repro`` modules with no per-layer metric, and why.
UNMEASURED = (
    "models: the GAT shadow execution shows only inside "
    "compiler.lower_ms until lower has phase spans",
    "analysis: runs only under REPRO_VERIFY=1, which stays off",
    "baselines: appear only inside serve-mixed's sweep job",
)
#: Metrics not reported as first proposed, and why.
DROPPED = (
    "p99_ms as an end-to-end metric: on a shared 2-vCPU host the "
    "serving-path tail follows host scheduling stalls and its spread over "
    "ten seeds exceeds any bound of a quarter; p95_ms is the bounded tail, "
    "and p99_ms is printed by every run and kept with the per-layer "
    "metrics",
    "serve-mixed open-loop latency and two-caller capacity as end-to-end "
    "metrics: they follow the host's scheduling stalls (ten-seed spreads "
    "0.44 for p95, 0.23 for capacity); p50_ms, p95_ms and ops_per_s come "
    "from one caller's warm requests, each calibrated by the reference "
    "samples beside it, and the open-loop percentiles are printed",
    "serve.coalesced, serve.memo_hits: how requests split between them "
    "depends on their timing; their sum, serve.memo_hits_or_coalesced, "
    "is fixed by the seed",
)


def _fill_unexercised(run: Run, per_layer: list[str], units: dict) -> None:
    """Per-layer metrics of layers this workload never calls are
    reported as 0 and named, so a zero is never mistaken for a
    measurement."""
    skipped = [name for name in per_layer if name not in run.metrics]
    for name in skipped:
        run.metric(name, 0.0, units[name])
    if skipped:
        print(f"per-layer metrics not exercised by {run.workload} "
              f"(reported as 0): {', '.join(skipped)}", flush=True)
    for reason in UNMEASURED:
        print(f"unmeasured by choice: {reason}", flush=True)
    for reason in DROPPED:
        print(f"dropped: {reason}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.work.mkdir(parents=True, exist_ok=True)
    print("start state: " + json.dumps(start_state(run), sort_keys=True),
          flush=True)
    try:
        _module(args.workload).run(run)
        if run.trace:
            _fill_unexercised(run, per_layer, units)
            path = run.write_trace()
            print(f"trace: {len(run.tracer.spans)} spans -> "
                  f"{path.relative_to(ROOT)}", flush=True)
        result = run.result(per_layer if run.trace else end_to_end)
    except (BenchFailure, IdleGuardError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    for failure in run.failures:
        print(f"FAILED: {failure}", flush=True)
    for name, entry in result["metrics"].items():
        print(f"{name:<34} {entry['value']:>14.6g} {entry['unit']}",
              flush=True)
    print(f"wall {time.perf_counter() - run.started:.1f}s", flush=True)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
