"""Command-line interface: regenerate any paper artefact.

Usage::

    gnnerator fig3            # speedups over the 2080 Ti
    gnnerator fig4            # feature-block size sweep
    gnnerator fig5            # next-generation scaling study
    gnnerator table1          # shard dataflow cost validation
    gnnerator table5          # GNNerator vs HyGCN
    gnnerator configs         # Tables II, III, IV
    gnnerator run cora gcn    # one workload with full statistics
    gnnerator sweep fig3 --jobs 4   # parallel, cached sweep engine
    gnnerator dse --strategy random --budget-area 20 \
        --networks gcn --datasets tiny   # design-space exploration
    gnnerator perf --datasets tiny,cora  # host wall-clock trajectory
    gnnerator serve --workers 2     # persistent simulation daemon
    gnnerator loadtest --requests 50 --rate 50  # Poisson burst vs daemon
    gnnerator profile cora gcn      # bottleneck, phases, engines, Gantt
    gnnerator run tiny gcn --trace-out trace.json  # Perfetto export

(or ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.config.platforms import platform_table
from repro.config.workload import WorkloadSpec
from repro.eval.experiments import (
    fig3_speedups,
    fig4_block_sweep,
    fig5_scaling,
    table1_dataflow_costs,
    table5_hygcn,
)
from repro.eval.harness import Harness
from repro.eval.report import (
    area_energy_table,
    format_table,
    render_fig3,
    render_fig4,
    render_fig5,
    render_sweep,
    render_table1,
    render_table5,
)
from repro.graph.datasets import DATASETS, dataset_table
from repro.models.zoo import NETWORK_NAMES, network_table
from repro.sweep import PLAN_NAMES, SweepResult, result_cache_at

DATASET_NAMES = tuple(DATASETS)


def _cmd_fig3(args: argparse.Namespace) -> str:
    if getattr(args, "network", None):
        return render_fig3(fig3_speedups(networks=tuple(args.network)))
    return render_fig3(fig3_speedups())


def _cmd_fig4(_: argparse.Namespace) -> str:
    return render_fig4(fig4_block_sweep())


def _cmd_fig5(_: argparse.Namespace) -> str:
    return render_fig5(fig5_scaling())


def _cmd_table1(_: argparse.Namespace) -> str:
    return render_table1(table1_dataflow_costs())


def _cmd_table5(_: argparse.Namespace) -> str:
    return render_table5(table5_hygcn())


def _cache_hierarchy_table() -> list[dict[str, str]]:
    """One row per persistent cache layer (see DESIGN.md §6), with the
    live on-disk entry count so ``repro configs`` doubles as a cache
    inspector."""
    from repro.compiler.store import (
        DEFAULT_PROGRAM_CACHE,
        PROGRAM_CACHE_ENV,
        default_program_store,
    )
    from repro.graph.datasets import (
        DATASET_CACHE_ENV,
        DEFAULT_DATASET_CACHE,
        _dataset_cache_dir,
    )

    def count(root: Path | None, suffix: str) -> str:
        if root is None:
            return "disabled"
        if not Path(root).exists():
            return "0"
        return str(sum(1 for _ in Path(root).rglob(f"*{suffix}")))

    store = default_program_store()
    dataset_dir = _dataset_cache_dir()
    return [
        {"layer": "dataset cache",
         "env var": DATASET_CACHE_ENV,
         "default": DEFAULT_DATASET_CACHE,
         "entries": count(dataset_dir, ".npz"),
         "keyed by": "graph recipe + generator source hash"},
        {"layer": "compiled-program store",
         "env var": PROGRAM_CACHE_ENV,
         "default": DEFAULT_PROGRAM_CACHE,
         "entries": count(store.root if store else None, ".pkl"),
         "keyed by": "dataset + workload + compile-relevant config "
                     "+ repro/ source hash"},
        {"layer": "sweep result cache",
         "env var": "(--cache-dir)",
         "default": ".sweep-cache",
         "entries": count(Path(".sweep-cache"), ".json"),
         "keyed by": "sweep point + repro/ source hash"},
        {"layer": "in-process memos",
         "env var": "(always on)",
         "default": "per process",
         "entries": "-",
         "keyed by": "harness program/structure/dataset keys, "
                     "per-graph grids"},
    ]


def _cmd_configs(_: argparse.Namespace) -> str:
    parts = [
        format_table(dataset_table(), title="Table II — graph datasets"),
        format_table(network_table(),
                     title="Table III — graph neural networks"),
        format_table(platform_table(),
                     title="Table IV — compute platforms"),
        format_table(area_energy_table(),
                     title="Derived models — silicon area and energy "
                           "(the DSE objectives)"),
        format_table(_cache_hierarchy_table(),
                     title="Cache hierarchy — what is reused between "
                           "runs (DESIGN.md §6)"),
    ]
    return "\n\n".join(parts)


def _usage_error(command: str, message: str) -> SystemExit:
    """Print one error line on stderr; raise the result to exit 2, as
    argparse does for a bad flag."""
    print(f"gnnerator {command}: error: {message}", file=sys.stderr)
    return SystemExit(2)


def build_request(args: argparse.Namespace):
    """The request ``args`` describe: every argparse value whose dest is
    a field of the command's request, validated by the model
    ``repro serve`` parses the same fields into from JSON. A bad value
    exits 2 with the validator's one-line message."""
    from repro.serve.protocol import (
        ProtocolError,
        parse_request,
        request_fields,
    )

    body = {name: getattr(args, name)
            for name in request_fields(args.command)
            if getattr(args, name, None) is not None}
    if "jobs" in body:
        # --jobs 0 coordinates an external fleet: the filequeue
        # scheduler gets the 0 (no local workers), and a runner with a
        # scheduler never reads its own job count.
        body["jobs"] = max(body["jobs"], 1)
    if args.command == "perf":
        # The CLI's documented grid, not the daemon's one-workload one.
        from repro.eval.hostperf import DEFAULT_DATASETS, DEFAULT_NETWORKS

        body.setdefault("datasets", DEFAULT_DATASETS)
        body.setdefault("networks", DEFAULT_NETWORKS)
    try:
        return parse_request(args.command, body)
    except ProtocolError as exc:
        raise _usage_error(args.command, str(exc)) from None


def _cmd_run(args: argparse.Namespace) -> str:
    from repro.serve.protocol import execute_run

    request = build_request(args)
    harness = Harness()
    trace_path = None
    if args.trace_out:
        # Telemetry run: same replay, same cycle count — the probe and
        # span tracer only observe (DESIGN.md §8).
        from repro.obs import HwProbe, write_perfetto
        from repro.obs.spans import SpanTracer, tracing

        probe = HwProbe()
        host_spans = SpanTracer()
        with tracing(host_spans):
            payload, result = execute_run(request, harness, probe=probe)
        trace_path = write_perfetto(args.trace_out, spans=host_spans,
                                    probe=probe,
                                    frequency_ghz=result.frequency_ghz,
                                    total_cycles=result.cycles)
    else:
        payload, result = execute_run(request, harness)
    lines = [f"workload: {payload['workload']} (B={args.block})",
             f"result:   {result.describe()}",
             f"compile:  {payload['cache_tier']}"]
    if trace_path is not None:
        lines.append(f"trace:    wrote {trace_path} (load in "
                     f"https://ui.perfetto.dev)")
    gpu = harness.gpu_seconds(request.spec())
    hygcn = harness.hygcn_seconds(request.spec())
    lines.append(f"GPU baseline:   {gpu * 1e6:.1f} us "
                 f"({gpu / result.seconds:.1f}x slower)")
    lines.append(f"HyGCN baseline: {hygcn * 1e6:.1f} us "
                 f"({hygcn / result.seconds:.1f}x slower)")
    return "\n".join(lines)


def _scheduler_for(args: argparse.Namespace):
    """Build the miss-compute backend selected by ``--scheduler``.

    ``pool`` returns None (the sweep runner's own inline or process
    pool path); ``filequeue`` returns the crash-tolerant distributed
    scheduler sharing the sweep's cache directory, so fleet workers
    publish into the same content-addressed store the coordinator
    probes.
    """
    from repro.sweep.dist import SCHEDULER_NAMES, FileQueueScheduler

    if args.scheduler not in SCHEDULER_NAMES:
        raise _usage_error(args.command,
                           f"unknown scheduler {args.scheduler!r}; valid "
                           f"choices: {', '.join(SCHEDULER_NAMES)}")
    if args.scheduler == "pool":
        if args.jobs == 0:
            raise SystemExit(
                f"{args.command}: --jobs 0 coordinates an external "
                f"fleet and requires --scheduler filequeue")
        return None
    return FileQueueScheduler(
        jobs=args.jobs,
        queue_dir=args.queue_dir,
        cache_dir=None if args.no_cache else args.cache_dir,
        lease_ttl_s=args.lease_ttl,
        max_attempts=args.max_attempts)


def _result_cache(args: argparse.Namespace):
    return result_cache_at(None if args.no_cache else args.cache_dir)


def _emit(args: argparse.Namespace, result, to_csv, render) -> str:
    """A sweep or DSE result in ``--format``, or its summary line once
    ``--output`` holds it."""
    if args.format == "json":
        text = result.to_json()
    elif args.format == "csv":
        text = to_csv(result).rstrip("\n")
    else:
        text = render(result)
    if args.output:
        out = Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        text = f"{result.summary()} -> {args.output}"
    return text


def _cmd_sweep(args: argparse.Namespace) -> str:
    from repro.serve.protocol import execute_sweep

    request = build_request(args)
    result = execute_sweep(request, cache=_result_cache(args),
                           scheduler=_scheduler_for(args))
    # Surface point failures through the exit code so scripts and CI
    # can gate on the sweep without parsing the output.
    args.exit_code = 0 if result.ok else 1
    return _emit(args, result, SweepResult.to_csv, render_sweep)


def _at_least(bound: int, convert=int, strict: bool = False):
    """argparse type: ``convert(text)``, which must be ``>= bound``
    (``> bound`` when ``strict``)."""
    kind = "an integer" if convert is int else "a number"
    relation = f"{'>' if strict else '>='} {bound}"

    def parse(text: str):
        try:
            number = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {kind} {relation}, got {text!r}") from None
        if number < bound or (strict and number == bound):
            raise argparse.ArgumentTypeError(
                f"must be {relation}, got {text}")
        return number

    return parse


_positive_int = _at_least(1)
_nonnegative_int = _at_least(0)
_positive_float = _at_least(0, float, strict=True)


def _add_runner_args(parser: argparse.ArgumentParser) -> None:
    """The flags sweep and dse share: workers, result cache, output and
    the ``--scheduler`` backend, which :func:`_scheduler_for` checks, so
    building the parser (``repro serve`` does) never imports the fleet
    package.
    """
    parser.add_argument("--jobs", type=_nonnegative_int, default=1,
                        help="worker processes (default 1 = in-process; "
                             "0 = coordinate an external --scheduler "
                             "filequeue fleet without local workers)")
    parser.add_argument("--cache-dir", default=".sweep-cache",
                        help="persistent result cache directory, shared "
                             "by sweep and dse (default .sweep-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every point; touch no cache "
                             "files")
    parser.add_argument("--format", choices=("table", "json", "csv"),
                        default="table", help="output format")
    parser.add_argument("--output", "-o",
                        help="write output to this file instead of "
                             "stdout")

    parser.add_argument("--scheduler", default="pool", metavar="NAME",
                        help="miss-compute backend: pool = in-process "
                             "worker pool, filequeue = crash-tolerant "
                             "shared-directory fleet (default pool)")
    parser.add_argument("--queue-dir", default=".fleet-queue",
                        help="filequeue only: shared queue directory "
                             "external workers can join (default "
                             ".fleet-queue)")
    parser.add_argument("--lease-ttl", type=_positive_float,
                        default=30.0, metavar="SECONDS",
                        help="filequeue only: heartbeat TTL before a "
                             "dead worker's point is re-run "
                             "(default 30)")
    parser.add_argument("--max-attempts", type=_positive_int, default=3,
                        help="filequeue only: claims before a failing "
                             "point is quarantined (default 3)")


def _number(text: str):
    """A request field's number as typed: an int, else a float, else
    the text itself, which the request's validator names."""
    for convert in (int, float):
        try:
            return convert(text)
        except ValueError:
            pass
    return text


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(name.strip() for name in text.split(",") if name.strip())


def _knob(text: str) -> tuple[str, tuple]:
    """``PATH=V1,V2,...`` as one (path, values) pair of ``knobs``."""
    path, sep, values = text.partition("=")
    if not sep or not values:
        raise argparse.ArgumentTypeError(
            f"expects PATH=V1[,V2,...], got {text!r}")
    return path, tuple(_number(value) for value in values.split(","))


def _name_list(kind: str, valid: tuple[str, ...]):
    """Validator for ``repro verify``'s comma-separated name lists (a
    request's lists are checked by the request model)."""

    def parse(text: str) -> tuple[str, ...]:
        names = _comma_list(text)
        if not names:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {kind} names; "
                f"valid choices: {', '.join(valid)}")
        for name in names:
            if name not in valid:
                raise argparse.ArgumentTypeError(
                    f"unknown {kind} {name!r}; valid choices: "
                    f"{', '.join(valid)}")
        return names

    return parse


def _cmd_perf(args: argparse.Namespace) -> str:
    from repro.compiler.store import default_program_store
    from repro.eval import hostperf
    from repro.serve.protocol import execute_perf

    request = build_request(args)
    # Read the baseline up front: writing first could clobber it when
    # --output and --check name the same file (the committed default).
    baseline = None
    if args.check:
        baseline_path = Path(args.check)
        if not baseline_path.exists():
            raise SystemExit(
                f"perf: baseline file {args.check!r} does not exist")
        baseline = hostperf.load_benchmark(baseline_path)
    payload = execute_perf(
        request, None if args.no_program_cache else default_program_store())
    caches = payload["caches"]
    store = caches["program_store"]
    lines = [hostperf.render(payload)]
    if store is None:
        lines.append("program store: disabled (--no-program-cache)")
    else:
        lines.append(
            f"program store: {store['hits']} hit(s), {store['misses']} "
            f"miss(es), {store['entries']} entries at {store['root']}")
    lines.append(f"full lowerings this run: {caches['full_lowerings']}; "
                 f"dataset disk cache: "
                 f"{caches['dataset_disk']['hits']} hit(s), "
                 f"{caches['dataset_disk']['misses']} miss(es)")
    output = args.output
    if output is None:
        # The default target is the committed baseline; only write it
        # for the full default grid, so a restricted run can never
        # silently replace the full trajectory with a partial payload.
        full_grid = (request.datasets == hostperf.DEFAULT_DATASETS
                     and request.networks == hostperf.DEFAULT_NETWORKS)
        output = "BENCH_host.json" if full_grid else ""
        if not full_grid:
            lines.append("not writing BENCH_host.json for a restricted "
                         "workload grid; pass --output FILE to record "
                         "this measurement")
    if output:
        if (baseline is not None
                and Path(output).resolve() == baseline_path.resolve()):
            lines.append(f"skipped writing {output} — it is the "
                         f"--check baseline (pass a different --output "
                         f"to record this measurement)")
        else:
            path = hostperf.write_benchmark(payload, output)
            lines.append(f"wrote {path}")
    if baseline is not None:
        mismatches = hostperf.fingerprint_mismatches(payload, baseline)
        if mismatches:
            lines.append(f"warning: {args.check} was measured on a "
                         f"different host — wall-time comparisons are "
                         f"indicative only (cycle checks still hold):")
            lines.extend(f"  {line}" for line in mismatches)
        regressions = hostperf.find_regressions(payload, baseline,
                                                factor=args.threshold,
                                                slack=args.slack)
        if regressions:
            args.exit_code = 1
            lines.append("host-performance regressions against "
                         f"{args.check}:")
            lines.extend(f"  {line}" for line in regressions)
        else:
            shared = sorted(set(payload["workloads"])
                            & set(baseline["workloads"]))
            lines.append(
                f"no regressions against {args.check} "
                f"({len(shared)} workloads within {args.threshold:g}x)")
    return "\n".join(lines)


def _cmd_dse(args: argparse.Namespace) -> str:
    from repro.dse import dse_csv, render_dse
    from repro.serve.protocol import execute_dse

    request = build_request(args)
    result = execute_dse(request, cache=_result_cache(args),
                         scheduler=_scheduler_for(args))
    # An empty frontier means the search produced nothing usable —
    # surface that through the exit code for scripts and CI.
    args.exit_code = 0 if result.frontier else 1
    return _emit(args, result, dse_csv, render_dse)


def _cmd_worker(args: argparse.Namespace) -> str:
    from repro.sweep.dist import QueueError, default_worker_id, run_worker

    worker_id = args.worker_id or default_worker_id()
    try:
        stats = run_worker(args.queue_dir, worker_id=worker_id,
                           poll_s=args.poll, max_idle_s=args.max_idle,
                           kill_after=args.chaos_kill_after)
    except QueueError as exc:
        raise SystemExit(f"worker: {exc}") from None
    return f"worker {worker_id} exiting: {stats.summary()}"


def _cmd_chaos_sweep(args: argparse.Namespace) -> str:
    import shutil
    import tempfile

    from repro.sweep.dist import run_chaos

    workdir = args.workdir
    ephemeral = workdir is None
    if ephemeral:
        workdir = tempfile.mkdtemp(prefix="repro-chaos-")
    report = run_chaos(workdir, lease_ttl_s=args.lease_ttl,
                       stall_timeout_s=args.stall_timeout)
    args.exit_code = 0 if report.ok else 1
    text = report.render()
    if args.show_metrics:
        text += "\n--- scraped metrics ---\n" + report.metrics_text.rstrip()
    if ephemeral and report.ok:
        shutil.rmtree(workdir, ignore_errors=True)
    elif not report.ok:
        text += f"\nqueue state kept for post-mortem: {workdir}"
    return text


def _cmd_serve(args: argparse.Namespace) -> str:
    from repro.serve import serve

    args.exit_code = serve(host=args.host, port=args.port,
                           seed=args.seed, workers=args.workers,
                           depth=args.depth, cache_dir=args.cache_dir,
                           log_level=args.log_level)
    return ""


def _cmd_loadtest(args: argparse.Namespace) -> str:
    import json as json_module

    from repro.eval.hostperf import write_benchmark
    from repro.serve.loadtest import LoadTestError, render, run_loadtest
    from repro.serve.protocol import ENDPOINTS

    if args.endpoint not in ENDPOINTS:
        raise _usage_error("loadtest",
                           f"unknown endpoint {args.endpoint!r}; valid "
                           f"choices: {', '.join(ENDPOINTS)}")

    body = None
    if args.body:
        try:
            body = json_module.loads(args.body)
        except ValueError as exc:
            raise SystemExit(
                f"loadtest: --body is not valid JSON: {exc}") from None
    try:
        payload = run_loadtest(args.url, body=body,
                               endpoint=args.endpoint,
                               requests=args.requests, rate=args.rate,
                               concurrency=args.concurrency,
                               seed=args.seed, timeout_s=args.timeout)
    except (LoadTestError, ValueError) as exc:
        raise SystemExit(f"loadtest: {exc}") from None
    lines = [render(payload)]
    if args.counts_ok_only and (payload["counts"]["rejected_429"]
                                or payload["counts"]["errors"]):
        args.exit_code = 1
        lines.append("loadtest: burst had rejections/errors "
                     "(--counts-ok-only)")
    if args.output:
        write_benchmark(payload, args.output)
        lines.append(f"wrote {args.output}")
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> str:
    from repro.obs import profile_workload, render_profile

    payload = profile_workload(args.dataset, args.network,
                               hidden_dim=args.hidden_dim,
                               feature_block=args.block,
                               seed=args.seed, top_k=args.top_k)
    return render_profile(payload)


def _cmd_verify(args: argparse.Namespace) -> str:
    import json as _json

    from repro.analysis.verify import verify_program
    from repro.config.platforms import gnnerator_config
    from repro.eval.harness import Harness

    if args.dataset and args.datasets:
        raise SystemExit("verify: pass either positional "
                         "dataset/network or --datasets/--networks, "
                         "not both")
    if args.dataset:
        datasets: tuple[str, ...] = (args.dataset,)
        networks: tuple[str, ...] = (args.network or "gcn",)
    else:
        datasets = args.datasets or ("tiny",)
        networks = args.networks or NETWORK_NAMES

    harness = Harness(seed=args.seed)
    reports = []
    for dataset in datasets:
        for network in networks:
            spec = WorkloadSpec(dataset=dataset, network=network,
                                hidden_dim=args.hidden_dim)
            program = harness.gnnerator_program(spec)
            config = gnnerator_config(
                feature_block=spec.feature_block)
            reports.append(verify_program(program, config,
                                          workload=spec.label))
    ok = all(report.ok for report in reports)
    args.exit_code = 0 if ok else 1
    if args.json:
        return _json.dumps(
            {"status": "ok" if ok else "fail",
             "workloads": [report.to_dict() for report in reports]},
            indent=2)
    lines = [report.describe() for report in reports]
    lines.append(f"{len(reports)} workload(s) verified: "
                 f"{'all ok' if ok else 'FAILURES ABOVE'}")
    return "\n".join(lines)


def _cmd_lint(args: argparse.Namespace) -> str:
    import json as _json

    from repro.analysis.lint import RULE_NAMES, lint_paths, lint_repo

    if args.paths:
        import repro as _repro

        root = Path(_repro.__file__).resolve().parent
        findings = lint_paths((Path(p).resolve() for p in args.paths),
                              root)
    else:
        findings = lint_repo()
    args.exit_code = 0 if not findings else 1
    if args.json:
        return _json.dumps(
            {"status": "ok" if not findings else "fail",
             "rules": list(RULE_NAMES),
             "findings": [finding.to_dict() for finding in findings]},
            indent=2)
    if not findings:
        return (f"lint: clean ({len(RULE_NAMES)} rules: "
                f"{', '.join(RULE_NAMES)})")
    lines = [str(finding) for finding in findings]
    lines.append(f"lint: {len(findings)} finding(s)")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnnerator",
        description="Regenerate GNNerator (DAC 2021) evaluation artefacts")
    sub = parser.add_subparsers(dest="command", required=True)
    fig3 = sub.add_parser("fig3")
    fig3.add_argument("--network", action="append",
                      choices=NETWORK_NAMES, metavar="NETWORK",
                      help="run the grid over these networks instead of "
                           "the paper's Table III trio (repeatable)")
    fig3.set_defaults(handler=_cmd_fig3)
    for name, fn in (("fig4", _cmd_fig4),
                     ("fig5", _cmd_fig5), ("table1", _cmd_table1),
                     ("table5", _cmd_table5), ("configs", _cmd_configs)):
        sub.add_parser(name).set_defaults(handler=fn)
    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("dataset", choices=DATASET_NAMES)
    run.add_argument("network", choices=NETWORK_NAMES)
    run.add_argument("--block", type=_number, default=64,
                     help="feature block size B (default 64)")
    run.add_argument("--hidden-dim", type=_number, default=16)
    run.add_argument("--trace-out", default=None, metavar="OUT.json",
                     help="also write a Chrome/Perfetto trace (host "
                          "spans + hardware telemetry; identical "
                          "cycle count)")
    run.set_defaults(handler=_cmd_run)
    sweep = sub.add_parser(
        "sweep",
        help="run an experiment grid through the parallel sweep engine")
    sweep.add_argument("plan", choices=PLAN_NAMES, nargs="?",
                       default="fig3",
                       help="which evaluation grid to run (default fig3)")
    sweep.add_argument("--network", action="append", dest="networks",
                       choices=NETWORK_NAMES, metavar="NETWORK",
                       help="restrict the fig3 grid to these networks "
                            "(repeatable; any zoo network, incl. gat/gin)")
    sweep.add_argument("--seed", type=_number, default=0,
                       help="parameter-initialisation seed (default 0)")
    _add_runner_args(sweep)
    sweep.set_defaults(handler=_cmd_sweep)
    profile = sub.add_parser(
        "profile",
        help="profile one workload: binding resource, per-phase host "
             "wall time, per-unit cycles, DRAM roll-up, hottest "
             "shards, pipeline Gantt chart")
    profile.add_argument("dataset", choices=DATASET_NAMES)
    profile.add_argument("network", choices=NETWORK_NAMES)
    profile.add_argument("--hidden-dim", type=_positive_int, default=16)
    profile.add_argument("--block", type=_positive_int, default=64,
                         help="feature block size B (default 64)")
    profile.add_argument("--top-k", type=_positive_int, default=5,
                         help="hottest shards to list (default 5)")
    profile.add_argument("--seed", type=int, default=0,
                         help="parameter-initialisation seed (default 0)")
    profile.set_defaults(handler=_cmd_profile)
    dse = sub.add_parser(
        "dse",
        help="search the accelerator design space, report the Pareto "
             "frontier (latency / area / energy)")
    dse.add_argument("--strategy", default="random", metavar="NAME",
                     help="search strategy (default random; an "
                          "unknown name lists the valid ones)")
    dse.add_argument("--networks", type=_comma_list, default=("gcn",),
                     metavar="A,B,...",
                     help="comma-separated workload networks "
                          "(default gcn)")
    dse.add_argument("--datasets", type=_comma_list, default=("tiny",),
                     metavar="A,B,...",
                     help="comma-separated workload datasets "
                          "(default tiny)")
    dse.add_argument("--hidden-dim", type=_number, default=16)
    dse.add_argument("--space", default="default", metavar="NAME",
                     help="design-space preset (default default; an "
                          "unknown name lists the valid ones)")
    dse.add_argument("--knob", action="append", dest="knobs",
                     type=_knob, metavar="PATH=V1,V2",
                     help="override one knob's value ladder, e.g. "
                          "--knob dense.rows=32,64 (repeatable)")
    dse.add_argument("--samples", type=_number, default=16,
                     help="random-strategy sample count (default 16)")
    dse.add_argument("--population", type=_number, default=8,
                     help="evolutionary population size (default 8)")
    dse.add_argument("--generations", type=_number, default=4,
                     help="evolutionary generations (default 4)")
    dse.add_argument("--max-candidates", type=_number, default=4096,
                     help="refuse grid searches larger than this "
                          "(default 4096)")
    dse.add_argument("--budget-area", type=_number, default=None,
                     metavar="MM2", help="max silicon area in mm^2")
    dse.add_argument("--budget-power", type=_number, default=None,
                     metavar="W", help="max average power in watts")
    dse.add_argument("--fig5-check", action="store_true",
                     help="also evaluate the paper's Fig 5 hand-picked "
                          "variants against the discovered frontier")
    dse.add_argument("--seed", type=_number, default=0,
                     help="search + parameter seed (default 0); equal "
                          "seeds give bit-identical frontiers at any "
                          "--jobs level")
    _add_runner_args(dse)
    dse.set_defaults(handler=_cmd_dse)
    worker = sub.add_parser(
        "worker",
        help="join a distributed sweep fleet: claim points from a "
             "shared queue directory until it closes (SIGTERM drains: "
             "the in-flight point finishes, nothing new is claimed)")
    worker.add_argument("--queue-dir", required=True,
                        help="queue directory created by a filequeue "
                             "coordinator (repro sweep --scheduler "
                             "filequeue --queue-dir ...)")
    worker.add_argument("--worker-id", default=None,
                        help="fleet-visible name (default host-pid)")
    worker.add_argument("--poll", type=_positive_float, default=0.2,
                        metavar="SECONDS",
                        help="idle claim-poll interval (default 0.2)")
    worker.add_argument("--max-idle", type=_positive_float, default=None,
                        metavar="SECONDS",
                        help="exit after this long with nothing to "
                             "claim (default: wait until the queue "
                             "closes)")
    worker.add_argument("--chaos-kill-after", type=_positive_int,
                        default=None, metavar="N",
                        help="fault injection: SIGKILL self after "
                             "claiming the Nth point (used by "
                             "chaos-sweep to orphan a lease mid-point)")
    worker.set_defaults(handler=_cmd_worker)
    chaos = sub.add_parser(
        "chaos-sweep",
        help="fault-injection harness: run a small fleet campaign "
             "while killing workers mid-point and corrupting queue "
             "files, then verify completeness, cycle-identical "
             "results, and the fleet metrics")
    chaos.add_argument("--workdir", default=None,
                       help="directory for queue + caches (default: a "
                            "temp dir, removed on success, kept on "
                            "failure for post-mortem)")
    chaos.add_argument("--lease-ttl", type=_positive_float, default=1.5,
                       metavar="SECONDS",
                       help="campaign lease TTL; small so reaping is "
                            "observed quickly (default 1.5)")
    chaos.add_argument("--stall-timeout", type=_positive_float,
                       default=120.0, metavar="SECONDS",
                       help="give up if the fleet makes no progress "
                            "for this long (default 120)")
    chaos.add_argument("--show-metrics", action="store_true",
                       help="also print the scraped Prometheus text")
    chaos.set_defaults(handler=_cmd_chaos_sweep)
    perf = sub.add_parser(
        "perf",
        help="benchmark host wall-clock of load/compile/simulate per "
             "workload (the BENCH_host.json trajectory)")
    perf.add_argument("--datasets", type=_comma_list, default=None,
                      metavar="A,B,...",
                      help="comma-separated datasets (default "
                           "tiny,cora,citeseer,pubmed,flickr; reddit-s "
                           "is opt-in — cold synthesis alone is ~10s)")
    perf.add_argument("--networks", type=_comma_list, default=None,
                      metavar="A,B,...",
                      help="comma-separated networks (default gcn,gat)")
    perf.add_argument("--hidden-dim", type=_number, default=16)
    perf.add_argument("--repeat", type=_number, default=1,
                      help="repetitions per workload; each component "
                           "reports its minimum (default 1)")
    perf.add_argument("--no-program-cache", action="store_true",
                      help="bypass the persistent compiled-program "
                           "store so compile_s measures pure cold "
                           "compiles (identical cycles)")
    perf.add_argument("--output", "-o", default=None,
                      help="write the JSON payload here (default: "
                           "BENCH_host.json when measuring the full "
                           "default grid, otherwise no file; empty "
                           "string to skip)")
    perf.add_argument("--check", metavar="BASELINE.json",
                      help="compare against a committed baseline; exit 1 "
                           "when total_s regresses beyond --threshold or "
                           "cycles drift")
    perf.add_argument("--threshold", type=float, default=2.0,
                      help="allowed total_s slowdown factor for --check "
                           "(default 2.0)")
    perf.add_argument("--slack", type=float, default=0.0,
                      help="absolute seconds added to every --check "
                           "budget (CI machine-variance allowance; "
                           "default 0)")
    perf.set_defaults(handler=_cmd_perf)
    serve = sub.add_parser(
        "serve",
        help="run the persistent simulation daemon (HTTP/JSON; see "
             "README 'Serving')")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8177,
                       help="bind port; 0 picks a free one "
                            "(default 8177)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="request worker threads (default 2)")
    serve.add_argument("--depth", type=_positive_int, default=32,
                       help="work-queue depth before 429 backpressure "
                            "(default 32)")
    serve.add_argument("--seed", type=int, default=0,
                       help="parameter-initialisation seed (default 0)")
    serve.add_argument("--cache-dir", default=".sweep-cache",
                       help="sweep result cache directory "
                            "(default .sweep-cache)")
    serve.add_argument("--log-level",
                       choices=("debug", "info", "warning", "error"),
                       default="info",
                       help="structured request-log threshold on "
                            "stderr (default info; debug adds stdlib "
                            "access-log lines)")
    serve.set_defaults(handler=_cmd_serve)
    loadtest = sub.add_parser(
        "loadtest",
        help="fire a Poisson request burst at a running daemon and "
             "report p50/p99 latency + sustained RPS")
    loadtest.add_argument("--url", default="http://127.0.0.1:8177",
                          help="daemon base URL "
                               "(default http://127.0.0.1:8177)")
    loadtest.add_argument("--endpoint", default="run",
                          help="endpoint to exercise (default run)")
    loadtest.add_argument("--body", default=None, metavar="JSON",
                          help="request body as a JSON object (default "
                               "{\"dataset\": \"tiny\", \"network\": "
                               "\"gcn\"})")
    loadtest.add_argument("--requests", type=_positive_int, default=50,
                          help="burst size (default 50)")
    loadtest.add_argument("--rate", type=float, default=50.0,
                          help="offered load, requests/second "
                               "(default 50)")
    loadtest.add_argument("--concurrency", type=_positive_int,
                          default=8,
                          help="client-side in-flight cap (default 8)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="arrival-process seed (default 0)")
    loadtest.add_argument("--timeout", type=float, default=60.0,
                          help="per-request timeout, seconds "
                               "(default 60)")
    loadtest.add_argument("--counts-ok-only", action="store_true",
                          help="exit 1 when any request was rejected "
                               "or errored (CI gate)")
    loadtest.add_argument("--output", "-o", default=None,
                          help="write the JSON payload here (e.g. "
                               "BENCH_serve.json)")
    loadtest.set_defaults(handler=_cmd_loadtest)
    verify = sub.add_parser(
        "verify",
        help="statically verify compiled programs (edge coverage, DMA "
             "conservation, channel protocol, token liveness, "
             "schedulability, plan agreement) without simulating")
    verify.add_argument("dataset", nargs="?", choices=DATASET_NAMES,
                        help="verify one dataset (default: tiny across "
                             "all networks)")
    verify.add_argument("network", nargs="?", choices=NETWORK_NAMES,
                        help="network for the positional dataset "
                             "(default gcn)")
    verify.add_argument("--datasets",
                        type=_name_list("dataset", DATASET_NAMES),
                        default=None, metavar="A,B",
                        help="comma-separated datasets to verify")
    verify.add_argument("--networks",
                        type=_name_list("network", NETWORK_NAMES),
                        default=None, metavar="A,B",
                        help="comma-separated networks (default: all)")
    verify.add_argument("--hidden-dim", type=_positive_int, default=16)
    verify.add_argument("--seed", type=int, default=0,
                        help="parameter-initialisation seed (default 0)")
    verify.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")
    verify.set_defaults(handler=_cmd_verify)
    lint = sub.add_parser(
        "lint",
        help="run the codebase contract linter (determinism, probe "
             "purity, atomic cache writes, lock discipline, unpickling "
             "only in the program store, metric naming, import "
             "layering)")
    lint.add_argument("paths", nargs="*",
                      help="files to lint (default: the whole repro "
                           "package)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")
    lint.set_defaults(handler=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.handler(args)
    except KeyboardInterrupt:
        # Workers are already torn down (see ProcessPoolScheduler.run);
        # 130 = 128 + SIGINT, the conventional interrupted-exit code.
        print("interrupted", file=sys.stderr)
        return 130
    if out:
        try:
            print(out, flush=True)
        except BrokenPipeError:
            # The reader left (`repro configs | head -1`). Point stdout
            # at devnull so the exit-time flush cannot raise again.
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY),
                        sys.stdout.fileno())
            except (AttributeError, OSError, ValueError):
                pass
            return 1
    return getattr(args, "exit_code", 0)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
