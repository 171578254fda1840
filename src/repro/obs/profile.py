"""One-shot workload profile: host phases + simulated-hardware report.

``repro profile <dataset> <network>`` answers "where did the time go?"
for a single workload without setting up tracing by hand: it runs the
full pipeline (load → compile → simulate) under a span tracer and a
hardware probe, then reports

* the binding resource: each resource's lower bound (DRAM bandwidth,
  Graph Engine aggregation, Dense Engine combination) against the
  achieved cycles (:mod:`repro.eval.bottleneck`);
* per-phase host wall time (the span aggregate — load, compile,
  geometry, structure, lower and its per-stage children, cost,
  recost, build-plan, retime, simulate);
* per-unit simulated cycles from the probe's op slices: compute
  cycles for the compute units, DMA cycles in flight (request to data
  delivered) for the fetch and writeback units;
* the DRAM roll-up from the probe (bytes each way, achieved
  bytes/cycle, peak port-queue depth);
* the top-k hottest shards by GPE compute cycles (straight off the
  compiled program's cost list for its
  :class:`~repro.compiler.ir.ShardAggregateOp` queue entries — a
  static property of the program, no extra runs);
* the pipeline Gantt chart of the op slices.

Everything here is read-only over existing machinery; profiling runs
the same simulation as ``repro run`` and reports the same cycle count.
"""

from __future__ import annotations

from repro.obs.hwtel import HwProbe, render_gantt, summarize_probe
from repro.obs.spans import SpanTracer, tracing

# The pipeline imports (accelerator, harness) happen inside the
# functions: the compiler itself imports ``repro.obs`` for its spans,
# so importing it here would close an import cycle.


def hottest_shards(program, num_gpes: int, top_k: int = 5) -> list[dict]:
    """The ``top_k`` shard-aggregate ops by compute cycles; one row per
    (shard, feature block) visit, with its worst-GPE load at
    ``num_gpes`` GPEs (the program's stored loads)."""
    from repro.compiler.ir import COMPUTE_OPS, ShardAggregateOp
    from repro.compiler.lowering import worst_gpe_edges

    compute = [op for op in program.queues["graph.compute"]
               if isinstance(op, COMPUTE_OPS)]
    rows = sorted(((cycles, op, load) for op, cycles, load in zip(
        compute, program.costs["graph.compute"],
        worst_gpe_edges(program, num_gpes))
        if isinstance(op, ShardAggregateOp)),
        key=lambda row: (-row[0], row[1].layer, row[1].stage,
                         row[1].shard, row[1].dims))
    return [{
        "layer": op.layer,
        "stage": op.stage,
        "shard": list(op.shard),
        "block": list(op.dims),
        "cycles": cycles,
        "num_edges": op.num_edges,
        "max_gpe_edges": load,
    } for cycles, op, load in rows[:top_k]]


def unit_cycles(probe: HwProbe, result) -> dict[str, dict]:
    """Per-unit totals of the probe's op slices.

    A unit with compute ops counts compute cycles (equal to
    ``result.unit_busy_cycles``); the fetch and writeback units count
    DMA cycles in flight, from each request to its data delivered.
    """
    totals: dict[str, int] = {}
    for unit, _label, start, end in probe.ops:
        totals[unit] = totals.get(unit, 0) + end - start
    span = max(result.cycles, 1)
    return {unit: {
        "cycles": cycles,
        "kind": ("compute" if result.unit_busy_cycles.get(unit)
                 else "DMA in flight"),
        "utilization": min(cycles / span, 1.0),
    } for unit, cycles in sorted(totals.items())}


def profile_workload(dataset: str, network: str, *,
                     hidden_dim: int = 16,
                     feature_block: int | None = 64,
                     seed: int = 0, top_k: int = 5,
                     harness=None) -> dict:
    """Profile one workload end to end; returns the report payload."""
    from repro.accelerator import GNNerator
    from repro.config.platforms import gnnerator_config
    from repro.config.workload import WorkloadSpec
    from repro.eval.bottleneck import analyze_bottleneck
    from repro.eval.harness import Harness

    if harness is None:
        harness = Harness(seed=seed)
    spec = WorkloadSpec(dataset=dataset, network=network,
                        hidden_dim=hidden_dim,
                        feature_block=feature_block)
    tracer = SpanTracer()
    probe = HwProbe()
    with tracing(tracer):
        program = harness.gnnerator_program(spec)
        config = gnnerator_config(feature_block=spec.feature_block)
        result = GNNerator(config).simulate(program, probe=probe)
    bottleneck = analyze_bottleneck(program, result, config)
    phases = tracer.by_name()
    wall_s = sum(info["total_s"] for info in phases.values()
                 if info["depth"] == 0)
    return {
        "workload": spec.label,
        "dataset": dataset,
        "network": network,
        "hidden_dim": hidden_dim,
        "feature_block": feature_block,
        "cycles": result.cycles,
        "seconds": result.seconds,
        "wall_s": wall_s,
        "compile_tier": harness.last_compile_tier(),
        "bottleneck": bottleneck.describe(),
        "phases": {
            name: {"total_s": info["total_s"], "count": info["count"]}
            for name, info in sorted(phases.items(),
                                     key=lambda kv: -kv[1]["total_s"])},
        "engines": unit_cycles(probe, result),
        "hottest_shards": hottest_shards(program, config.graph.num_gpes,
                                         top_k),
        "dram": summarize_probe(probe, result.cycles),
        "gantt": render_gantt(probe.ops),
    }


def render_profile(payload: dict) -> str:
    """Human-readable profile report."""
    lines = [
        f"profile {payload['workload']} "
        f"(hidden={payload['hidden_dim']}, "
        f"block={payload['feature_block']})",
        f"  simulated: {payload['cycles']} cycles "
        f"({payload['seconds'] * 1e6:.1f} us), "
        f"host wall {payload['wall_s'] * 1e3:.1f} ms, "
        f"compile tier: {payload['compile_tier']}",
        f"  {payload['bottleneck']}",
        "  host phases:",
    ]
    for name, info in payload["phases"].items():
        lines.append(f"    {name:<12} {info['total_s'] * 1e3:9.2f} ms"
                     f"  x{info['count']}")
    lines.append("  engines:")
    for unit, info in payload["engines"].items():
        lines.append(f"    {unit:<16} {info['cycles']:>10} cycles"
                     f"  {info['utilization']:6.1%}  {info['kind']}")
    dram = payload["dram"]
    lines.append(
        f"  dram: {dram['dram_read_bytes']} B read, "
        f"{dram['dram_write_bytes']} B written, "
        f"{dram['dram_bytes_per_cycle']:.2f} B/cycle, "
        f"queue peak {dram['queue_peak']}")
    lines.append("  hottest shards (by GPE cycles):")
    for entry in payload["hottest_shards"]:
        where = (f"l{entry['layer']}s{entry['stage']} "
                 f"shard{tuple(entry['shard'])} "
                 f"block{tuple(entry['block'])}")
        lines.append(
            f"    {where:<36} {entry['cycles']:>8} cycles"
            f"  {entry['num_edges']} edges"
            f"  (worst GPE {entry['max_gpe_edges']})")
    lines.append("  pipeline (# = unit running an op):")
    lines.extend(f"    {row}" for row in payload["gantt"].splitlines())
    return "\n".join(lines)
