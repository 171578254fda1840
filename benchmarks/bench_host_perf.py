"""Host-performance trajectory benchmark (standalone entry point).

Times the load → compile → simulate path per workload and writes
``BENCH_host.json`` — the same engine the ``repro perf`` subcommand
drives (see :mod:`repro.eval.hostperf` for the schema). Run from the
repository root::

    PYTHONPATH=src python benchmarks/bench_host_perf.py
    PYTHONPATH=src python benchmarks/bench_host_perf.py \
        --datasets tiny,cora --check BENCH_host.json

pytest-benchmark variants of the same measurements live below so the
benchmark suite tracks them alongside the paper artefacts::

    PYTHONPATH=src python -m pytest benchmarks/bench_host_perf.py
"""

from __future__ import annotations

import sys

from repro.eval.hostperf import measure_workload


def test_host_perf_cora_gcn(benchmark):
    """End-to-end host cost of one cora-gcn point (cold harness)."""
    row = benchmark(measure_workload, "cora", "gcn")
    assert row["cycles"] > 0


def test_host_perf_pubmed_gcn(benchmark):
    """End-to-end host cost of one pubmed-class point — the ISSUE-4
    hot-path target (must stay ~milliseconds with a warm disk cache)."""
    row = benchmark(measure_workload, "pubmed", "gcn")
    assert row["cycles"] > 0


def test_host_perf_flickr_gcn(benchmark):
    """The million-edge scale-up row (ISSUE-5): streamed shard compile
    plus a coalesced replay of a ~900k-edge program, warm disk cache."""
    row = benchmark(measure_workload, "flickr", "gcn")
    assert row["cycles"] > 0


def test_simulate_kernels_flickr(benchmark):
    """The coalesced replay of a million-edge program, cross-checked
    cycle for cycle against the event-driven oracle
    (``tests/oracle/``) on the same program."""
    from repro.accelerator import GNNerator
    from repro.config.workload import WorkloadSpec
    from repro.eval.harness import Harness
    from tests.oracle import simulate_event

    harness = Harness()
    spec = WorkloadSpec(dataset="flickr", network="gcn", hidden_dim=16)
    config = harness._config(spec, None)
    program = harness._compiled(spec, config)
    fast = benchmark(GNNerator(config).simulate, program)
    assert fast.cycles == simulate_event(program, config).cycles


def main(argv: list[str] | None = None) -> int:
    from repro.cli import main as cli_main

    return cli_main(["perf"] + list(sys.argv[1:] if argv is None
                                    else argv))


if __name__ == "__main__":
    sys.exit(main())
