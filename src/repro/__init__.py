"""repro — a reproduction of GNNerator (DAC 2021).

GNNerator is a hardware/software framework for accelerating graph neural
networks: a Dense Engine (systolic array) and a Graph Engine (sharded
GPEs) coupled by a controller that lets either be the producer, plus a
feature dimension-blocking dataflow that trades irregular off-chip
accesses for regular ones.

Quickstart::

    from repro import GNNerator, build_network, load_dataset

    graph = load_dataset("cora")
    model = build_network("gcn", graph.feature_dim, 7)
    result = GNNerator().run(graph, model)
    print(result.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.accelerator import ExecutionResult, GNNerator
from repro.baselines import GpuModel, HyGCNModel, gpu_latency, hygcn_latency
from repro.compiler import compile_workload, run_functional
from repro.config import (
    GNNeratorConfig,
    WorkloadSpec,
    gnnerator_config,
    hygcn_config,
    next_generation_variants,
    rtx_2080_ti_config,
)
from repro.graph import Graph, load_dataset
from repro.models import (
    build_network,
    init_parameters,
    reference_forward,
)

__version__ = "1.0.0"


def __getattr__(name: str) -> object:
    # validate_program lives with the verifier passes; importing it on
    # first use keeps `import repro` from loading repro.analysis.
    if name == "validate_program":
        from repro.analysis.passes.validation import validate_program

        return validate_program
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "ExecutionResult",
    "GNNerator",
    "GpuModel",
    "HyGCNModel",
    "gpu_latency",
    "hygcn_latency",
    "compile_workload",
    "run_functional",
    "validate_program",
    "GNNeratorConfig",
    "WorkloadSpec",
    "gnnerator_config",
    "hygcn_config",
    "next_generation_variants",
    "rtx_2080_ti_config",
    "Graph",
    "load_dataset",
    "build_network",
    "init_parameters",
    "reference_forward",
    "__version__",
]
