"""GNN model zoo: stage IR, networks (Table III + GAT/GIN extensions),
reference executor."""

from repro.models.accounting import (
    KernelProfile,
    aggregate_kernels,
    extract_kernels,
    model_bytes,
    model_flops,
    model_kernels,
)
from repro.models.gat import gat_layer
from repro.models.gcn import gcn_layer
from repro.models.gin import gin_layer
from repro.models.graphsage import graphsage_layer
from repro.models.graphsage_pool import graphsage_pool_layer
from repro.models.layers import (
    ACTIVATIONS,
    Parameters,
    apply_activation,
    dense_forward,
    glorot_uniform,
    init_parameters,
    relu,
    sigmoid,
)
from repro.models.reference import (
    aggregate_reference,
    reference_forward,
)
from repro.models.stages import (
    AggregateStage,
    ExtractStage,
    GNNLayer,
    GNNModel,
    ModelError,
    Stage,
)
from repro.models.zoo import (
    NETWORK_NAMES,
    build_network,
    layer_factory,
    network_table,
)

__all__ = [
    "KernelProfile",
    "aggregate_kernels",
    "extract_kernels",
    "model_bytes",
    "model_flops",
    "model_kernels",
    "gat_layer",
    "gcn_layer",
    "gin_layer",
    "graphsage_layer",
    "graphsage_pool_layer",
    "ACTIVATIONS",
    "Parameters",
    "apply_activation",
    "dense_forward",
    "glorot_uniform",
    "init_parameters",
    "relu",
    "sigmoid",
    "aggregate_reference",
    "reference_forward",
    "AggregateStage",
    "ExtractStage",
    "GNNLayer",
    "GNNModel",
    "ModelError",
    "Stage",
    "NETWORK_NAMES",
    "build_network",
    "layer_factory",
    "network_table",
]
