"""Graph Engine: GPE cycle model."""

from repro.engines.graph.gpe import (
    gpe_edge_distribution,
    gpe_utilization,
    interval_touch_cycles,
    lane_slots,
    max_gpe_edges,
    shard_compute_cycles,
)

__all__ = [
    "gpe_edge_distribution",
    "gpe_utilization",
    "interval_touch_cycles",
    "lane_slots",
    "max_gpe_edges",
    "shard_compute_cycles",
]
