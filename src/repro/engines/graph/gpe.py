"""Graph Processing Element cycle model (Sec III-B).

A Shard Compute Unit holds ``num_gpes`` GPEs; each GPE owns an Edge
Fetcher, Input/Modified Feature Fetchers, and SIMD Apply + Reduce units
``simd_width`` lanes wide. Edges of a shard are distributed over GPEs by
destination node, so several destinations aggregate concurrently
(inter-node parallelism) while the lanes sweep the feature block
(intra-node parallelism).

The shard's latency is set by the most-loaded GPE: each edge occupies a
GPE for ``ceil(block_width / simd_width)`` Apply/Reduce slots, plus the
pipeline fill. Load imbalance across GPEs is therefore a first-class
effect — a power-law hub column concentrates edges on one GPE and the
model charges for it.
"""

from __future__ import annotations

import numpy as np

from repro.config.accelerator import GraphEngineConfig
from repro.graph.partition import Shard

#: An int, or an int array the cycle formulas apply to elementwise (the
#: cost pass times all of a program's graph ops in one call).
IntLike = int | np.ndarray


def lane_slots(width: IntLike, simd_width: int) -> IntLike:
    """SIMD passes needed to cover ``width >= 0`` feature dimensions."""
    return -(-width // simd_width)


def gpe_edge_distribution(shard: Shard, num_gpes: int) -> np.ndarray:
    """Edges assigned to each GPE (destination-hashed distribution)."""
    if shard.num_edges == 0:
        return np.zeros(num_gpes, dtype=np.int64)
    return np.bincount(shard.local_dst % num_gpes, minlength=num_gpes)


def max_gpe_edges(shard: Shard, num_gpes: int) -> int:
    """Edge count on the most-loaded GPE (the latency determinant); a
    grid counts it for all its shards once per GPE count
    (:meth:`repro.graph.partition.ShardGrid.worst_gpe_edges`)."""
    return int(gpe_edge_distribution(shard, num_gpes).max())


def shard_compute_cycles(worst_gpe_edges: IntLike, width: IntLike,
                         config: GraphEngineConfig,
                         attention: IntLike = False) -> IntLike:
    """Cycles for the Shard Compute Unit to process one shard block.

    ``attention`` charges the extra per-edge work of computed weights:
    the Apply units sweep the feature block once more to reduce the
    logit dot products, plus one slot per edge for the softmax
    scale — static weights arrive precomputed with the edge data and
    cost nothing extra.
    """
    slots = lane_slots(width, config.simd_width) * (1 + attention) + attention
    # An idle shard (no edges on any GPE) costs nothing, not the fill.
    return ((worst_gpe_edges > 0) * config.pipeline_depth
            + worst_gpe_edges * slots)


def interval_touch_cycles(num_rows: IntLike, width: IntLike,
                          config: GraphEngineConfig) -> IntLike:
    """Cycles to touch every row of an interval once (accumulator init /
    self-term application), rows spread across GPEs."""
    per_gpe = -(-num_rows // config.num_gpes)
    return (config.pipeline_depth
            + per_gpe * lane_slots(width, config.simd_width))


def gpe_utilization(shard: Shard, num_gpes: int) -> float:
    """Achieved / ideal edge parallelism for one shard (1.0 = balanced)."""
    if shard.num_edges == 0:
        return 0.0
    ideal = -(-shard.num_edges // num_gpes)
    return ideal / max_gpe_edges(shard, num_gpes)
