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


def lane_slots(width: int, simd_width: int) -> int:
    """SIMD passes needed to cover ``width`` feature dimensions."""
    if width <= 0:
        return 0
    return -(-width // simd_width)


def gpe_edge_distribution(shard: Shard, num_gpes: int) -> np.ndarray:
    """Edges assigned to each GPE (destination-hashed distribution)."""
    if shard.num_edges == 0:
        return np.zeros(num_gpes, dtype=np.int64)
    return np.bincount(shard.local_dst % num_gpes, minlength=num_gpes)


def max_gpe_edges(shard: Shard, num_gpes: int) -> int:
    """Edge count on the most-loaded GPE (the latency determinant).

    Cached on the shard per GPE count: shard grids are memoized across
    compiles (see :func:`repro.graph.partition.shard_grid`), so sweeps
    and DSE candidates sharing a grid never re-reduce the distribution.
    """
    cached = shard._gpe_loads.get(num_gpes)
    if cached is None:
        cached = int(gpe_edge_distribution(shard, num_gpes).max())
        shard._gpe_loads[num_gpes] = cached
    return cached


def shard_compute_cycles(worst_gpe_edges: int, width: int,
                         config: GraphEngineConfig,
                         attention: bool = False) -> int:
    """Cycles for the Shard Compute Unit to process one shard block.

    ``attention`` charges the extra per-edge work of computed weights:
    the Apply units sweep the feature block once more to reduce the
    logit dot products, plus one slot per edge for the softmax
    scale — static weights arrive precomputed with the edge data and
    cost nothing extra.
    """
    if worst_gpe_edges == 0:
        return 0
    slots = lane_slots(width, config.simd_width)
    if attention:
        slots += lane_slots(width, config.simd_width) + 1
    return config.pipeline_depth + worst_gpe_edges * slots


def interval_touch_cycles(num_rows: int, width: int,
                          config: GraphEngineConfig) -> int:
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
