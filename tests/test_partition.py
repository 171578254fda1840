"""Unit tests for 2-D grid sharding."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config.accelerator import EDGE_BYTES, GraphEngineConfig
from repro.graph.generators import erdos_renyi, powerlaw_graph, star_graph
from repro.graph.graph import Graph, GraphError
from repro.graph.partition import (
    NodeInterval,
    ShardGrid,
    _max_cell_edges,
    plan_interval_size,
    plan_shards,
    shard_sort_order,
)
from repro.obs.spans import tracing


def materialized_scatter(graph: Graph, interval: int) -> dict:
    """The pre-streaming scatter, kept verbatim as the reference: sort
    by (row bin, col bin, dst) with ``np.lexsort`` and *copy* each
    shard's arrays out of the sorted edge list."""
    num_intervals = -(-max(graph.num_nodes, 1) // interval)
    src_bin = graph.src // interval
    dst_bin = graph.dst // interval
    order = np.lexsort((graph.dst, dst_bin, src_bin))
    src_sorted = graph.src[order]
    dst_sorted = graph.dst[order]
    keys = src_bin[order] * num_intervals + dst_bin[order]
    shards = {}
    boundaries = np.flatnonzero(np.diff(keys)) + 1
    for segment in np.split(np.arange(keys.size), boundaries):
        if segment.size == 0:
            continue
        key = int(keys[segment[0]])
        shards[divmod(key, num_intervals)] = (
            src_sorted[segment].copy(), dst_sorted[segment].copy(),
            order[segment].copy())
    return shards


class TestStreamedScatterEquivalence:
    """The streaming grid must reproduce the materialized scatter
    shard by shard — same cells, same edges, same order, same edge-id
    mapping (the order GAT's baked coefficients align through)."""

    CASES = [
        (lambda: erdos_renyi(60, 300, feature_dim=8, seed=5), 16),
        (lambda: erdos_renyi(500, 4000, feature_dim=8, seed=9), 37),
        (lambda: star_graph(40), 7),
        (lambda: erdos_renyi(200, 1500, feature_dim=8, seed=1), 1),
        # A reduced-scale power-law multigraph — duplicate edges, hub
        # columns, the structure the million-edge datasets scale up.
        (lambda: powerlaw_graph(400, 3000, feature_dim=8, seed=2), 48),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_shard_by_shard_identical(self, case):
        build, interval = self.CASES[case]
        graph = build()
        grid = ShardGrid(graph, interval)
        reference = materialized_scatter(graph, interval)
        keys = {(s.row, s.col) for s in grid.nonempty_shards()}
        assert keys == set(reference)
        for shard in grid.iter_shards():
            ref_src, ref_dst, ref_ids = reference[(shard.row, shard.col)]
            assert np.array_equal(shard.src, ref_src)
            assert np.array_equal(shard.dst, ref_dst)
            assert np.array_equal(shard.edge_ids, ref_ids)
        grid.validate()

    def test_shards_are_views_not_copies(self):
        """The memory contract: shard arrays alias the grid's shared
        sorted arrays (O(|E|) total, not O(|E|) per copy)."""
        graph = erdos_renyi(200, 1500, feature_dim=8, seed=1)
        grid = ShardGrid(graph, 48)
        for shard in grid.iter_shards():
            assert shard.src.base is grid._src_sorted
            assert shard.dst.base is grid._dst_sorted
            assert shard.edge_ids.base is grid._order

    def test_iter_shards_streams_in_row_col_order(self):
        graph = erdos_renyi(100, 800, feature_dim=8, seed=4)
        grid = ShardGrid(graph, 17)
        keys = [(s.row, s.col) for s in grid.iter_shards()]
        assert keys == sorted(keys)
        assert sum(s.num_edges for s in grid.iter_shards()) == 800


@st.composite
def edge_lists(draw):
    """A random multigraph's COO lists and an interval width. Node
    ranges are small, so duplicate edges and self-loops are common."""
    num_nodes = draw(st.integers(1, 40))
    node = st.integers(0, num_nodes - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=150))
    interval = draw(st.integers(1, num_nodes + 2))
    src = np.array([s for s, _ in pairs], dtype=np.int64)
    dst = np.array([d for _, d in pairs], dtype=np.int64)
    return num_nodes, src, dst, interval


def _edges(*pairs):
    return (np.array([s for s, _ in pairs], dtype=np.int64),
            np.array([d for _, d in pairs], dtype=np.int64))


class TestShardSortOrder:
    """``shard_sort_order`` equals the lexsort it stands for on each of
    its three branches. An oversized ``num_intervals`` (the sort only
    needs it as an upper bound on the row bin) pushes the composite key
    past the int64 budget of the faster branches."""

    @staticmethod
    def num_intervals_for(branch: str, num_nodes: int, interval: int,
                          dst: np.ndarray) -> int:
        if branch == "unique-key":
            return -(-num_nodes // interval)
        bound = int(dst.max()) + 1 if dst.size else 1
        if branch == "stable-argsort":
            # S^2 * N < 2**62: the cell key fits, but times |E| >= 2
            # the unique key does not.
            return math.isqrt((2 ** 62 - 1) // bound)
        return 2 ** 31  # S^2 * N >= 2**62: only lexsort is safe

    @pytest.mark.parametrize("branch",
                             ["unique-key", "stable-argsort", "lexsort"])
    @settings(max_examples=60, deadline=None)
    @given(case=edge_lists())
    @example(case=(5, *_edges(), 2))
    @example(case=(5, *_edges((3, 1)), 2))
    @example(case=(6, *_edges((2, 2), (0, 5), (2, 2), (4, 4), (0, 5),
                              (2, 2)), 3))
    def test_equals_lexsort(self, branch, case):
        num_nodes, src, dst, interval = case
        num_intervals = self.num_intervals_for(branch, num_nodes,
                                               interval, dst)
        order = shard_sort_order(src, dst, interval, num_intervals)
        reference = np.lexsort((dst, dst // interval, src // interval))
        assert np.array_equal(order, reference)


class TestMaxCellEdges:
    """The interval probe's cell count equals the ``np.unique`` count
    it replaced on every branch: no edges, one interval, the
    ``bincount`` tally, and the sort fallback for sparse grids."""

    @settings(max_examples=120, deadline=None)
    @given(case=edge_lists())
    @example(case=(1, *_edges(), 1))  # a single node, no edges
    @example(case=(1, *_edges((0, 0), (0, 0)), 1))  # a single node
    # A 40x40 grid over 3 edges: past _BINCOUNT_CELLS_PER_EDGE, the
    # np.unique fallback.
    @example(case=(40, *_edges((0, 39), (39, 0), (0, 39)), 1))
    # A 3x3 grid over 4 edges: the bincount tally.
    @example(case=(9, *_edges((0, 8), (4, 4), (8, 0), (4, 5)), 4))
    def test_equals_unique_count(self, case):
        num_nodes, src, dst, interval = case
        graph = Graph(num_nodes, src, dst)
        if not src.size:
            expected = 0
        else:
            side = -(-num_nodes // interval)
            keys = (src // interval) * side + dst // interval
            expected = int(np.unique(keys, return_counts=True)[1].max())
        assert _max_cell_edges(graph, interval) == expected

    def test_empty_graph(self):
        assert _max_cell_edges(Graph(0, [], []), 1) == 0


class TestLazyGrid:
    def test_partition_reads_never_sort(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        with tracing() as tracer:
            assert grid.interval_size == 16
            assert grid.grid_side == grid.num_intervals == 4
            assert [iv.start for iv in grid.intervals] == [0, 16, 32, 48]
        assert not grid.built
        assert not tracer.spans

    def test_first_edge_read_sorts_once_in_a_span(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        with tracing() as tracer:
            grid.shard(0, 0)
            grid.validate()
        assert grid.built
        assert [record.name for record in tracer.spans] == ["plan-shards"]
        assert tracer.spans[0].attrs == {"graph": small_graph.name,
                                         "interval": 16}


class TestNodeInterval:
    def test_size_and_contains(self):
        interval = NodeInterval(index=0, start=10, stop=20)
        assert interval.size == 10
        assert interval.contains(np.array([10, 19])).all()
        assert not interval.contains(np.array([9, 20])).any()

    def test_rejects_inverted(self):
        with pytest.raises(GraphError):
            NodeInterval(index=0, start=5, stop=2)


class TestShardGrid:
    def test_every_edge_in_exactly_one_shard(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        grid.validate()
        recovered = set()
        for shard in grid.nonempty_shards():
            for u, v in zip(shard.src.tolist(), shard.dst.tolist()):
                recovered.add((u, v))
        original = set(zip(small_graph.src.tolist(),
                           small_graph.dst.tolist()))
        assert recovered == original

    def test_grid_side(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        assert grid.grid_side == 4  # ceil(60 / 16)
        assert grid.num_edges == small_graph.num_edges

    def test_shard_bounds(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        for shard in grid.nonempty_shards():
            assert shard.src_interval.contains(shard.src).all()
            assert shard.dst_interval.contains(shard.dst).all()

    def test_local_ids(self):
        g = Graph(6, [0, 3, 5], [3, 4, 1])
        grid = ShardGrid(g, interval_size=3)
        shard = grid.shard(1, 1)  # edge (3, 4)
        assert shard.local_src.tolist() == [0]
        assert shard.local_dst.tolist() == [1]

    def test_edges_sorted_by_dst_within_shard(self, medium_graph):
        grid = ShardGrid(medium_graph, interval_size=100)
        for shard in grid.nonempty_shards():
            assert (np.diff(shard.dst) >= 0).all()

    def test_edge_ids_alignment(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=16)
        for shard in grid.nonempty_shards():
            assert np.array_equal(small_graph.src[shard.edge_ids],
                                  shard.src)
            assert np.array_equal(small_graph.dst[shard.edge_ids],
                                  shard.dst)

    def test_empty_cell_returns_empty_shard(self):
        g = Graph(4, [0], [1])
        grid = ShardGrid(g, interval_size=2)
        assert grid.shard(1, 0).num_edges == 0

    def test_out_of_range_shard(self):
        g = Graph(4, [0], [1])
        grid = ShardGrid(g, interval_size=2)
        with pytest.raises(GraphError):
            grid.shard(5, 0)

    def test_rejects_bad_interval(self, small_graph):
        with pytest.raises(GraphError):
            ShardGrid(small_graph, interval_size=0)

    def test_single_shard_when_interval_covers(self, small_graph):
        grid = ShardGrid(small_graph, interval_size=1000)
        assert grid.grid_side == 1
        assert grid.shard(0, 0).num_edges == small_graph.num_edges


class TestPlanning:
    def test_interval_size_formula(self):
        config = GraphEngineConfig()
        block = 64
        per_node = block * 4
        expected = min(config.usable_src_bytes // per_node,
                       config.usable_dst_bytes // per_node)
        assert plan_interval_size(config, block) == expected

    def test_smaller_block_bigger_interval(self):
        """The dimension-blocking lever: halving B doubles capacity."""
        config = GraphEngineConfig()
        assert (plan_interval_size(config, 32)
                == 2 * plan_interval_size(config, 64))

    def test_rejects_block_too_large(self):
        config = GraphEngineConfig(src_feature_buffer_bytes=64,
                                   dst_feature_buffer_bytes=64,
                                   edge_buffer_bytes=64)
        with pytest.raises(GraphError):
            plan_interval_size(config, 1024)

    def test_plan_shards_respects_edge_buffer(self):
        graph = erdos_renyi(64, 600, feature_dim=8, seed=3)
        config = GraphEngineConfig(
            num_gpes=2, simd_width=2,
            src_feature_buffer_bytes=64 * 8 * 2,  # whole graph fits
            dst_feature_buffer_bytes=64 * 8 * 2,
            edge_buffer_bytes=100 * EDGE_BYTES * 2)  # 100 edges max
        grid = plan_shards(graph, config, block=8)
        assert grid.max_shard_edges <= 100
        grid.validate()

    def test_plan_shards_single_when_everything_fits(
            self, small_graph, default_config):
        grid = plan_shards(small_graph, default_config.graph, block=8)
        assert grid.grid_side == 1
