"""Unit tests for 2-D grid sharding."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compiler.lowering import resolve_geometry
from repro.config.accelerator import (
    EDGE_BYTES,
    ELEM_BYTES,
    GNNeratorConfig,
    GraphEngineConfig,
)
from repro.config.workload import WorkloadSpec
from repro.eval.harness import Harness
from repro.graph import partition
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi, powerlaw_graph, star_graph
from repro.graph.graph import Graph, GraphError
from repro.graph.partition import (
    NodeInterval,
    ShardGrid,
    _max_cell_edges,
    fitting_interval,
    plan_interval_size,
    plan_shards,
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


def assert_matches_materialized(grid: ShardGrid) -> None:
    """``grid`` holds exactly :func:`materialized_scatter`'s cells."""
    reference = materialized_scatter(grid.graph, grid.interval_size)
    assert {(s.row, s.col) for s in grid.iter_shards()} == set(reference)
    for shard in grid.iter_shards():
        ref_src, ref_dst, ref_ids = reference[(shard.row, shard.col)]
        assert np.array_equal(shard.src, ref_src)
        assert np.array_equal(shard.dst, ref_dst)
        assert np.array_equal(shard.edge_ids, ref_ids)
    assert grid.num_edges == grid.graph.num_edges


#: The grid's three ways to its cells. The packed key takes cell bounds
#: from an S**2-long ``searchsorted`` ("unique-key") or, for grids
#: sparser than ``_BINCOUNT_CELLS_PER_EDGE`` cells per edge, from cells
#: decoded off each sorted key ("decoded-cells"); keys wider than
#: ``_KEY_BITS`` fall back to ``lexsort`` ("lexsort"). Each forcing
#: overrides the natural choice for every graph with edges; an edgeless
#: grid never takes the ``searchsorted`` path.
SCATTER_PATHS = {
    "unique-key": {"_BINCOUNT_CELLS_PER_EDGE": 10 ** 9},
    "decoded-cells": {"_BINCOUNT_CELLS_PER_EDGE": 0},
    "lexsort": {"_KEY_BITS": -1},
}


@contextlib.contextmanager
def forced_path(path: str):
    """Force one scatter path, and gather ``src`` in chunks of 7 edges so
    that small graphs span several chunks and a partial last one."""
    with contextlib.ExitStack() as stack:
        forced = {**SCATTER_PATHS[path], "_GATHER_CHUNK": 7}
        for name, value in forced.items():
            stack.enter_context(mock.patch.object(partition, name, value))
        yield


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
        grid = ShardGrid(build(), interval)
        assert_matches_materialized(grid)
        grid.validate()

    @pytest.mark.parametrize("path", list(SCATTER_PATHS))
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_every_path_identical(self, path, case):
        build, interval = self.CASES[case]
        graph = build()
        with forced_path(path):
            grid = ShardGrid(graph, interval)
            grid.build()
        assert_matches_materialized(grid)
        grid.validate()

    def test_ids_that_fit_are_stored_in_12_bytes_per_edge(self):
        graph = powerlaw_graph(400, 3000, feature_dim=8, seed=2)
        grid = ShardGrid(graph, 48)
        arrays = (grid._order, grid._src_sorted, grid._dst_sorted)
        assert all(array.dtype == np.int32 for array in arrays)
        assert sum(array.nbytes for array in arrays) == 12 * 3000

    def test_node_ids_past_int32_stay_int64(self):
        """A graph with more than 2**31 node ids keeps int64 arrays and
        decodes the destinations in place of the sorted keys."""
        top = 2 ** 31
        graph = Graph(top + 1, [top, 0, top, 5], [0, top, top, 0])
        grid = ShardGrid(graph, 2 ** 30)
        assert grid._dst_sorted.dtype == grid._order.dtype == np.int64
        assert grid._src_sorted.dtype == np.int64
        assert_matches_materialized(grid)

    def test_keys_past_62_bits_fall_back_to_lexsort(self):
        """2**60 node ids (60 destination bits), 8 intervals (3 row
        bits) and 16 edges (4 index bits) pack into 67 bits: too wide,
        so the grid sorts with ``lexsort`` — the same cells."""
        rng = np.random.default_rng(7)
        num_nodes = 2 ** 60
        src = rng.integers(0, num_nodes, 16)
        dst = np.concatenate([rng.integers(0, num_nodes, 12), src[:4]])
        grid = ShardGrid(Graph(num_nodes, src, dst), 2 ** 57)
        assert grid.num_intervals == 8
        with mock.patch.object(partition, "_sort_by_packed_key",
                               side_effect=AssertionError("packed")):
            grid.build()
        assert_matches_materialized(grid)

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
    """The grid's sort equals the ``lexsort`` scatter it stands for on
    each of its paths: the packed unique key with ``searchsorted`` cell
    bounds, the same key with cells decoded off it, and the ``lexsort``
    fallback for keys too wide to pack. The examples are the edge
    cases of the packing: no nodes, no edges, a single node (no
    destination bits) and a single edge (no edge-index bits)."""

    @pytest.mark.parametrize("path", list(SCATTER_PATHS))
    @settings(max_examples=60, deadline=None)
    @given(case=edge_lists())
    @example(case=(0, *_edges(), 1))
    @example(case=(5, *_edges(), 2))
    @example(case=(1, *_edges(), 1))
    @example(case=(1, *_edges((0, 0), (0, 0)), 1))
    @example(case=(5, *_edges((3, 1)), 2))
    @example(case=(6, *_edges((2, 2), (0, 5), (2, 2), (4, 4), (0, 5),
                              (2, 2)), 3))
    # A 40x40 grid over 3 edges: past _BINCOUNT_CELLS_PER_EDGE, so the
    # natural choice decodes cells.
    @example(case=(40, *_edges((0, 39), (39, 0), (0, 39)), 1))
    def test_equals_lexsort(self, path, case):
        num_nodes, src, dst, interval = case
        with forced_path(path):
            grid = ShardGrid(Graph(num_nodes, src, dst), interval)
            grid.build()
        assert_matches_materialized(grid)
        assert grid._order.dtype == np.int32


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


def probe_every_candidate(graph: Graph, config: GraphEngineConfig,
                          block: int) -> int:
    """``fitting_interval`` without its bound: halve from the scratchpad
    capacity, probing each candidate's fullest cell, until one fits."""
    interval = min(plan_interval_size(config, block),
                   max(graph.num_nodes, 1))
    capacity = config.usable_edge_bytes // EDGE_BYTES
    while interval > 1 and _max_cell_edges(graph, interval) > capacity:
        interval = max(interval // 2, 1)
    return interval


class TestFittingInterval:
    """The mean-load bound rejects candidates without probing them, and
    never changes the interval accepted."""

    @settings(max_examples=150, deadline=None)
    @given(case=edge_lists(), node_slots=st.integers(1, 48),
           edge_slots=st.integers(1, 64))
    @example(case=(1, *_edges(), 1), node_slots=1, edge_slots=1)
    @example(case=(9, *_edges((0, 8), (4, 4), (8, 0), (4, 5)), 1),
             node_slots=9, edge_slots=1)
    def test_bound_accepts_the_interval_probing_accepts(
            self, case, node_slots, edge_slots):
        num_nodes, src, dst, _ = case
        # One-dimension blocks: the scratchpads hold ``node_slots``
        # nodes, the edge buffer ``edge_slots`` edges (half of each).
        config = GraphEngineConfig(
            src_feature_buffer_bytes=2 * node_slots * ELEM_BYTES,
            dst_feature_buffer_bytes=2 * node_slots * ELEM_BYTES,
            edge_buffer_bytes=2 * edge_slots * EDGE_BYTES)
        expected = probe_every_candidate(Graph(num_nodes, src, dst),
                                         config, block=1)
        assert fitting_interval(Graph(num_nodes, src, dst), config,
                                block=1) == expected

    def test_a_rejected_candidate_runs_no_probe(self, monkeypatch):
        # 64 nodes and 600 edges against a 100-edge buffer, with
        # scratchpads for all 64 nodes: at 64 and 32 nodes per interval
        # the mean cell holds 600 and 150 edges.
        graph = erdos_renyi(64, 600, feature_dim=8, seed=3)
        config = GraphEngineConfig(
            src_feature_buffer_bytes=64 * 8 * ELEM_BYTES * 2,
            dst_feature_buffer_bytes=64 * 8 * ELEM_BYTES * 2,
            edge_buffer_bytes=100 * EDGE_BYTES * 2)
        probed = []

        def spy(graph, interval):
            probed.append(interval)
            return _max_cell_edges(graph, interval)

        monkeypatch.setattr(partition, "_max_cell_edges", spy)
        interval = fitting_interval(graph, config, block=8)
        assert interval == probe_every_candidate(graph, config, block=8)
        assert 64 not in probed and 32 not in probed
        assert probed and probed[-1] == interval
        assert set(graph._cell_edge_cache) == set(probed)

    def test_flickr_default_config_skips_its_overfull_candidates(self):
        """At the default config, the 16-dimension stages of flickr-gcn
        and flickr-gat start at 89,250 nodes per interval and halve
        through 44,625 before 22,312 fits the 131,072-edge buffer. The
        first two candidates' mean cells hold 899,756 and 224,939
        edges, so neither is probed (a probe is an |E| pass)."""
        flickr = load_dataset("flickr")
        # A fresh graph object: its probe memo starts empty.
        graph = Graph(flickr.num_nodes, flickr.src, flickr.dst,
                      features=flickr.features, name="flickr")
        harness = Harness()
        for network in ("gcn", "gat"):
            spec = WorkloadSpec(dataset="flickr", network=network,
                                hidden_dim=16)
            resolve_geometry(graph, harness.model(spec), GNNeratorConfig())
        probed = graph._cell_edge_cache
        assert probed and 44_625 not in probed and 89_250 not in probed


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
        # ``bytes`` is what the three sorted arrays hold: 12 per edge.
        arrays = (grid._order, grid._src_sorted, grid._dst_sorted)
        assert tracer.spans[0].attrs == {
            "graph": small_graph.name, "interval": 16, "edges": 300,
            "bytes": sum(array.nbytes for array in arrays)}
        assert tracer.spans[0].attrs["bytes"] == 12 * 300


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
