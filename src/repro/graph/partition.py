"""Two-dimensional graph sharding (Sec II-B, Fig 1).

Following GridGraph, node ids are cut into ``S`` contiguous intervals and
the edge list is scattered into an ``S x S`` grid of shards: shard
``(i, j)`` holds every edge whose source lies in interval ``i`` and whose
destination lies in interval ``j``. Processing a shard only requires the
source-interval features, the destination-interval accumulators, and the
shard's edges to be resident on-chip.

The interval width ``n`` is chosen from the Graph Engine's buffer budget
(:func:`plan_interval_size`): with feature blocks of ``B`` dimensions each
node costs ``B * 4`` bytes of scratchpad, so *smaller blocks mean larger
intervals and a smaller grid* — the mechanism behind the paper's
dimension-blocking win (Sec IV-B).
"""

from __future__ import annotations

import functools
import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.config.accelerator import (
    EDGE_BYTES,
    ELEM_BYTES,
    GraphEngineConfig,
)
from repro.graph.graph import Graph, GraphError, segment_starts
from repro.obs.spans import span


@dataclass(frozen=True)
class NodeInterval:
    """A contiguous range of node ids ``[start, stop)``."""

    index: int
    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise GraphError(f"bad interval [{self.start}, {self.stop})")

    @property
    def size(self) -> int:
        return self.stop - self.start

    def contains(self, nodes: np.ndarray) -> np.ndarray:
        return (nodes >= self.start) & (nodes < self.stop)


@dataclass
class Shard:
    """One cell of the shard grid: edges from interval ``row`` to ``col``.

    Edges are stored sorted by destination (so segment reductions are
    cheap) and ``edge_ids`` maps each back to its index in the parent
    graph's COO arrays — per-edge aggregation weights are aligned through
    this mapping.
    """

    row: int
    col: int
    src_interval: NodeInterval
    dst_interval: NodeInterval
    #: Global node ids of the shard's edges (sorted by ``dst``).
    src: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    dst: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))
    #: Indices of these edges in the parent graph's edge arrays.
    edge_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, np.int64))
    # Lazily computed views, reused across feature blocks and across
    # compiles that share this shard grid (never part of equality).
    _segments: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    _distinct_sources: int | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def num_edges(self) -> int:
        return int(self.src.size)

    @property
    def dst_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, segment_dst)`` reduceat boundaries of the
        (dst-sorted) edge list — the per-shard index arrays segment
        reductions run over, computed once per shard."""
        if self._segments is None:
            starts = segment_starts(self.dst)
            self._segments = (starts, self.dst[starts])
        return self._segments

    def distinct_sources(self) -> int:
        """Distinct source rows the shard references (sparsity
        elimination's gather size), cached."""
        if self._distinct_sources is None:
            self._distinct_sources = int(np.unique(self.src).size)
        return self._distinct_sources

    @property
    def local_src(self) -> np.ndarray:
        """Source ids relative to the source interval's start."""
        return self.src - self.src_interval.start

    @property
    def local_dst(self) -> np.ndarray:
        """Destination ids relative to the destination interval's start."""
        return self.dst - self.dst_interval.start

    @property
    def edge_bytes(self) -> int:
        return self.num_edges * EDGE_BYTES

    def feature_bytes(self, block: int) -> int:
        """Scratchpad bytes for this shard's source-interval feature block."""
        return self.src_interval.size * block * ELEM_BYTES


#: Widest packed sort key, in bits: every key stays below ``2**62``,
#: clear of the int64 sign bit.
_KEY_BITS = 62


def _bit_width(count: int) -> int:
    """Bits that hold every integer in ``[0, count)``."""
    return max(count - 1, 0).bit_length()


def _id_dtype(graph: Graph) -> np.dtype:
    """What a grid stores node ids and edge indices as: int32 when
    every one of them fits, int64 otherwise."""
    fits = max(graph.num_nodes, graph.num_edges) <= 2 ** 31
    return np.dtype(np.int32 if fits else np.int64)


#: Edges per ``np.take`` of the ``src`` gather. ``take`` widens its
#: indices to int64 first, so whole-array calls would hold a transient
#: 8 bytes per edge; chunks hold 512 KiB.
_GATHER_CHUNK = 1 << 16

#: The GPE counts a program stores its shards' loads for, all counted
#: by one tally (:meth:`ShardGrid.worst_gpe_edges`).
GPE_COUNTS = (1, 2, 4, 8, 16, 32, 64)


#: ``(order, dst_sorted, cells, starts)``: the edge order and the sorted
#: destinations, then each non-empty cell's key ``row * S + col`` and
#: its first position in that order, ascending.
_SortedEdges = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _sort_by_packed_key(graph: Graph, interval_size: int,
                        num_intervals: int, dtype: np.dtype
                        ) -> _SortedEdges:
    """The sorted edges from one in-place sort.

    Each edge's key packs ``(src // n, dst, edge_index)`` into one
    int64, ``((src // n) << dst_bits | dst) << edge_bits | edge_index``.
    Since ``dst`` fixes the column, key order is (row, col, dst) order,
    and the edge index breaks ties exactly as a stable sort does; the
    keys are unique, so they admit only that one sorted order. The
    edge order and the sorted destinations are the keys' low fields.
    A non-empty cell's first edge is where its smallest possible key,
    ``row << dst_bits | col * n`` once the edge bits are shifted out,
    would sort; grids much sparser than their edge list instead read
    each edge's cell off its key.
    """
    num_edges = graph.num_edges
    dst_bits = _bit_width(graph.num_nodes)
    edge_bits = _bit_width(num_edges)
    # Built in place: no more |E|-sized temporaries live at once than
    # ``key`` plus one operand. The edge indices' buffer is then
    # overwritten with the edge order.
    key = np.floor_divide(graph.src, interval_size, dtype=np.int64)
    key <<= dst_bits
    key |= graph.dst
    key <<= edge_bits
    order = np.arange(num_edges, dtype=dtype)
    key |= order
    key.sort()
    np.bitwise_and(key, (1 << edge_bits) - 1, out=order, casting="unsafe")
    key >>= edge_bits  # row << dst_bits | dst, still sorted
    dst_mask = (1 << dst_bits) - 1
    if num_intervals ** 2 <= _BINCOUNT_CELLS_PER_EDGE * num_edges:
        bins = np.arange(num_intervals, dtype=np.int64)
        first_keys = (bins[:, None] << dst_bits) | (bins * interval_size)
        bounds = np.searchsorted(key, first_keys.ravel())
        cells = np.flatnonzero(np.diff(bounds, append=num_edges))
        starts = bounds[cells]
    else:
        cell_of_edge = ((key >> dst_bits) * num_intervals
                        + (key & dst_mask) // interval_size)
        starts = segment_starts(cell_of_edge)
        cells = cell_of_edge[starts]
    dst_sorted = key if dtype == np.int64 else np.empty(num_edges, dtype)
    np.bitwise_and(key, dst_mask, out=dst_sorted, casting="unsafe")
    return order, dst_sorted, cells, starts


def _sort_by_lexsort(graph: Graph, interval_size: int,
                     num_intervals: int, dtype: np.dtype) -> _SortedEdges:
    """:func:`_sort_by_packed_key`'s result for keys too wide to pack."""
    src_bin = graph.src // interval_size
    order = np.lexsort((graph.dst, src_bin))
    dst_sorted = graph.dst[order]
    cell_of_edge = (src_bin[order] * num_intervals
                    + dst_sorted // interval_size)
    starts = segment_starts(cell_of_edge)
    return (order.astype(dtype, copy=False),
            dst_sorted.astype(dtype, copy=False),
            cell_of_edge[starts], starts)


class ShardGrid:
    """An ``S x S`` grid of :class:`Shard` over a shared interval partition.

    The grid is *streaming*: ``_scatter`` keeps exactly one sorted copy
    of the edge arrays (the shared CSR-like view) plus a table of
    ``(start, stop)`` offsets per non-empty cell. :meth:`shard` hands out
    :class:`Shard` objects whose ``src``/``dst``/``edge_ids`` are slice
    *views* into the shared arrays — building a shard is O(1) and peak
    memory is O(|E|) for the whole grid instead of O(|E|) *per copy* of
    the old fully materialized shard list. Cell contents and ordering
    are bit-identical to the old per-shard copies. The three arrays
    (``_src_sorted``, ``_dst_sorted`` and the edge order ``_order``)
    are int32 whenever node ids and edge indices fit, 12 bytes per
    edge, and are decoded from one in-place sort of packed int64 keys
    (:func:`_sort_by_packed_key`; ``lexsort`` for keys too wide).

    The grid is also *lazy*: constructing one is O(1), and the first
    read of its edge data (a shard, the cell table, the sorted arrays)
    runs ``_scatter`` under the graph's grid lock — concurrent first
    touches build once — inside a ``plan-shards`` span. The partition
    (``interval_size``, ``intervals``, ``num_intervals``,
    ``grid_side``) never sorts.
    """

    #: What ``_scatter`` sets, ``_bounds`` last; reading any of them on
    #: an unbuilt grid builds it (see ``__getattr__``).
    _EDGE_DATA = frozenset({"_order", "_src_sorted", "_dst_sorted",
                            "_bounds"})

    def __init__(self, graph: Graph, interval_size: int) -> None:
        if interval_size <= 0:
            raise GraphError("interval_size must be positive")
        self.graph = graph
        self.interval_size = int(interval_size)
        #: Lazily materialized Shard views, keyed by (row, col); only
        #: non-empty cells are cached (empty cells are throwaway).
        self._shard_views: dict[tuple[int, int], Shard] = {}
        #: :meth:`worst_gpe_edges` by GPE count.
        self._gpe_loads: dict[int, dict[tuple[int, int], int]] = {}

    @functools.cached_property
    def intervals(self) -> list[NodeInterval]:
        """The node intervals tiling ``[0, num_nodes)``."""
        num_nodes = self.graph.num_nodes
        return [
            NodeInterval(index=i, start=start,
                         stop=min(start + self.interval_size, num_nodes))
            for i, start in enumerate(
                range(0, max(num_nodes, 1), self.interval_size))
        ]

    @functools.cached_property
    def num_intervals(self) -> int:
        return len(self.intervals)

    @property
    def built(self) -> bool:
        """Whether the edge data has been scattered yet."""
        return "_bounds" in self.__dict__

    def build(self) -> None:
        """Scatter the edges now, unless that already happened."""
        with _graph_grid_lock(self.graph):
            if not self.built:
                edges = self.graph.num_edges
                with span("plan-shards", graph=self.graph.name,
                          interval=self.interval_size, edges=edges,
                          bytes=3 * edges * _id_dtype(self.graph).itemsize):
                    self._scatter()

    def __getattr__(self, name: str):
        # Reached only for attributes not set yet.
        if name in ShardGrid._EDGE_DATA:
            self.build()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _scatter(self) -> None:
        # Sort by (shard row, shard col, destination) in one pass; the
        # within-shard dst order makes segment reductions cheap downstream.
        graph = self.graph
        dtype = _id_dtype(graph)
        key_bits = (_bit_width(self.num_intervals)
                    + _bit_width(graph.num_nodes)
                    + _bit_width(graph.num_edges))
        sort = (_sort_by_packed_key if key_bits <= _KEY_BITS
                else _sort_by_lexsort)
        order, dst_sorted, cells, starts = sort(
            graph, self.interval_size, self.num_intervals, dtype)
        # Narrowing first makes the one random-access pass read half
        # the bytes; ``order`` is a permutation, so nothing clips.
        source = graph.src.astype(dtype, copy=False)
        src_sorted = np.empty(graph.num_edges, dtype)
        for start in range(0, graph.num_edges, _GATHER_CHUNK):
            chunk = slice(start, start + _GATHER_CHUNK)
            np.take(source, order[chunk], out=src_sorted[chunk], mode="clip")
        stops = np.append(starts[1:], graph.num_edges)
        self._order = order
        self._src_sorted = src_sorted
        self._dst_sorted = dst_sorted
        # Last: a reader that finds ``_bounds`` finds every array.
        self._bounds: dict[int, tuple[int, int]] = {
            cell: (start, stop) for cell, start, stop in zip(
                cells.tolist(), starts.tolist(), stops.tolist())
        }

    # ------------------------------------------------------------------
    @property
    def grid_side(self) -> int:
        """``S``, the width/height of the (square) shard grid."""
        return self.num_intervals

    def shard(self, row: int, col: int) -> Shard:
        """The shard at ``(row, col)`` — empty cells return an empty Shard."""
        if not (0 <= row < self.num_intervals
                and 0 <= col < self.num_intervals):
            raise GraphError(f"shard ({row}, {col}) outside "
                             f"{self.num_intervals}x{self.num_intervals} grid")
        existing = self._shard_views.get((row, col))
        if existing is not None:
            return existing
        bounds = self._bounds.get(row * self.num_intervals + col)
        if bounds is None:
            return Shard(row=row, col=col,
                         src_interval=self.intervals[row],
                         dst_interval=self.intervals[col])
        start, stop = bounds
        shard = Shard(row=row, col=col,
                      src_interval=self.intervals[row],
                      dst_interval=self.intervals[col],
                      src=self._src_sorted[start:stop],
                      dst=self._dst_sorted[start:stop],
                      edge_ids=self._order[start:stop])
        self._shard_views[(row, col)] = shard
        return shard

    def iter_shards(self):
        """Stream the non-empty shards in (row, col) order.

        Each shard is a lightweight view materialized on demand, so
        iterating never holds more than the shared sorted arrays plus
        the shards the caller keeps alive."""
        for key in sorted(self._bounds):
            yield self.shard(*divmod(key, self.num_intervals))

    def nonempty_shards(self) -> list[Shard]:
        """All shards holding at least one edge, in (row, col) order."""
        return list(self.iter_shards())

    def worst_gpe_edges(self, num_gpes: int) -> dict[tuple[int, int], int]:
        """Each non-empty shard's edge count on its most-loaded of
        ``num_gpes`` GPEs, keyed by (row, col); counted once per grid
        and count. Edges go to GPE ``local dst % num_gpes``, so one
        64-bin tally per shard counts all of :data:`GPE_COUNTS`: at a
        power-of-two ``g``, GPE ``r`` holds the bins congruent to ``r``
        mod ``g``. A shard's edges fit the edge buffer, so each tally's
        transient arrays stay small."""
        if num_gpes not in self._gpe_loads:
            counts = GPE_COUNTS if num_gpes in GPE_COUNTS else (num_gpes,)
            bins = counts[-1]
            tally = np.array([np.bincount(
                self._dst_sorted[start:stop] % self.interval_size % bins,
                minlength=bins) for start, stop in self._bounds.values()],
                np.int64).reshape(-1, bins)
            shards = [divmod(cell, self.num_intervals)
                      for cell in self._bounds]
            for gpes in counts:
                loads = tally.reshape(-1, bins // gpes, gpes).sum(axis=1)
                self._gpe_loads.setdefault(gpes, dict(zip(
                    shards, loads.max(axis=1).tolist())))
        return self._gpe_loads[num_gpes]

    @property
    def num_edges(self) -> int:
        return sum(stop - start for start, stop in self._bounds.values())

    @property
    def max_shard_edges(self) -> int:
        if not self._bounds:
            return 0
        return max(stop - start for start, stop in self._bounds.values())

    def validate(self) -> None:
        """Check the partition invariants; raises GraphError on violation.

        * every edge lands in exactly one shard (counts match and each
          shard's edges respect its interval bounds);
        * intervals tile ``[0, num_nodes)`` without gaps or overlap.
        """
        if self.num_edges != self.graph.num_edges:
            raise GraphError(
                f"shards hold {self.num_edges} edges but the graph has "
                f"{self.graph.num_edges}")
        cursor = 0
        for interval in self.intervals:
            if interval.start != cursor:
                raise GraphError("intervals do not tile the node range")
            cursor = interval.stop
        if self.graph.num_nodes and cursor != self.graph.num_nodes:
            raise GraphError("intervals do not cover all nodes")
        for shard in self.iter_shards():
            if not shard.src_interval.contains(shard.src).all():
                raise GraphError(
                    f"shard {(shard.row, shard.col)} has out-of-interval "
                    f"sources")
            if not shard.dst_interval.contains(shard.dst).all():
                raise GraphError(
                    f"shard {(shard.row, shard.col)} has out-of-interval "
                    f"destinations")


def plan_interval_size(config: GraphEngineConfig, block: int) -> int:
    """Nodes per interval that fit the double-buffered scratchpads.

    With ``block`` feature dimensions on-chip per node, an interval of
    ``n`` nodes needs ``n * block * 4`` bytes in the source-feature buffer
    and the same in the destination-accumulator buffer; the binding
    constraint is the smaller buffer. This is the lever dimension-blocking
    pulls: halving ``block`` doubles ``n`` and shrinks the grid side
    ``S = ceil(V / n)``.
    """
    if block <= 0:
        raise GraphError("block must be positive")
    per_node = block * ELEM_BYTES
    src_cap = config.usable_src_bytes // per_node
    dst_cap = config.usable_dst_bytes // per_node
    capacity = min(src_cap, dst_cap)
    if capacity == 0:
        raise GraphError(
            f"a {block}-dimension feature block does not fit even one node "
            f"in the Graph Engine scratchpads")
    return int(capacity)


#: Grids kept per graph, one per interval size (see :func:`shard_grid`);
#: bounds worst-case memory when a DSE search walks many scratchpad
#: geometries over one graph.
_GRID_CACHE_MAX_ENTRIES = 16

#: Guards lazy creation of each graph's grid lock — the only
#: cross-graph state here; the per-graph lock itself serializes grid
#: building so concurrent compiles of one graph (the serve daemon's
#: request threads) build each grid once. The lock is reentrant, so
#: code holding it may read an unbuilt grid's edges. Locks live in a
#: side table (not on the graph): a lock attribute would make a graph
#: unpicklable.
_GRID_LOCKS_GUARD = threading.Lock()
_GRID_LOCKS: "weakref.WeakKeyDictionary[Graph, threading.RLock]" = (
    weakref.WeakKeyDictionary())


def _graph_grid_lock(graph: Graph) -> threading.RLock:
    lock = _GRID_LOCKS.get(graph)
    if lock is None:
        with _GRID_LOCKS_GUARD:
            lock = _GRID_LOCKS.setdefault(graph, threading.RLock())
    return lock


def _grid_memo(graph: Graph) -> dict:
    """``graph``'s grid memo (the caller holds its grid lock)."""
    cache: dict | None = getattr(graph, "_shard_grid_cache", None)
    if cache is None:
        cache = graph._shard_grid_cache = {}
    return cache


def memoize_grid(graph: Graph, interval_size: int) -> ShardGrid:
    """The graph's memoized grid at ``interval_size``, entering an
    unbuilt one (O(1)) when the memo holds none.

    The one way into the memo, for grids :func:`shard_grid` builds and
    grids a stored program names (the program store's loads call this,
    so a loaded program shares the memo's grid): it holds the graph's
    grid lock and evicts the oldest entry once
    :data:`_GRID_CACHE_MAX_ENTRIES` are held. An entry already under
    the interval size wins, so the memo never swaps a grid out from
    under compiles that share it.
    """
    with _graph_grid_lock(graph):
        cache = _grid_memo(graph)
        grid = cache.get(interval_size)
        if grid is None:
            if len(cache) >= _GRID_CACHE_MAX_ENTRIES:
                cache.pop(next(iter(cache)))
            grid = cache[interval_size] = ShardGrid(graph, interval_size)
        return grid


def plan_shards(graph: Graph, config: GraphEngineConfig,
                block: int) -> ShardGrid:
    """The shard grid for ``graph`` under a feature block of ``block``:
    the memoized grid at :func:`fitting_interval`. DSE candidates that
    vary only compute knobs (GPE count, SIMD width, frequency,
    dense-engine shape) share one grid; its GPE loads are keyed by GPE
    count, so sharing a grid across those candidates stays sound."""
    return shard_grid(graph, fitting_interval(graph, config, block))


def shard_grid(graph: Graph, interval_size: int) -> ShardGrid:
    """The memoized shard grid of ``graph`` at ``interval_size``, built.

    A grid depends only on (graph, interval): different feature blocks
    or buffer budgets that resolve to the same interval share one
    scatter. The per-shard caches (segment boundaries) and the grid's
    GPE loads are block-independent, so the sharing is sound.

    Concurrent compiles of the same graph (serve daemon request
    threads) get identical grid *objects* and one build, both under
    the graph's grid lock — two structurally equal grids would defeat
    every identity-keyed per-shard cache downstream.
    """
    grid = memoize_grid(graph, interval_size)
    grid.build()
    return grid


def fitting_interval(graph: Graph, config: GraphEngineConfig,
                     block: int) -> int:
    """The largest candidate interval whose fullest cell fits the edge
    buffer, halving down from the scratchpad capacity.

    Candidates are probed with an O(|E|) per-cell edge count instead of
    building (and sorting) a full grid per candidate — the accepted
    interval is exactly the one a build-and-check loop would choose,
    and no grid is built. A candidate whose mean cell load,
    ``ceil(|E| / S**2)``, already exceeds the buffer is rejected
    without a probe. Probe results are memoized per graph: a
    multi-layer model (or a DSE sweep walking buffer budgets) re-asks
    about the same candidate intervals, and the answer is a pure
    function of (graph, interval).
    """
    interval = min(plan_interval_size(config, block),
                   max(graph.num_nodes, 1))
    edge_capacity = config.usable_edge_bytes // EDGE_BYTES
    with _graph_grid_lock(graph):
        probes: dict | None = getattr(graph, "_cell_edge_cache", None)
        if probes is None:
            probes = graph._cell_edge_cache = {}
        while interval > 1:
            side = -(-max(graph.num_nodes, 1) // interval)
            # The fullest cell holds at least the mean, ceil(|E| / S**2),
            # so a candidate whose mean overflows is rejected unprobed.
            if -(-graph.num_edges // (side * side)) <= edge_capacity:
                cells = probes.get(interval)
                if cells is None:
                    cells = probes[interval] = _max_cell_edges(graph,
                                                               interval)
                if cells <= edge_capacity:
                    break
            interval = max(interval // 2, 1)
    return interval


#: Cell counts up to this many per edge are tallied with an
#: ``S**2``-long ``np.bincount`` (O(|E| + S**2)); sparser grids sort the
#: cell keys with ``np.unique`` instead (O(|E| log |E|)). A grid build
#: splits the same way: an ``S**2``-long ``searchsorted`` for its cell
#: bounds, or cells decoded off every sorted key. Either way no array
#: outgrows O(|E|); at interval 1, flickr's S**2 is 8e9.
_BINCOUNT_CELLS_PER_EDGE = 4


def _max_cell_edges(graph: Graph, interval: int) -> int:
    """Edge count of the fullest grid cell at this interval size."""
    num_edges = graph.num_edges
    if num_edges == 0:
        return 0
    num_intervals = -(-max(graph.num_nodes, 1) // interval)
    if num_intervals == 1:
        return num_edges
    keys = np.floor_divide(graph.src, interval, dtype=np.int64)
    keys *= num_intervals
    keys += graph.dst // interval
    cells = num_intervals * num_intervals
    if cells <= _BINCOUNT_CELLS_PER_EDGE * num_edges:
        return int(np.bincount(keys).max())
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.max())
