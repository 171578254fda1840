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
    _gpe_loads: dict[int, int] = field(
        default_factory=dict, init=False, repr=False, compare=False)
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


def shard_sort_order(src: np.ndarray, dst: np.ndarray,
                     interval_size: int, num_intervals: int) -> np.ndarray:
    """The stable permutation sorting edges by (row, col, dst).

    Semantically this is ``np.lexsort((dst, dst // n, src // n))`` — the
    order every shard golden depends on. When it fits an int64, the sort
    runs instead over the *unique* key ``cell_key * |E| + edge_index``,
    where ``cell_key = (row * S + col) * N + dst``: edges with equal
    ``cell_key`` are ordered by their index, which is exactly how a
    stable sort breaks ties. No two keys are equal, so any sort of them
    is that stable order, and one plain in-place ``ndarray.sort`` —
    several times faster than a stable argsort on multi-million-edge
    lists — yields the permutation as ``key % |E|``. Composite keys too
    wide for that fall back to a stable argsort of ``cell_key``, and
    wider still to ``lexsort``; all three permutations are identical.
    """
    num_edges = int(src.size)
    num_intervals = int(num_intervals)
    num_nodes_bound = max(int(dst.max()) + 1 if dst.size else 1, 1)
    cell_keys = num_intervals * num_intervals * num_nodes_bound
    if cell_keys * num_edges < 2 ** 62:
        # Built in place: no more |E|-sized temporaries live at once
        # than ``key`` plus one operand.
        key = np.floor_divide(src, interval_size, dtype=np.int64)
        key *= num_intervals
        key += dst // interval_size
        key *= num_nodes_bound
        key += dst
        key *= num_edges
        key += np.arange(num_edges, dtype=np.int64)
        key.sort()
        key %= max(num_edges, 1)
        return key
    src_bin = src // interval_size
    dst_bin = dst // interval_size
    if cell_keys < 2 ** 62:
        key = (src_bin * num_intervals + dst_bin) * num_nodes_bound + dst
        return np.argsort(key, kind="stable")
    return np.lexsort((dst, dst_bin, src_bin))


class ShardGrid:
    """An ``S x S`` grid of :class:`Shard` over a shared interval partition.

    The grid is *streaming*: ``_scatter`` keeps exactly one sorted copy
    of the edge arrays (the shared CSR-like view) plus a table of
    ``(start, stop)`` offsets per non-empty cell. :meth:`shard` hands out
    :class:`Shard` objects whose ``src``/``dst``/``edge_ids`` are slice
    *views* into the shared arrays — building a shard is O(1) and peak
    memory is O(|E|) for the whole grid instead of O(|E|) *per copy* of
    the old fully materialized shard list. Cell contents and ordering
    are bit-identical to the old per-shard copies.
    """

    def __init__(self, graph: Graph, interval_size: int) -> None:
        if interval_size <= 0:
            raise GraphError("interval_size must be positive")
        self.graph = graph
        self.interval_size = int(interval_size)
        starts = list(range(0, max(graph.num_nodes, 1), self.interval_size))
        self.intervals = [
            NodeInterval(index=i, start=start,
                         stop=min(start + self.interval_size,
                                  graph.num_nodes))
            for i, start in enumerate(starts)
        ]
        self.num_intervals = len(self.intervals)
        self._scatter()
        #: Lazily materialized Shard views, keyed by (row, col); only
        #: non-empty cells are cached (empty cells are throwaway).
        self._shard_views: dict[tuple[int, int], Shard] = {}

    def _scatter(self) -> None:
        # Sort by (shard row, shard col, destination) in one pass; the
        # within-shard dst order makes segment reductions cheap downstream.
        order = shard_sort_order(self.graph.src, self.graph.dst,
                                 self.interval_size, self.num_intervals)
        self._order = order
        self._src_sorted = self.graph.src[order]
        self._dst_sorted = self.graph.dst[order]
        keys_sorted = ((self._src_sorted // self.interval_size)
                       * self.num_intervals
                       + self._dst_sorted // self.interval_size)
        starts = segment_starts(keys_sorted)
        stops = np.append(starts[1:], keys_sorted.size)
        self._bounds: dict[int, tuple[int, int]] = {
            int(keys_sorted[start]): (int(start), int(stop))
            for start, stop in zip(starts, stops)
        }

    # -- pickling ------------------------------------------------------
    # A grid is a pure function of (graph, interval_size); what makes
    # rebuilding expensive is the O(|E| log |E|) sort hiding in
    # ``_scatter``. Serialisation therefore keeps exactly the sort's
    # outputs — the permutation and the per-cell offsets — and
    # recomputes everything derivable by a cheap O(|E|) gather on load.
    # The parent graph rides along *by reference*: the program store's
    # pickler reduces it to a ``_graph_ref(name)`` call (never its
    # feature matrix), and the unpickler resolves that call to the
    # loading process's graph object.
    def __getstate__(self) -> dict:
        return {"graph": self.graph,
                "interval_size": self.interval_size,
                "_order": self._order,
                "_bounds": self._bounds}

    #: Attributes rebuilt from (graph, _order) after unpickling.
    _DERIVED = ("intervals", "num_intervals",
                "_src_sorted", "_dst_sorted", "_shard_views")

    def __setstate__(self, state: dict) -> None:
        # Stash the persisted fields only. The derived state cannot be
        # rebuilt here: when the graph itself is being unpickled and
        # its ``_shard_grid_cache`` references this grid back (a
        # reference cycle), pickle invokes ``__setstate__`` while
        # ``state["graph"]`` is still an empty shell whose own state
        # has not been applied yet. ``__getattr__`` finishes the job
        # on first access, by which point the graph is whole.
        self.__dict__.update(state)

    def __getattr__(self, name: str):
        if name in ShardGrid._DERIVED and "_order" in self.__dict__:
            self._rebuild_derived()
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    def _rebuild_derived(self) -> None:
        """O(|E|) gather restoring everything ``__getstate__`` dropped."""
        graph = self.graph
        starts = list(range(0, max(graph.num_nodes, 1),
                            self.interval_size))
        self.intervals = [
            NodeInterval(index=i, start=start,
                         stop=min(start + self.interval_size,
                                  graph.num_nodes))
            for i, start in enumerate(starts)
        ]
        self.num_intervals = len(self.intervals)
        self._src_sorted = graph.src[self._order]
        self._dst_sorted = graph.dst[self._order]
        self._shard_views = {}

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
#: request threads) build each grid once. The lock is reentrant so
#: :func:`memoize_grid` can take it inside :func:`plan_shards`. Locks
#: live in a side table (not on the graph): graphs ride inside pickled
#: grids, and a lock attribute would make them unpicklable.
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


def memoize_grid(grid: ShardGrid) -> ShardGrid:
    """Enter ``grid`` in its graph's grid memo and return the memo's
    entry for its interval size.

    The one way into the memo, for grids :func:`shard_grid` builds and
    grids a stored program brings along: it holds the graph's grid lock
    and evicts the oldest entry once :data:`_GRID_CACHE_MAX_ENTRIES` are
    held. An entry already under the interval size wins, so the memo
    never swaps a grid out from under compiles that share it.
    """
    with _graph_grid_lock(grid.graph):
        cache = _grid_memo(grid.graph)
        existing = cache.get(grid.interval_size)
        if existing is not None:
            return existing
        if len(cache) >= _GRID_CACHE_MAX_ENTRIES:
            cache.pop(next(iter(cache)))
        cache[grid.interval_size] = grid
        return grid


def plan_shards(graph: Graph, config: GraphEngineConfig,
                block: int) -> ShardGrid:
    """The shard grid for ``graph`` under a feature block of ``block``:
    the memoized grid at :func:`fitting_interval`. DSE candidates that
    vary only compute knobs (GPE count, SIMD width, frequency,
    dense-engine shape) share one grid; the per-shard GPE-load cache is
    itself keyed by GPE count, so sharing a grid across those
    candidates stays sound."""
    return shard_grid(graph, fitting_interval(graph, config, block))


def shard_grid(graph: Graph, interval_size: int) -> ShardGrid:
    """The memoized shard grid of ``graph`` at ``interval_size``.

    A grid depends only on (graph, interval): different feature blocks
    or buffer budgets that resolve to the same interval share one
    scatter. The per-shard caches (segment boundaries, GPE loads) are
    block-independent, so the sharing is sound.

    Holds the graph's grid lock for the whole build: concurrent
    compiles of the same graph (serve daemon request threads) get one
    grid build and identical grid *objects* — two structurally equal
    grids would defeat every identity-keyed per-shard cache downstream.
    """
    with _graph_grid_lock(graph):
        grid = _grid_memo(graph).get(interval_size)
        if grid is None:
            with span("plan-shards", graph=graph.name,
                      interval=interval_size):
                grid = memoize_grid(ShardGrid(graph, interval_size))
        return grid


def fitting_interval(graph: Graph, config: GraphEngineConfig,
                     block: int) -> int:
    """The largest candidate interval whose fullest cell fits the edge
    buffer, halving down from the scratchpad capacity.

    Candidates are probed with an O(|E|) per-cell edge count instead of
    building (and sorting) a full grid per candidate — the accepted
    interval is exactly the one a build-and-check loop would choose,
    and no grid is built. Probe results are memoized per graph: a
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
            cells = probes.get(interval)
            if cells is None:
                cells = probes[interval] = _max_cell_edges(graph, interval)
            if cells <= edge_capacity:
                break
            interval = max(interval // 2, 1)
    return interval


def _max_cell_edges(graph: Graph, interval: int) -> int:
    """Edge count of the fullest grid cell at this interval size."""
    if graph.num_edges == 0:
        return 0
    num_intervals = -(-max(graph.num_nodes, 1) // interval)
    keys = (graph.src // interval) * num_intervals + (graph.dst // interval)
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.max())
